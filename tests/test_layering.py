"""Imports inside the package follow one direction: no module reaches up.

The order is _keep -> space -> spectral -> semigroup -> multiplier ->
dilation -> inequalities -> suites -> config/runner -> cli; a module may import
its own rank or below, and only at module level, never deferred inside a
function.  No module takes another module's private (underscore) name.  The
package publishes the ``__all__`` of the six layers below the suites, and
nothing else.  Outside the package, a module imports numpy and the standard
library only.  Only ``_keep`` keeps state between calls by rebinding a name or
writing an instance dict, and no ``functools`` cache keeps values by another
rule.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import lapmult

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lapmult"

RANK = {
    "_keep": -1, "space": 0, "spectral": 1, "semigroup": 2, "multiplier": 3, "dilation": 4,
    "inequalities": 5, "suites": 6, "config": 7, "runner": 7, "cli": 8,
}

# Names a module may take from the package root itself.
PACKAGE_NAMES = {"__version__"}


def _relative_imports(tree):
    """Yield (enclosing function or None, target name, line) for each relative import."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level > 0:
                assert child.level == 1, f"line {child.lineno}: imports from above the package"
                targets = [child.module] if child.module else [a.name for a in child.names]
                for target in targets:
                    yield function, target.split(".")[0], child.lineno
            yield from visit(child, function)

    yield from visit(tree, None)


def _package_imports():
    """Yield (module, enclosing function or None, target, line) for every module but the root."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        assert module in RANK, f"{module}.py has no place in the layer order"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, target, line in _relative_imports(tree):
            yield module, function, target, line


def test_no_import_reaches_up():
    upward = []
    for module, function, target, line in _package_imports():
        if target in PACKAGE_NAMES:
            continue
        assert target in RANK, f"{module}.py:{line} imports unknown module {target!r}"
        if RANK[target] > RANK[module]:
            upward.append(f"{module}.py:{line} imports {target}")
    assert not upward, upward


def test_no_import_is_deferred():
    deferred = [f"{module}.py:{line} imports {target} inside {function}()"
                for module, function, target, line in _package_imports() if function is not None]
    assert not deferred, deferred


def _is_vars_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"


def test_only_the_keep_module_holds_state_by_hand():
    # every keyed cache goes through lapmult._keep: elsewhere no `global` or
    # `nonlocal` statement, and no write through `vars(...)`
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "_keep":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append(f"{path.stem}.py:{node.lineno} {type(node).__name__.lower()}")
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if _is_vars_call(node.value):
                    found.append(f"{path.stem}.py:{node.lineno} writes through vars()")
            elif isinstance(node, ast.Attribute) and _is_vars_call(node.value):
                if node.attr in {"update", "setdefault", "pop", "popitem", "clear"}:
                    found.append(f"{path.stem}.py:{node.lineno} writes through vars()")
    assert not found, found


FUNCTOOLS_CACHES = {"cached_property", "cache", "lru_cache"}


def test_no_functools_cache_keeps_values():
    # a functools cache keeps values by a rule of its own; lapmult._keep is the one rule
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
                names = [node.attr]
            else:
                continue
            found += [f"{path.stem}.py:{node.lineno} {name}" for name in names if name in FUNCTOOLS_CACHES]
    assert not found, found


# A sampled multiplier (with Gamma(1 - i gamma) behind the imaginary power) and
# a Monte Carlo cross-check: the run paths most likely to reach for scipy.
SCIPY_FREE_CONFIG = {
    "schema": "lapmult-config-1",
    "suites": [
        {"check": "step_convergence", "chain": {"seed": 7, "n": 4}, "field_seed": 5,
         "multiplier": {"type": "sampled", "name": "exp", "t_max": 4.0, "grid": 129},
         "piece_counts": [8, 16, 32], "rel_tol": 0.05},
        {"check": "imaginary_powers", "chain": {"seed": 11, "n": 4}, "gammas": [1.0], "grid": 401},
        {"check": "mc_crosscheck", "seed": 17, "n": 3,
         "dilation": {"horizon": 3, "epsilon": 0.8, "mode": "mc", "samples": 2000, "seed": 23}},
    ],
}

# Any import of scipy or a scipy submodule raises ImportError, as if scipy
# were not installed.
NO_SCIPY_RUN = """
import json, sys

class NoScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, NoScipy)
import lapmult, lapmult.cli
code = lapmult.cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))
"""


def test_runs_with_scipy_unimportable(tmp_path):
    # numpy is the only runtime dependency; the tests' scipy stays an oracle
    # that shares no code with the library
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SCIPY_FREE_CONFIG), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(config), str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    code, loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert code == 0, result.stdout[-2000:]
    assert loaded == []


def test_runtime_imports_are_numpy_and_the_standard_library():
    third_party = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            third_party += [f"{path.stem}.py:{node.lineno} imports {name}" for name in names
                            if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not third_party, third_party


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_name_crosses_modules():
    # `from .x import _y`, or `x._y` after `from . import x`
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module:
                    crossings += [f"{path.stem}.py:{node.lineno} imports {node.module}.{a.name}"
                                  for a in node.names if _private(a.name)]
                else:
                    modules.update(a.asname or a.name for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                crossings.append(f"{path.stem}.py:{node.lineno} reads {node.value.id}.{node.attr}")
    assert not crossings, crossings


LAYERS = ("space", "spectral", "semigroup", "multiplier", "dilation", "inequalities")


def test_package_exports_exactly_the_layers_public_names():
    layers = [importlib.import_module(f"lapmult.{layer}") for layer in LAYERS]
    names = [name for module in layers for name in module.__all__]
    # a wildcard import would let a later layer shadow an earlier one's name silently
    assert len(names) == len(set(names)), sorted({n for n in names if names.count(n) > 1})
    exported = {name for name, value in vars(lapmult).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(names), exported ^ set(names)
    for module in layers:
        for name in module.__all__:
            assert getattr(lapmult, name) is getattr(module, name), name


LIMITS = {"DEFAULT_PATH_BUDGET", "MAX_TABLE_HORIZON"}


def test_only_the_dilation_module_states_the_path_limits():
    # every other module asks dilation.check_enumerable, so the limits cannot
    # drift apart again; docstrings may name them, code (a name, an attribute
    # or an import) may not
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "dilation":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in LIMITS:
                found.append(f"{path.stem}.py:{node.lineno} names {name}")
    assert not found, found


def _is_array_budget(node):
    """Whether ``node`` writes the 2**28-byte array budget: as ``2**28``, ``1 << 28`` or a literal."""
    if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant):
        operands = (node.left.value, node.right.value)
        return ((isinstance(node.op, ast.Pow) and operands == (2, 28))
                or (isinstance(node.op, ast.LShift) and operands == (1, 28)))
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool) and node.value == 2**28)


def test_only_the_semigroup_module_forms_the_array_budget():
    # semigroup derives MAX_STATES from the budget; config's size limits take
    # the budget back from MAX_STATES, so the two cannot drift apart
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "semigroup":
            continue
        found += [f"{path.stem}.py:{node.lineno} forms 2**28"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if _is_array_budget(node)]
    assert not found, found


def test_config_leaves_the_symbol_overflow_rule_to_multiplier():
    # config builds a step multiplier from its spec, but multiplier.symbol_bound
    # states when a symbol may overflow: config imports no StepMultiplier,
    # dispatches on no multiplier type and reads no breakpoints or window
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias) and node.name == "StepMultiplier":
            found.append(f"config.py:{node.lineno} imports StepMultiplier")
        elif isinstance(node, ast.Attribute) and node.attr in {"breakpoints", "truncation"}:
            found.append(f"config.py:{node.lineno} reads .{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
              and len(node.args) == 2 and "StepMultiplier" in ast.unparse(node.args[1])):
            found.append(f"config.py:{node.lineno} dispatches on StepMultiplier")
    assert not found, found


def test_the_path_space_does_not_reach_for_multipliers():
    # dilation builds paths from a kernel; the checks that compare a
    # conditioned transform with a multiplier operator live in inequalities
    targets = {target for module, _, target, _ in _package_imports() if module == "dilation"}
    assert "multiplier" not in targets, targets
