"""Imports inside the package follow one direction: no module reaches up.

The order is space -> spectral -> semigroup -> multiplier -> dilation ->
inequalities -> suites -> config/runner -> cli; a module may import its own
rank or below, and only at module level, never deferred inside a function.
No module takes another module's private (underscore) name.  The package
publishes the ``__all__`` of the six layers below the suites, and nothing else.
Outside the package, a module imports numpy and the standard library only.
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
    "space": 0, "spectral": 1, "semigroup": 2, "multiplier": 3, "dilation": 4,
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
