"""Imports inside the package follow one direction: no module reaches up.

The order is space -> spectral -> semigroup -> multiplier -> dilation ->
inequalities -> suites -> config/runner -> cli; a module may import its own
rank or below, and only at module level, never deferred inside a function.
No module takes another module's private (underscore) name.  The package
publishes the ``__all__`` of the six layers below the suites, and nothing else.
"""

import ast
import importlib
import inspect
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


def test_import_leaves_scipy_special_unloaded():
    # scipy.special costs about 0.3 s and 24 MB per process; Gamma(1 - i gamma)
    # comes from multiplier._complex_gamma instead
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = "import sys, lapmult, lapmult.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


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
