"""The package's public names resolve: every module's __all__ names only
attributes that exist, and every name the package root imports is one
its module exports (its __all__, or its public names when it has none),
and every function the benchmark's tracer wraps by name exists."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import ellfib

MODULES = sorted(m.name for m in pkgutil.iter_modules(ellfib.__path__))


def _star_import(module_name: str) -> set[str]:
    """The names `from module_name import *` binds; a stale __all__
    entry makes it raise AttributeError."""
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    return set(namespace) - {"__builtins__"}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"ellfib.{name}")
    declared = getattr(module, "__all__", [])
    assert [n for n in declared if not hasattr(module, n)] == []
    assert set(declared) <= _star_import(module.__name__)


def test_package_root_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(ellfib.__file__).read_text(encoding="utf-8"))
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        exported = _star_import(f"ellfib.{node.module}")
        unexported = [a.name for a in node.names if a.name not in exported]
        assert unexported == [], f"ellfib.{node.module}"


def test_traced_names_exist():
    # the benchmark's tracer wraps these functions by name; read its
    # TARGETS table without importing the benchmark
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    missing = [
        f"ellfib.{module}.{name}" for module, names in targets.items() for name in names
        if not callable(getattr(importlib.import_module(f"ellfib.{module}"), name, None))
    ]
    assert targets and missing == []
