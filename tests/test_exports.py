"""The package's public names resolve: every module's __all__ names only
attributes that exist, and every function the benchmark's tracer wraps
by name exists.  The package root imports nothing, so importing one
module loads only that module and what it imports.  No name is dead:
every import of a module is read there or exported, every exported
function or class is read by package code (or, for the few listed in
BENCHMARK_ONLY, by the benchmark), so is every classmethod and
staticmethod and every public method and property (or, for
BENCHMARK_ONLY_METHODS, by the benchmark), and every exception class
of ellfib.errors is named by some other module.  No module reads
another's private names.  Fibre types are parsed only where their text
enters the program."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import ellfib

MODULES = sorted(m.name for m in pkgutil.iter_modules(ellfib.__path__))
SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(pathlib.Path(ellfib.__path__[0]).glob("*.py"))
}


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


# The ellfib modules an import loads: readers is a leaf, and
# presentations reads its numbers without loading the parser.
LOADED = {
    "ellfib.exact_linalg": ["ellfib", "ellfib.errors", "ellfib.exact_linalg"],
    "ellfib.readers": ["ellfib", "ellfib.readers"],
    "ellfib.presentations": [
        "ellfib", "ellfib.errors", "ellfib.exact_linalg", "ellfib.poly",
        "ellfib.presentations", "ellfib.readers", "ellfib.weierstrass",
    ],
}


@pytest.mark.parametrize("module", LOADED)
def test_importing_one_module_loads_only_its_imports(module):
    # in a fresh interpreter, on the same path as this one
    run = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ellfib'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(ellfib.__path__[0]).parent)},
    )
    assert run.stdout == f"{LOADED[module]}\n"


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
BENCH = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))


def test_traced_names_exist():
    # the benchmark's tracer wraps these functions by name; read its
    # TARGETS table without importing the benchmark
    path = PERFBENCH / "tracing.py"
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


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_read():
    # a name a module imports and neither reads nor exports is dead
    unread = []
    for module, tree in SOURCES.items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{module}.{name}" for name in sorted(imported - read - _exported(tree))]
    assert unread == []


# Exported functions that only the benchmark reads: its tracer times
# them by name, so they stay until the benchmark stops naming them.
BENCHMARK_ONLY = {"exact_linalg.qz_kernel", "kodaira.reduced_pairing"}


def test_every_exported_function_and_class_is_read():
    # a function or class in a module's __all__ that no program reads is
    # dead: some package code outside its own definition (in its module
    # or another) must name it, or, for BENCHMARK_ONLY, some benchmark
    # file; tests do not count.  A member of BENCHMARK_ONLY that package
    # code reads, or the benchmark no longer names, leaves the set.
    refs = [
        (id(ref), ref.id if isinstance(ref, ast.Name) else ref.attr)
        for tree in SOURCES.values() for ref in ast.walk(tree)
        if isinstance(ref, ast.Name) and isinstance(ref.ctx, ast.Load)
        or isinstance(ref, ast.Attribute)
    ]
    unread = []
    for module, tree in SOURCES.items():
        exported = _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported:
                own = set(map(id, ast.walk(node)))
                if not any(name == node.name and at not in own for at, name in refs):
                    unread.append(f"{module}.{node.name}")
    assert sorted(unread) == sorted(BENCHMARK_ONLY)
    assert [n for n in BENCHMARK_ONLY if not re.search(rf"\b{n.split('.')[1]}\b", BENCH)] == []


def test_every_classmethod_and_staticmethod_is_read():
    # a class's classmethod or staticmethod is dead unless package code
    # outside its own body reads it as Class.name (or cls.name within the
    # class)
    reads = [
        (id(ref), ref.value.id, ref.attr)
        for tree in SOURCES.values() for ref in ast.walk(tree)
        if isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name)
    ]
    unread = []
    for module, tree in SOURCES.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            in_class = set(map(id, ast.walk(cls)))
            for method in cls.body:
                decorators = {
                    d.id for d in getattr(method, "decorator_list", ()) if isinstance(d, ast.Name)
                }
                if not decorators & {"classmethod", "staticmethod"}:
                    continue
                own = set(map(id, ast.walk(method)))
                read = any(
                    attr == method.name and at not in own
                    and (owner == cls.name or owner == "cls" and at in in_class)
                    for at, owner, attr in reads
                )
                if not read:
                    unread.append(f"{module}.{cls.name}.{method.name}")
    assert unread == []


# Public methods and properties that only the benchmark reads
BENCHMARK_ONLY_METHODS = {"exact_linalg.SmithDecomposition.V"}


def test_every_public_method_and_property_is_read():
    # a public method or property of a package class is dead unless
    # package code outside its own body reads it as an attribute of that
    # name; one that overrides a base class's attribute (argparse's
    # parse_known_args) is read through the base.  A member of
    # BENCHMARK_ONLY_METHODS that package code reads, or the benchmark no
    # longer names, leaves the set.
    reads = [
        (id(ref), ref.attr)
        for tree in SOURCES.values() for ref in ast.walk(tree) if isinstance(ref, ast.Attribute)
    ]
    unread = []
    for module, tree in SOURCES.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            bases = getattr(importlib.import_module(f"ellfib.{module}"), cls.name).__mro__[1:]
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                if any(hasattr(base, method.name) for base in bases):
                    continue
                own = set(map(id, ast.walk(method)))
                if not any(attr == method.name and at not in own for at, attr in reads):
                    unread.append(f"{module}.{cls.name}.{method.name}")
    assert sorted(unread) == sorted(BENCHMARK_ONLY_METHODS)
    assert [
        n for n in BENCHMARK_ONLY_METHODS if not re.search(rf"\.{n.split('.')[-1]}\b", BENCH)
    ] == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_name():
    # a module's _name is its own: no other ellfib module imports it
    # (from .module import _name) or reads it as module._name
    found = []
    for module, tree in SOURCES.items():
        modules = {}  # the local names bound to ellfib modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module is None:
                modules |= {a.asname or a.name: a.name for a in node.names}
            elif node.module != module:
                found += [f"{module}: from .{node.module} import {a.name}"
                          for a in node.names if _private(a.name)]
        found += [
            f"{module}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and modules.get(node.value.id, module) != module and _private(node.attr)
        ]
    assert found == []


# Where a fibre type's text enters the program: the command-line
# arguments, presentation files and Miranda's list of fixed pairs.
TYPE_TEXT_ENTRIES = {
    ("cli", "build_arg_parser"),
    ("presentations", "_fibre_type"),
    ("collisions", "_FIXED_PAIRS"),
}


def test_fibre_types_are_parsed_where_their_text_enters():
    # outside weierstrass, which defines it, KodairaType.parse is named
    # in each of TYPE_TEXT_ENTRIES and nowhere else, so a type read once
    # stays a KodairaType
    found = []
    for module, tree in SOURCES.items():
        if module == "weierstrass":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                where = stmt.name
            elif isinstance(stmt, ast.Assign):
                where = ", ".join(t.id for t in stmt.targets if isinstance(t, ast.Name))
            else:
                where = type(stmt).__name__
            found += [
                (module, where) for ref in ast.walk(stmt)
                if isinstance(ref, ast.Attribute) and ref.attr == "parse"
                and isinstance(ref.value, ast.Name) and ref.value.id == "KodairaType"
            ]
    assert sorted(set(found)) == sorted(TYPE_TEXT_ENTRIES)


def test_every_error_class_is_named_elsewhere():
    # an exception class that no other module raises, catches or names
    # is dead
    errors = importlib.import_module("ellfib.errors")
    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
        and value.__module__ == errors.__name__
    }
    named = set()
    for module, tree in SOURCES.items():
        if module != "errors":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name)
    assert len(classes) > 1 and sorted(classes - named) == []
