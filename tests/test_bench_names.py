"""The names the benchmark's tracer wraps, and the names `sfpa` exports,
still exist: a refactor that moves one fails here, not only in the
benchmark run (`python3 -m pytest perfbench`)."""

import ast
import dataclasses
import importlib
import pathlib

import sfpa

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracer_targets() -> list:
    """perfbench/tracer.py's TARGETS, from its source: nothing is written there."""
    path = ROOT / "perfbench" / "tracer.py"
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["TARGETS"]


def test_tracer_targets_resolve():
    """A `Class.method` target is read from the class's own `__dict__`, so a
    method inherited from a base class does not resolve."""
    targets = _tracer_targets()
    assert targets
    for module, path, _, _ in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}"
            if isinstance(owner, type):
                assert part in vars(owner), f"{module}.{path}: not defined on the class itself"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"


def test_package_exports_resolve():
    tree = ast.parse((pathlib.Path(sfpa.__file__)).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    for name in names:
        assert hasattr(sfpa, name), name


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_name():
    """No `sfpa` module imports or reads another module's `_name`: a value
    one module owns (a block size, a helper) is shared under a public name,
    so patching it in its home module reaches every reader."""
    package = pathlib.Path(sfpa.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [(node.module, alias) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and (node.level or node.module == "sfpa")
                    for alias in node.names]
        aliases = {alias.asname or alias.name for module, alias in imported
                   if module in (None, "sfpa") and alias.name in modules}
        reads += [f"{path.stem}: from {module} import {alias.name}"
                  for module, alias in imported if _private(alias.name)]
        reads += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and _private(node.attr)]
    assert not reads


def test_checked_dataclasses_are_frozen():
    """Every `sfpa` dataclass whose `__post_init__` checks or converts its
    fields is frozen: a field reassigned after construction would skip it."""
    package = pathlib.Path(sfpa.__file__).parent
    thawed = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"sfpa.{path.stem}")
        thawed += [name for name, obj in vars(module).items()
                   if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                   and obj.__module__ == module.__name__ and "__post_init__" in vars(obj)
                   and not obj.__dataclass_params__.frozen]
    assert not thawed
