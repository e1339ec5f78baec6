"""The names the benchmark's tracer wraps, and the names `sfpa` exports,
still exist: a refactor that moves one fails here, not only in the
benchmark run (`python3 -m pytest perfbench`)."""

import ast
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
    targets = _tracer_targets()
    assert targets
    for module, path, _, _ in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"


def test_package_exports_resolve():
    tree = ast.parse((pathlib.Path(sfpa.__file__)).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    for name in names:
        assert hasattr(sfpa, name), name
