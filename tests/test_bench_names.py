"""The names the benchmark's tracer wraps, and the names `sfpa` exports,
still exist: a refactor that moves one fails here, not only in the
benchmark run (`python3 -m pytest perfbench`). Structural guards on the
package's own source: private names, frozen checked objects, read-only
caches, item-count checks and a public name that nothing reaches."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sfpa
import sfpa.experiments as xp
from sfpa import auction, equilibrium
from sfpa.auction import PriorityRule, rule_from_json
from sfpa.bayes import bayesian_game_from_json
from sfpa.dynamics import run_no_regret

from test_auction import ITEM_COUNT_CALLS

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


def _writable_parts(obj, path: str) -> list:
    """Paths to every list, dict, set, writable array or array on a
    writable base reached from `obj` through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        base = obj.base if isinstance(obj.base, np.ndarray) else None
        return [path] if obj.flags.writeable or (base is not None and base.flags.writeable) else []
    if isinstance(obj, (list, dict, set)):
        return [path]
    if isinstance(obj, tuple):
        return [p for k, x in enumerate(obj) for p in _writable_parts(x, f"{path}[{k}]")]
    if dataclasses.is_dataclass(obj):
        return [p for f in dataclasses.fields(obj)
                for p in _writable_parts(getattr(obj, f.name), f"{path}.{f.name}")]
    return []


def test_checked_dataclasses_are_frozen(monkeypatch):
    """Every `sfpa` dataclass whose `__post_init__` checks or converts its
    fields is frozen: a field reassigned after construction would skip it.
    Checked objects, built the way the builders and loaders build them,
    hold no list, dict or writable array anywhere: an in-place write after
    the check would skip it too."""
    package = pathlib.Path(sfpa.__file__).parent
    thawed = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"sfpa.{path.stem}")
        thawed += [name for name, obj in vars(module).items()
                   if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                   and obj.__module__ == module.__name__ and "__post_init__" in vars(obj)
                   and not obj.__dataclass_params__.frozen]
    assert not thawed

    traces = []

    def learn(game, rounds, seed):
        traces.append(run_no_regret(game, rounds, seed))
        return traces[-1]

    monkeypatch.setattr(xp, "run_no_regret", learn)
    xp.additive_dynamics_report(2, 2, 20, seed=1)
    xp.andor_dynamics_report(2, 1.0, 20, seed=1, levels=5)
    xp.single_item_dynamics_report((1.0, 2.0), 20, seed=1)
    bayes_doc = {"types": [[{"kind": "additive", "weights": [1.0]}],
                           [{"kind": "additive", "weights": [0.5]}]],
                 "prior": [[1.0]], "actions": [[[0.0], [0.5]], [[0.0], [0.5]]],
                 "strategies": [[[0.5, 0.5]], [[1.0, 0.0]]],
                 "tie_rule": {"kind": "priority", "order": [[1, 0]]}}
    rule = {"kind": "randomized", "mixture": [
        {"prob": 0.5, "rule": {"kind": "index"}},
        {"prob": 0.5, "rule": {"kind": "priority", "order": [[1, 0]]}}]}
    built = {"traces": tuple(traces), "two_type_bne_game": xp.two_type_bne_game(0.05)[0],
             "bayesian_game_from_json": bayesian_game_from_json(bayes_doc)[0],
             "rule_from_json": rule_from_json(rule)}
    assert len(traces) == 3
    for name, obj in built.items():
        assert not _writable_parts(obj, name)


CACHED_SAMPLES = {  # sample arguments of every lru_cache'd function of sfpa
    "auction._rivals": (3,),
    "auction._outranks": (PriorityRule(((1, 0, 2), (2, 0, 1))), 3, 2),
    "auction._subset_pairs": (3,),
}


def test_cached_arrays_are_read_only():
    """Every `lru_cache`d function of `sfpa` returns its arrays read-only:
    one in-place write to a cached array would reach every later call. A
    cached function without an entry in `CACHED_SAMPLES` fails here."""
    package = pathlib.Path(sfpa.__file__).parent
    cached = {}
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"sfpa.{path.stem}")
        cached.update({f"{path.stem}.{name}": fn for name, fn in vars(module).items()
                       if hasattr(fn, "cache_info") and fn.__module__ == module.__name__})
    assert cached.keys() == CACHED_SAMPLES.keys()
    for name, fn in cached.items():
        assert not _writable_parts(fn(*CACHED_SAMPLES[name]), name)


def test_every_market_entry_point_checks_item_counts():
    """Every public function of `sfpa.auction` and `sfpa.equilibrium` that
    takes a market `vals` is in the call table of
    `test_mismatched_item_counts_refused_naming_the_field`, so a new entry
    point cannot skip the item-count check unseen."""
    modules = (auction, equilibrium)
    entry = {fn for module in modules for name, fn in vars(module).items()
             if inspect.isfunction(fn) and fn.__module__ == module.__name__
             and not name.startswith("_") and "vals" in inspect.signature(fn).parameters}
    assert entry == {fn for fn in ITEM_COUNT_CALLS if fn.__module__ in [m.__name__ for m in modules]}


# Where a size refusal may be raised: the one size check, the level count of
# a grid (its span can be infinite, so no cost function of it can be formed),
# the welfare DP, whose refusal names its `cap` argument and the pair count
# needed, and the maximizer limit (until the ROADMAP item on sfpa.obs).
CAP_RAISERS = {"auction.check_size", "equilibrium.BidGrid.levels",
               "auction.welfare_maximizers", "auction.optimal_allocations"}
# Module-level *CAP names: the two size caps, and the CLI's exit code of a refusal.
CAP_NAMES = {"auction.CAP", "equilibrium.GRID_CAP", "cli.EXIT_CAP"}


def test_size_refusals_go_through_one_check():
    """`raise CapExceeded` appears only in CAP_RAISERS, and no module defines
    a *CAP constant beside CAP_NAMES: a new limit is priced by
    `auction.check_size`, which solves for the value that fits, and does not
    bring back an inversion of its own."""
    package = pathlib.Path(sfpa.__file__).parent
    raisers, caps = set(), set()

    def visit(node, name):  # name: the innermost function or class around node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "CapExceeded":
                    raisers.add(name)
            defines = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{name}.{child.name}" if defines else name)

    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, path.stem)
        caps |= {f"{path.stem}.{target.id}" for stmt in tree.body
                 if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                 for node in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                 for target in ast.walk(node)
                 if isinstance(target, ast.Name) and target.id.endswith("CAP")}
    assert raisers == CAP_RAISERS
    assert caps == CAP_NAMES


def test_a_failing_property_test_is_reported(tmp_path):
    """Under the repo's warning filters, a failing @given test is reported
    with its falsifying example and the session runs on: hypothesis's
    failure report must not raise a warning that pytest turns into an
    INTERNALERROR."""
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n\n\n"
        "def test_passes():\n    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_two.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout and "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


# Public names that no `sfpa` code and no acceptance claim reads yet, each
# with the reason it stays.
UNREACHED = {
    "valuations.beta_of": "the welfare bounds' beta; the ROADMAP item on worst-case coarse "
                          "correlated equilibrium welfare gives it a caller",
    "auction.optimal_allocations": "perfbench/tracer.py wraps it until the ROADMAP item on "
                                   "sfpa.obs moves it to the tests",
    "equilibrium.walrasian_near": "perfbench/tracer.py wraps it until the ROADMAP item on "
                                  "sfpa.obs moves it to the tests",
}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The `sfpa` module a `from ... import` names, as `auction`, or "" for
    the package itself; None for anything outside `sfpa`."""
    if node.level:
        return node.module or ""
    if node.module == "sfpa" or (node.module or "").startswith("sfpa."):
        return node.module[len("sfpa."):]
    return None


def _reads(path: pathlib.Path, home: str | None) -> set:
    """(module, name) of every `sfpa` name the file at `path` reads. A bare
    name counts in a file that imports it, or that defines it at module
    level (`home`, the file's own module); `alias.name` counts where the
    alias is an imported `sfpa` module. A definition's reads of its own
    name (recursion, a class naming itself) do not count."""
    tree = ast.parse(path.read_text())
    bare, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname: a.name[len("sfpa."):] for a in node.names
                            if a.asname and a.name.startswith("sfpa.")})
        elif isinstance(node, ast.ImportFrom) and (module := _package_module(node)) is not None:
            for a in node.names:
                if module:
                    bare[a.asname or a.name] = (module, a.name)
                else:
                    modules[a.asname or a.name] = a.name
    defs = (ast.FunctionDef, ast.ClassDef)
    if home:
        bare.update({stmt.name: (home, stmt.name) for stmt in tree.body
                     if isinstance(stmt, defs) and stmt.name not in bare})
    read = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, defs) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                read.add(bare.get(node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add((modules[node.value.id], node.attr))
    return read - {None}


def test_every_public_name_is_reached():
    """Every public module-level function and class of `sfpa` (`__init__`
    aside) is read by other `sfpa` code or by tests/test_acceptance.py, so
    it serves a command or a claim; `UNREACHED` lists the exceptions. A
    name re-exported through another module resolves to its definition."""
    package = pathlib.Path(sfpa.__file__).parent
    files = [path for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    defined = {}
    for path in files:
        module = importlib.import_module(f"sfpa.{path.stem}")
        defined.update({f"{path.stem}.{stmt.name}": getattr(module, stmt.name)
                        for stmt in ast.parse(path.read_text()).body
                        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                        and not stmt.name.startswith("_")})
    reads = set().union(*(_reads(path, path.stem) for path in files),
                        _reads(ROOT / "tests" / "test_acceptance.py", None))
    reached = {id(getattr(importlib.import_module(f"sfpa.{module}"), name, None))
               for module, name in reads}
    unreached = sorted(name for name, obj in defined.items() if id(obj) not in reached)
    assert unreached == sorted(UNREACHED)


READ_CASES = {
    "from_import": ("from sfpa.auction import wins\nwins(1)\n", None,
                    {("auction", "wins")}),
    "relative_import_alias": ("from .auction import wins as w\nw()\n", "closedform",
                              {("auction", "wins")}),
    "module_aliases": ("from sfpa import auction as a\nimport sfpa.equilibrium as eq\n"
                       "a.wins\neq.demand\n", None,
                       {("auction", "wins"), ("equilibrium", "demand")}),
    "local_variable": ("def score():\n    outcome = 1\n    return outcome\n", "closedform",
                       set()),
    "own_recursion": ("def f(n):\n    return f(n - 1)\n", "lp", set()),
    "sibling_definition": ("def f():\n    pass\n\n\ndef g():\n    return f()\n", "lp",
                           {("lp", "f")}),
    "outside_package": ("import numpy as np\nfrom math import inf\nnp.sum\ninf\n", None, set()),
}


@pytest.mark.parametrize("case", READ_CASES)
def test_reads_counts_only_package_names(case, tmp_path):
    """The reachability guard's reader on small sources: imported and
    aliased `sfpa` names count, a local variable that shares a public
    name, a definition's read of itself and names from outside `sfpa` do
    not."""
    source, home, expected = READ_CASES[case]
    path = tmp_path / "module.py"
    path.write_text(source)
    assert _reads(path, home) == expected
