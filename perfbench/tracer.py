"""Outside-in span tracer for the sfpa layers.

The tracer wraps selected public functions of the library from the
benchmark's side; no library code changes. Three details matter:

- ``from .x import f`` copies the name ``f`` into every importing module,
  so every module binding of a wrapped function is replaced, not only the
  one in its defining module.
- Methods (``AtomicCDF.sample`` and ``AtomicCDF.quantile``) are wrapped on
  the class.
- Counts are computed from each call's inputs (n^m, LP rows, action counts,
  trials), never read from library internals.

A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans add up to the time covered by the
outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _assignments(args, kwargs, result):
    vals = args[0]
    return {"work": len(vals) ** vals[0].m}


def _lp(args, kwargs, result):
    return {"work": len(args[0]), "hits": int(result is None)}


def _found(args, kwargs, result):
    return {"hits": int(result is not None)}


def _draws(args, kwargs, result):
    return {"work": int(_arg(args, kwargs, 2, "size"))}


def _trials(args, kwargs, result):
    return {"work": int(_arg(args, kwargs, 3, "trials"))}


def _bytes(args, kwargs, result):
    return {"work": len(result)}


def _learning(args, kwargs, result):
    game = args[0]
    explicit = _learning_family(args, kwargs) == "explicit"
    return {"work": int(_arg(args, kwargs, 1, "rounds")),
            "hits": sum(sp.count for sp in game.spaces) if explicit else 0}


def _learning_family(args, kwargs):
    """Mirror of run_no_regret's dispatch, read from the game's action spaces."""
    game = args[0]
    grid = sys.modules["sfpa.dynamics"].SeparableGrid
    separable = len(game.vals) > 1 and all(isinstance(sp, grid) for sp in game.spaces)
    return "separable" if separable else "explicit"


# (module, attribute path, counter hook, label suffix hook)
TARGETS = [
    ("sfpa.auction", "optimal_welfare", _assignments, None),
    ("sfpa.auction", "optimal_allocations", _assignments, None),
    ("sfpa.equilibrium", "walrasian_search", _found, None),
    ("sfpa.equilibrium", "walrasian_check", None, None),
    ("sfpa.equilibrium", "common_price_scan", None, None),
    ("sfpa.equilibrium", "common_price_gap", None, None),
    ("sfpa.equilibrium", "walrasian_near", None, None),
    ("sfpa.equilibrium", "best_response_gap", None, None),
    ("sfpa.lp", "feasible_point", _lp, None),
    ("sfpa.closedform", "AtomicCDF.sample", _draws, None),
    ("sfpa.closedform", "AtomicCDF.quantile", None, None),
    ("sfpa.closedform", "andor_utility_mc", _trials, None),
    ("sfpa.closedform", "andor_equilibrium_welfare", None, None),
    ("sfpa.dynamics", "run_no_regret", _learning, _learning_family),
    ("sfpa.dynamics", "verify_cce", None, None),
    ("sfpa.dynamics", "trace_decomposition", None, None),
    ("sfpa.dynamics", "ccqe_welfare_ratio", None, None),
    ("sfpa.bayes", "bayes_deviation_gap", None, None),
    ("sfpa.bayes", "bayes_welfare_bounds", None, None),
    ("sfpa.rng", "rng_for", None, None),
    ("sfpa.experiments", "dumps_canonical", _bytes, None),
]

# pyify recurses once per JSON node; dumps_canonical is a target of its own.
_UNTRACED_BUILDERS = {"pyify", "dumps_canonical"}


def _builder_targets():
    """Every public function defined in sfpa.experiments (the payload builders)."""
    xp = importlib.import_module("sfpa.experiments")
    return [("sfpa.experiments", name, None, None) for name, fn in vars(xp).items()
            if inspect.isfunction(fn) and fn.__module__ == xp.__name__
            and not name.startswith("_") and name not in _UNTRACED_BUILDERS]


class Tracer:
    """Span statistics per label: calls, inclusive and self seconds, counts."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "work": 0, "hits": 0})

    def _wrap(self, label, fn, count, suffix):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = self.stats[f"{label}.{suffix(args, kwargs)}" if suffix else label]
                rec["calls"] += 1
                rec["total_s"] += elapsed
                rec["self_s"] += elapsed - child
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    rec[key] += value
            return result
        return traced

    def install(self):
        importlib.import_module("sfpa.experiments")  # loads every traced module
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sfpa" or n.startswith("sfpa.")]
        for modname, path, count, suffix in TARGETS + _builder_targets():
            layer = modname.split(".")[-1]
            label = f"{layer}.{path}"
            owner = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(label, original, count, suffix))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(label, original, count, suffix)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)
        return self

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(stats: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced workload pass."""
    def get(label, key):
        return stats[label][key] if label in stats else 0

    out = {}
    for fn in ("optimal_welfare", "optimal_allocations"):
        out[f"auction.{fn}.calls"] = get(f"auction.{fn}", "calls")
        out[f"auction.{fn}.self_s"] = get(f"auction.{fn}", "self_s")
    enumerated = get("auction.optimal_welfare", "work") + get("auction.optimal_allocations", "work")
    out["auction.assignments_enumerated"] = enumerated
    out["auction.assignments_per_s"] = _ratio(
        enumerated, out["auction.optimal_welfare.self_s"] + out["auction.optimal_allocations.self_s"])

    search = "equilibrium.walrasian_search"
    out[f"{search}.calls"] = get(search, "calls")
    out[f"{search}.self_s"] = get(search, "self_s")
    out[f"{search}.found_share"] = _ratio(get(search, "hits"), get(search, "calls"))
    for fn in ("walrasian_check", "common_price_gap", "walrasian_near"):
        out[f"equilibrium.{fn}.self_s"] = get(f"equilibrium.{fn}", "self_s")
    for fn in ("common_price_scan", "best_response_gap"):
        out[f"equilibrium.{fn}.calls"] = get(f"equilibrium.{fn}", "calls")
        out[f"equilibrium.{fn}.self_s"] = get(f"equilibrium.{fn}", "self_s")

    lp = "lp.feasible_point"
    calls = get(lp, "calls")
    out[f"{lp}.calls"] = calls
    out[f"{lp}.self_s"] = get(lp, "self_s")
    out[f"{lp}.ms_per_call"] = 1e3 * _ratio(get(lp, "self_s"), calls)
    out[f"{lp}.rows_mean"] = _ratio(get(lp, "work"), calls)
    out[f"{lp}.infeasible_share"] = _ratio(get(lp, "hits"), calls)

    sample, mc = "closedform.AtomicCDF.sample", "closedform.andor_utility_mc"
    out[f"{sample}.draws"] = get(sample, "work")
    out[f"{sample}.self_s"] = get(sample, "self_s")
    out["closedform.AtomicCDF.quantile.self_s"] = get("closedform.AtomicCDF.quantile", "self_s")
    out["closedform.draws_per_s"] = _ratio(get(sample, "work"), get(sample, "total_s"))
    out[f"{mc}.trials"] = get(mc, "work")
    out[f"{mc}.self_s"] = get(mc, "self_s")
    out[f"{mc}.trials_per_s"] = _ratio(get(mc, "work"), get(mc, "total_s"))
    out["closedform.andor_equilibrium_welfare.self_s"] = get(
        "closedform.andor_equilibrium_welfare", "self_s")

    for family in ("separable", "explicit"):
        run = f"dynamics.run_no_regret.{family}"
        out[f"{run}.rounds"] = get(run, "work")
        if family == "explicit":
            out[f"{run}.actions"] = get(run, "hits")
        out[f"{run}.self_s"] = get(run, "self_s")
        out[f"{run}.us_per_round"] = 1e6 * _ratio(get(run, "self_s"), get(run, "work"))
    for fn in ("verify_cce", "trace_decomposition", "ccqe_welfare_ratio"):
        out[f"dynamics.{fn}.self_s"] = get(f"dynamics.{fn}", "self_s")

    for fn in ("bayes_deviation_gap", "bayes_welfare_bounds"):
        out[f"bayes.{fn}.self_s"] = get(f"bayes.{fn}", "self_s")
    out["rng.rng_for.calls"] = get("rng.rng_for", "calls")
    out["rng.rng_for.self_s"] = get("rng.rng_for", "self_s")

    dumps = "experiments.dumps_canonical"
    out["experiments.self_s"] = sum(rec["self_s"] for label, rec in stats.items()
                                    if label.startswith("experiments.") and label != dumps)
    out[f"{dumps}.self_s"] = get(dumps, "self_s")
    out[f"{dumps}.bytes"] = get(dumps, "work")
    out["trace.accounted_share"] = _ratio(sum(rec["self_s"] for rec in stats.values()), wall_s)
    return out


def median_metrics(passes: list[dict]) -> dict:
    """Per-metric median over traced passes (counts repeat exactly)."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
