"""Benchmark workloads: inputs made from a seed, and the checks on their payloads.

A workload is a list of payload specs: a payload name, the builder in
``sfpa.experiments`` that makes it, and the keyword inputs the builder
gets. The program receives only these inputs. Each builder has a check
that turns its payload into operations, one deterministic predicate each,
and into statistical confidence-interval checks, which miss about 1% of
the time by design and so are counted apart from failures.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md beside this file.
"""

from __future__ import annotations

import math
from typing import NamedTuple

SEED = 20260809  # the acceptance suite's seed, used when none is given

# Run lengths of the learning workload: the 5:1 ratio of separable to
# explicit rounds of three additive replicates and one AND-OR run, in passes
# short enough for about a hundred in a run (README.md, "Why the fastest
# pass").
ADDITIVE_ROUNDS = 1000
ANDOR_ROUNDS = 200
TRIALS = 1_000_000
INSTANCES = 200

GAP_TOL = 1e-6     # analytic best-response gaps (acceptance C1)
FORM_TOL = 1e-12   # closed-form identities (acceptance C2)
PRICE_TOL = 1e-9   # grid-game Walrasian prices (acceptance C5)
CCE_TOL = 1e-7     # counterfactual recomputation drift (verify_cce's per-round tol)


class Spec(NamedTuple):
    name: str
    builder: str
    kwargs: dict


def mw_learning(seed: int) -> list[Spec]:
    """Acceptance C7 shape: three additive replicates plus one AND-OR run."""
    specs = [Spec(f"additive[{i}]", "additive_dynamics_report",
                  {"n": 3, "m": 3, "rounds": ADDITIVE_ROUNDS, "seed": seed + i,
                   "grid_step": 0.05}) for i in range(3)]
    specs.append(Spec("andor", "andor_dynamics_report",
                      {"m": 2, "v": 1.0, "rounds": ANDOR_ROUNDS, "seed": seed}))
    return specs


def grid_exact(seed: int) -> list[Spec]:
    """Acceptance C5: the l=3 grid game (n=6, m=9)."""
    return [Spec("grid", "grid_game_report", {"side": 3, "trials": TRIALS, "seed": seed})]


def lattice_sweep(seed: int) -> list[Spec]:
    """Acceptance C6 at the given seed, plus C8."""
    return [Spec("correspondence", "correspondence_suite",
                 {"instances": INSTANCES, "seed": seed, "grid_step": 0.05}),
            Spec("bayes", "bayes_report", {"grid_step": 0.05})]


def closedform_mc(seed: int) -> list[Spec]:
    """Acceptance C1 to C4."""
    specs = [Spec(f"andor[m={m},v={v:.4g}]", "verify_andor",
                  {"m": m, "v": v, "grid_step": 1e-3, "trials": TRIALS, "seed": seed + m,
                   "mc_points": 1})
             for m in (2, 3, 4, 8) for v in (1.0 / m, 2.0 / m, 1.0)]
    specs.append(Spec("triangle", "verify_triangle", {"points": 500}))
    specs += [Spec(f"single_minded[k={k},d={d}]", "verify_single_minded", {"k": k, "d": d})
              for k, d in ((2, 2), (3, 2), (2, 3), (3, 3))]
    for name, v in (("poa", 0.25), ("pos", math.sqrt(math.log2(16) / 16))):
        specs.append(Spec(name, "poa_report", {"m": 16, "v": v, "trials": TRIALS, "seed": seed}))
    return specs


def verify_suite(seed: int) -> list[Spec]:
    """Acceptance C1 to C6 and C8: the three workloads below in one pass."""
    return grid_exact(seed) + lattice_sweep(seed) + closedform_mc(seed)


# BENCHMARK.json gates mw-learning and verify-suite. The three parts of
# verify-suite also run on their own, to see one mechanism at a time.
WORKLOADS = {"mw-learning": mw_learning, "verify-suite": verify_suite,
             "grid-exact": grid_exact, "lattice-sweep": lattice_sweep,
             "closedform-mc": closedform_mc}
SINGLE = ("mw-learning", "grid-exact", "lattice-sweep", "closedform-mc")  # --workload all

# The reference loop (worker.py) each workload's wall_rel is measured in.
# The machine's speed drifts differently for interpreter-bound small-array
# work and for memory-bound whole-array work, so each workload gets the loop
# that does its dominant kind of work (README.md, "Why wall_rel").
REFERENCE = {"mw-learning": "small-array", "lattice-sweep": "small-array",
             "verify-suite": "large-array", "grid-exact": "large-array",
             "closedform-mc": "large-array"}


# ---------------------------------------------------------------------------
# Checks. Each takes a payload and its spec and returns (operations,
# ci_checks): lists of (name, predicate), a predicate being a thunk. A
# predicate that raises (as when the build raised and the payload is None)
# is false.

def _dynamics(p, spec):
    ops = [("regret_within_envelope",
            lambda: all(r <= e for r, e in zip(p["regret"], p["regret_envelope"], strict=True))),
           ("cce_recompute_drift", lambda: p["cce_recompute_drift"] <= CCE_TOL),
           ("bound_general_ok", lambda: p["welfare"]["bound_general_ok"] is True)]
    if spec.builder == "additive_dynamics_report":
        ops.append(("bound_beta_ok", lambda: p["welfare"]["bound_beta_ok"] is True))
    else:
        ops.append(("and_support_ok", lambda: p["and_support_ok"] is True))
    return ops, []


def _grid(p, spec):
    side = spec.kwargs["side"]
    ops = [("walrasian_prices_all_1",
            lambda: p["walrasian_exists"]
            and max(abs(q - 1.0) for q in p["walrasian_prices"]) <= PRICE_TOL),
           ("opt", lambda: p["opt"] == side * side)]
    ci = [("expected_satisfied", lambda: p["expected_satisfied"] <= 2.0 + p["satisfied_ci99"]),
          ("empirical_poa", lambda: p["empirical_poa"] >= side / 2 - 1e-3)]
    return ops, ci


def _correspondence(p, spec):
    ops = [(f"agree[{i}]", lambda i=i: p["details"][i]["agree"] is True)
           for i in range(spec.kwargs["instances"])]
    ops.append(("walrasian_welfare_optimal", lambda: p["walrasian_welfare_optimal"] is True))
    return ops, []


def _bayes(p, spec):
    def ratio_ok():
        w = p["two_type"]["welfare"]
        slack = 2.0 * (sum(w["avg_gaps"]) + 2 * 1 * w["grid_step"])
        return w["ratio"] <= 4.0 + slack / w["expected_welfare"]
    return [("degenerate_exactly_equal", lambda: p["degenerate"]["exactly_equal"] is True),
            ("bne_found", lambda: p["two_type"]["bne_found"] is True),
            ("max_gap_zero", lambda: p["two_type"]["max_gap"] == 0.0),
            ("bound_beta_ok", lambda: p["two_type"]["welfare"]["bound_beta_ok"] is True),
            ("ratio_within_4_plus_slack", ratio_ok)], []


def _andor(p, spec):
    ops = [("and_gap", lambda: p["and_gap"] <= GAP_TOL),
           ("or_gap", lambda: p["or_gap"] <= GAP_TOL)]
    ci = [(f"mc[{j}]", lambda j=j: p["mc_checks"][j]["ok"] is True)
          for j in range(2 * spec.kwargs["mc_points"])]
    return ops, ci


def _triangle(p, spec):
    return [("formula_error", lambda: p["max_formula_error"] <= FORM_TOL),
            ("diagonal_zero", lambda: p["max_abs_on_diagonal"] <= FORM_TOL)], []


def _single_minded(p, spec):
    return [("max_utility", lambda: p["max_utility"] <= FORM_TOL),
            ("diagonal_zero", lambda: p["max_abs_on_diagonal"] <= FORM_TOL),
            ("off_diagonal_negative", lambda: p["max_off_diagonal"] < -FORM_TOL)], []


def _poa(p, spec):
    def welfare_bound():
        if spec.name == "poa":  # acceptance C3
            return p["welfare"] <= p["welfare_bound_poa"]
        return p["welfare"] <= p["welfare_bound_pos"] + p["ci99"]  # acceptance C4
    ci = [("welfare_bound", welfare_bound),
          ("ci99_width", lambda: p["ci99"] <= 0.005),
          ("and_zero_bid_freq",
           lambda: abs(p["and_zero_bid_freq"] - p["and_zero_bid_prob"]) <= 0.005)]
    return [("support_check_ok", lambda: p["support_check_ok"] is True)], ci


CHECKS = {"additive_dynamics_report": _dynamics, "andor_dynamics_report": _dynamics,
          "grid_game_report": _grid, "correspondence_suite": _correspondence,
          "bayes_report": _bayes, "verify_andor": _andor, "verify_triangle": _triangle,
          "verify_single_minded": _single_minded, "poa_report": _poa}


def _holds(predicate) -> bool:
    try:
        return bool(predicate())
    except (KeyError, IndexError, TypeError, ValueError):
        return False


def check(spec: Spec, payload) -> tuple[list[str], list[str], int]:
    """Names of the failed operations and of the missed CI checks of one
    payload, and the number of operations attempted."""
    ops, ci = CHECKS[spec.builder](payload, spec)
    failed = [f"{spec.name}.{name}" for name, pred in ops if not _holds(pred)]
    missed = [f"{spec.name}.{name}" for name, pred in ci if not _holds(pred)]
    return failed, missed, len(ops)


def known_defect(spec: Spec, payload, op: str) -> str | None:
    """The documented defect a failed operation matches, or None.

    Only one signature is known: a correspondence instance on which no
    Walrasian equilibrium was found while the exact (eps = 0) common-price
    scan found a grid equilibrium (README.md, known defect 1).
    """
    if spec.builder != "correspondence_suite" or ".agree[" not in op:
        return None
    case = payload["details"][int(op.rsplit("[", 1)[1].rstrip("]"))]
    if case["walrasian"] is False and case["grid_equilibrium"] is True:
        return "lattice-no-walrasian-but-grid-equilibrium"
    return None
