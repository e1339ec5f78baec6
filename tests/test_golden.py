"""Golden digests: SHA-256 of canonical payloads from every consumer of the
first-price kernel, the bundle costs and the demand-constraint LP rows
(learning, grid Nash search, best-response gaps, the Walrasian/common-price
correspondence and the Bayesian harness), and from
the closed-form Monte Carlo: the AND-OR utility cross-checks of
`verify_andor`, the equilibrium welfare and CDF series of `poa_report`, and
the symmetric-equilibrium draws of `grid_game_report`.

A refactor of those shared pieces must leave every byte unchanged; a digest
may change only with a CHANGES.md entry saying why. The digests hold for
one floating-point environment (recorded with Python 3.11 and numpy 2.4;
the LP-backed ones were first taken with scipy 1.17's HiGHS, and the
in-library simplex of `sfpa.lp` gives the same bytes). Additive and XOS
value tables are sums formed by `bundle_costs` in ascending item order, not
by a BLAS dot product, so they no longer depend on the BLAS kernel's
summation order. They also hold with numpy's AVX-512 kernels disabled, as
a fresh process checks on a CPU that has them.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from sfpa import auction, experiments as xp
from sfpa.auction import PriorityRule
from sfpa.bayes import bayes_deviation_gap, bayes_welfare_bounds
from sfpa.dynamics import (ExplicitActions, FiniteGame, SeparableGrid,
                           ccqe_welfare_ratio, run_no_regret, verify_cce)
from sfpa.equilibrium import BidGrid, best_response_gap, pure_nash_search
from sfpa.sets import full_set
from sfpa.valuations import AdditiveValuation, SingleMindedValuation

from oracles import best_response_strategies

SEED = 20260809


def mixed_game_payload():
    vals = [AdditiveValuation((0.4, 0.4)), SingleMindedValuation(2, full_set(2), 1.0)]
    sep = SeparableGrid([np.arange(0, 0.4 + 1e-12, 0.1)] * 2)
    uni = ExplicitActions(BidGrid(0.1, 0.5, "uniform_on_bundle").actions_for(2, full_set(2)))
    trace = run_no_regret(FiniteGame(vals, [sep, uni], grid_step=0.1), 2000, SEED)
    cum = [np.where(np.isfinite(c), c, 0.0) for c in trace.cum_counterfactual]
    return {"bids": trace.bids, "utilities": trace.utilities, "regret": trace.regret,
            "cum": cum,
            "drift": verify_cce(trace), "welfare": asdict(ccqe_welfare_ratio(trace))}


def separable_priority_payload():
    rule = PriorityRule(((2, 0, 1), (1, 2, 0)))
    vals = [AdditiveValuation((0.6, 0.4)), AdditiveValuation((0.5, 0.5)),
            AdditiveValuation((0.4, 0.6))]
    spaces = [SeparableGrid([np.arange(0, w + 1e-12, 0.1) for w in v.weights])
              for v in vals]
    trace = run_no_regret(FiniteGame(vals, spaces, rule, grid_step=0.1), 1500, SEED)
    return {"bids": trace.bids, "utilities": trace.utilities, "regret": trace.regret,
            "drift": verify_cce(trace), "welfare": asdict(ccqe_welfare_ratio(trace, 1.0))}


def pure_nash_payload():
    out = {}
    for name, rule, step in (("index", PriorityRule(), 0.1),
                             ("priority", PriorityRule(((1, 0), (0, 1))), 0.2)):
        eqs = pure_nash_search(xp.andor_game(2, 0.4), BidGrid(step, 1.0), rule)
        out[name] = [{"bids": e.bids, "gap": e.gap} for e in eqs]
    return out


def best_response_payload():
    vals = xp.andor_game(2, 1.0)
    exact = best_response_gap(
        vals, [([0.5, 0.5], [[0.0, 0.0], [0.3, 0.3]]), ([0.25, 0.75], [[0.2, 0.0], [0.0, 0.4]])],
        1, BidGrid(0.1, 0.6), PriorityRule(((1, 0), (0, 1))))
    return {"exact": asdict(exact)}


def bayes_priority_payload():
    bg, acts = xp.two_type_bne_game(0.1)
    bg = replace(bg, rule=PriorityRule(((1, 0),)))
    k = acts.shape[0]
    start = [np.full((2, k), 1.0 / k), np.full((2, k), 1.0 / k)]
    strategies, fixed = best_response_strategies(bg, start, sweeps=5)
    return {"fixed": fixed, "strategies": strategies,
            "gaps": bayes_deviation_gap(bg, strategies),
            "welfare": asdict(bayes_welfare_bounds(bg, strategies, beta=1.0))}


PAYLOADS = {
    "andor_mc_m2": lambda: xp.verify_andor(2, 1.0, trials=200_000, seed=SEED, mc_points=2),
    "andor_mc_m8": lambda: xp.verify_andor(8, 0.5, trials=200_000, seed=SEED, mc_points=2),
    "poa_report": lambda: xp.poa_report(16, 0.25, 200_000, SEED),
    "grid_game_report": lambda: xp.grid_game_report(2, 200_000, SEED),
    "additive_dynamics": lambda: xp.additive_dynamics_report(3, 3, 2000, SEED),
    "andor_dynamics": lambda: xp.andor_dynamics_report(2, 1.0, 300, SEED, levels=11),
    "mixed_game": mixed_game_payload,
    "separable_priority": separable_priority_payload,
    "correspondence": lambda: xp.correspondence_suite(60, 0),
    "bayes_report": lambda: xp.bayes_report(0.05),
    "bayes_priority": bayes_priority_payload,
    "pure_nash": pure_nash_payload,
    "best_response": best_response_payload,
}

GOLDEN = {
    "additive_dynamics": "640bd5bde1903bb7267049762db2029bae68ec818b23ebee71c0eb4dafc31d9c",
    "andor_dynamics": "1a19ce3ee00f561ea5f85f2a9f255cf9a8415506ed18bc9012a915cdf8622748",
    "andor_mc_m2": "dffa1b8d3a4541f61f610d2bb424f971de7399020b07841e878479b75c0e07e4",
    "andor_mc_m8": "e7528f117b9274d2d4624ff026d6483b54d3235658cdafc68fdfdf473bd20da6",
    "bayes_priority": "97f1a92fbef246bd0584afef75dd11b2c9f4ee5089fe7dd71fe6d6a1b1c3de66",
    "bayes_report": "4877cccdb5e6fb17bfbec1defcf0e2ae73c84943882d8b170a473910983cc724",
    "best_response": "8394414e46529105670e1082e6ae735b0c08d1f42f943b0339eabaea3dd5e94f",
    "correspondence": "366394dd705d3d088f6d1d01491cff8d028f96c5415b2ef13059cc8644d1b139",
    "grid_game_report": "94d84d1394a9bb013fa3750f4d84fc7efff378f36fe3a402a68c34c3bc6bd755",
    "mixed_game": "effb80c2df40863c469f39e25d0795fb10547628ca65f6aef9103e8ca7027fd7",
    "poa_report": "e37b96bc7a74bd298d147c09db03219f0a531de2cfc1d1383dad3b973fdd34af",
    "pure_nash": "2557b48fe09f883a5666f601cb5cb920e4daa393b651185b53bad74a05fc544d",
    "separable_priority": "9cdb1928fc79084c2e25b1fa80f9bbea026facd90696c051152c2ba1267c53ee",
}


def digest(name):
    return hashlib.sha256(xp.dumps_canonical(PAYLOADS[name]()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_golden_digest(name):
    assert digest(name) == GOLDEN[name]


@pytest.mark.parametrize("block", (257, 4099))
@pytest.mark.parametrize("name", ("poa_report", "grid_game_report", "best_response"))
def test_golden_digest_holds_for_other_blocks(name, block, monkeypatch):
    """The Monte Carlo and best-response payloads, rebuilt with other
    `auction.BLOCK` budgets (so other slice boundaries in the blocked
    loops), give the same pinned bytes."""
    monkeypatch.setattr(auction, "BLOCK", block)
    assert digest(name) == GOLDEN[name]


# Run in a fresh interpreter: scipy.optimize stays unloaded through the
# imports, every golden payload (the LP-backed correspondence one included),
# `sfpa walrasian` and the XOS supporting-clause LPs of `beta_of`.
NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import sfpa.cli, sfpa.experiments
from sfpa.valuations import OrValuation, beta_of
import test_golden
digests = {name: test_golden.digest(name) for name in sorted(test_golden.PAYLOADS)}
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert sfpa.cli.main(["walrasian", "--game", "triangle"]) == 0
assert '"exists": false' in out.getvalue()
beta_of(OrValuation(3, 0.7))
assert "scipy.optimize" not in sys.modules, "an LP loaded scipy.optimize"
print(json.dumps(digests))
"""


def _fresh(script: str, env: dict, *args: str) -> subprocess.Popen:
    """`script` started in a fresh interpreter, in tests/, with sfpa and the
    tests importable and `env` added to the environment."""
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(pathlib.Path(xp.__file__).resolve().parents[1]), str(tests)])
    return subprocess.Popen([sys.executable, "-c", script, *args], cwd=tests,
                            env={**os.environ, "PYTHONPATH": path, **env},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _digests(procs: list) -> list:
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    return [json.loads(out) for out, _ in outs]


def test_scipy_never_loads_and_digests_hold_across_hash_seeds():
    """Two fresh processes, under PYTHONHASHSEED 0 and 1 and run side by
    side, give every pinned digest without loading scipy.optimize: the LPs
    are solved in-library."""
    digests = _digests([_fresh(NO_SCIPY_SCRIPT, {"PYTHONHASHSEED": seed}) for seed in ("0", "1")])
    assert digests[0] == digests[1] == GOLDEN


# Run with the named numpy dispatch targets switched off; fails if any stays on.
NO_AVX512_SCRIPT = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
import test_golden
assert not any(__cpu_features__[t] for t in sys.argv[1:]), "a disabled target stayed on"
print(json.dumps({name: test_golden.digest(name) for name in sorted(test_golden.PAYLOADS)}))
"""


def test_digests_hold_without_avx512_kernels():
    """numpy picks its SIMD kernels by CPU. A fresh process with every
    AVX-512 target numpy dispatches on this CPU disabled
    (NPY_DISABLE_CPU_FEATURES) gives every pinned digest."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [t for t in __cpu_dispatch__
               if (t.startswith("AVX512") or t == "X86_V4") and __cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this CPU: none to disable")
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    assert _digests([_fresh(NO_AVX512_SCRIPT, env, *targets)]) == [GOLDEN]
