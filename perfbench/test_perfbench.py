"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import Tracer, layer_metrics
from worker import SRC, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _short_specs(seed: int) -> list[workloads.Spec]:
    """One small payload per traced layer: learning on both action-space
    families, the Walrasian/LP path, the closed forms and Monte Carlo, and
    the Bayesian harness."""
    shrink = {"additive_dynamics_report": {"rounds": 200},
              "andor_dynamics_report": {"rounds": 50},
              "correspondence_suite": {"instances": 12},
              "verify_andor": {"trials": 20_000}}
    specs = (workloads.mw_learning(seed)[2:] + workloads.lattice_sweep(seed)
             + workloads.closedform_mc(seed)[:1])
    return [s._replace(kwargs={**s.kwargs, **shrink.get(s.builder, {})}) for s in specs]


@pytest.fixture(scope="module")
def xp():
    sys.path.insert(0, str(SRC))
    import sfpa.experiments
    return sfpa.experiments


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_and_untraced_passes_give_identical_digests(xp):
    specs = _short_specs(workloads.SEED)
    plain = run_pass(xp, specs, "small-array")
    original = xp.walrasian_search
    with Tracer() as tracer:
        assert xp.walrasian_search is not original
        traced = run_pass(xp, specs, "small-array", tracer)
    assert xp.walrasian_search is original
    assert traced["digest"] == plain["digest"]
    assert traced["failed"] == plain["failed"]
    layers = traced["layers"]
    # every module binding is wrapped: walrasian_search reaches lp through
    # equilibrium's own copy of feasible_point
    assert layers["lp.feasible_point.calls"] > 0
    assert layers["dynamics.run_no_regret.separable.rounds"] == 200
    assert layers["dynamics.run_no_regret.explicit.rounds"] == 50
    assert layers["closedform.AtomicCDF.sample.draws"] > 0
    assert abs(layers["trace.accounted_share"] - 1.0) <= 0.05


def test_self_times_subtract_child_spans():
    tracer = Tracer()
    inner = tracer._wrap("auction.optimal_welfare", lambda: sum(range(10**5)), None, None)
    outer = tracer._wrap("experiments.outer", lambda: [inner() for _ in range(3)], None, None)
    outer()
    stats = tracer.stats
    assert stats["auction.optimal_welfare"]["calls"] == 3
    assert stats["experiments.outer"]["self_s"] == pytest.approx(
        stats["experiments.outer"]["total_s"] - stats["auction.optimal_welfare"]["total_s"])
    total = stats["experiments.outer"]["total_s"]
    assert layer_metrics(stats, total)["trace.accounted_share"] == pytest.approx(1.0)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted(trace, section):
    proc = _run("--workload", "mw-learning", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == want
    if trace == "1":
        assert result["metrics"]["dynamics.run_no_regret.explicit.actions"]["value"] == 1763


def test_operation_counts_do_not_depend_on_run_length():
    counts = set()
    for seconds in ("1", "8"):  # one pass, then several
        proc = _run("--workload", "mw-learning", "--seed", "7", "--seconds", seconds)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1


def test_known_defect_is_counted_not_hidden():
    spec = workloads.lattice_sweep(workloads.SEED)[0]
    case = {"walrasian": False, "grid_equilibrium": True, "agree": False}
    payload = {"details": [{**case, "agree": True}, case], "walrasian_welfare_optimal": True}
    failed, _, attempted = workloads.check(spec, payload)
    assert "correspondence.agree[1]" in failed and attempted == spec.kwargs["instances"] + 1
    assert workloads.known_defect(spec, payload, "correspondence.agree[1]") is not None
    other = {"walrasian": True, "grid_equilibrium": False, "agree": False}
    assert workloads.known_defect(spec, {"details": [other]}, "correspondence.agree[0]") is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "grid-exact", "--seed", "1", "--seconds", "5", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
