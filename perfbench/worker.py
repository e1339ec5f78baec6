"""One workload process: import sfpa, make the inputs, run passes to a deadline.

run.py starts this script, one process at a time; it prints one JSON
object on its last stdout line.

    worker.py WORKLOAD SEED SPAWNED DEADLINE TRACE

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts from process start. DEADLINE is the
``time.monotonic()`` after which no new pass starts; 0 means set up and
exit. TRACE 1 installs the tracer before the first pass.

A pass builds every payload of the workload, checks it and serialises it
with ``experiments.dumps_canonical``; its wall time is one ``wall_s``
sample. Library caches are cleared before each pass, so every pass does
the work a fresh process does.

After each payload the worker times the workload's reference loop, a
fixed numpy computation that does not touch sfpa, outside the pass's wall
time. A pass's ``wall_rel`` is its wall time over the median reference
time of that pass: the speed of the shared machine drifts by up to a
factor of two over minutes, and a reference loop that does the same kind
of work as the workload, timed seconds apart from its payloads, drifts
with it (README.md, "Why wall_rel").
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "sfpa" or name.startswith("sfpa."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def small_array_loop() -> float:
    """1,000 multiplicative-weights updates over 21 actions against a fixed
    payoff matrix: small-array numpy work driven from Python, like
    learning's per-round updates. About 10 ms on the baseline machine."""
    payoff = np.sin(np.arange(21 * 21, dtype=float)).reshape(21, 21)
    weights = np.ones(21)
    total = 0.0
    for t in range(1000):
        utility = payoff @ (weights / weights.sum())
        weights = weights * np.exp(0.05 * (utility - utility.max()))
        total += float(utility[t % 21])
    return total


def large_array_loop() -> float:
    """Draw, sort and sum 2e6 uniforms: memory-bound whole-array numpy work,
    like the welfare scans and Monte Carlo estimators. About 45 ms on the
    baseline machine."""
    draws = np.random.default_rng(7).random(2_000_000)
    return float(np.sort(draws)[::1000].sum() + np.cumsum(draws)[-1])


REFERENCES = {"small-array": small_array_loop, "large-array": large_array_loop}


def reference_s(reference: str) -> float:
    """Wall time of one run of the named reference loop."""
    start = time.perf_counter()
    if not math.isfinite(REFERENCES[reference]()):
        raise RuntimeError(f"{reference} reference loop diverged")
    return time.perf_counter() - start


def run_pass(xp, specs, reference: str, tracer=None) -> dict:
    """Build, check and serialise every payload once; time it, and time the
    reference loop after each payload."""
    _clear_caches()
    if tracer is not None:
        tracer.reset()
    digest = hashlib.sha256()
    failed, known, missed, attempted = [], {}, [], 0
    wall, refs = 0.0, []
    for spec in specs:
        start = time.perf_counter()
        try:
            text = xp.dumps_canonical(getattr(xp, spec.builder)(**spec.kwargs))
            payload = json.loads(text)  # checks read what a consumer of the report reads
        except Exception:  # a build that raises fails its operations; keep going
            traceback.print_exc()
            payload, text = None, "build raised"
        digest.update(f"{spec.name}\n{text}\n".encode())
        bad, miss, count = workloads.check(spec, payload)
        attempted += count
        failed += bad
        missed += miss
        for op in bad:
            defect = workloads.known_defect(spec, payload, op)
            if defect is not None:
                known[op] = defect
        wall += time.perf_counter() - start
        refs.append(reference_s(reference))
    out = {"wall_s": wall, "wall_rel": wall / statistics.median(refs),
           "elapsed_s": wall + sum(refs), "digest": digest.hexdigest(), "attempted": attempted,
           "failed": failed, "known": known, "ci_missed": missed}
    if tracer is not None:
        from tracer import layer_metrics
        out["layers"] = layer_metrics(tracer.stats, wall)
        out["layers"]["closedform.mc_ci_misses"] = len(missed)
    return out


def main(argv: list[str]) -> int:
    workload, seed, spawned, deadline, trace = (argv[1], int(argv[2]), float(argv[3]),
                                                float(argv[4]), argv[5] == "1")
    sys.path.insert(0, str(SRC))
    import sfpa.experiments as xp
    imported = time.monotonic()
    if Path(xp.__file__).resolve().parent != SRC / "sfpa":
        print(f"sfpa was imported from {xp.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    specs = workloads.WORKLOADS[workload](seed)
    ready = time.monotonic()
    setup = {"import_s": imported - spawned, "inputs_s": ready - imported,
             "setup_s": ready - spawned}
    if deadline == 0:
        print(json.dumps({"setup": setup}))
        return 0

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    passes = []
    while True:
        passes.append(run_pass(xp, specs, workloads.REFERENCE[workload], tracer))
        if len(passes) == 1:  # later passes can only add allocator slack
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if time.monotonic() + typical > deadline:
            break

    import scipy
    first = passes[0]["digest"]
    mismatched = sum(p["digest"] != first for p in passes[1:])
    known = passes[0]["known"]
    unknown = sorted({op for p in passes for op in p["failed"] if op not in p["known"]})
    result = {
        "setup": setup,
        "wall_s": [p["wall_s"] for p in passes],
        "wall_rel": [p["wall_rel"] for p in passes],
        "digest": first,
        # Operations are counted once per run, so that attempted and failed
        # depend on the seed only, not on how many passes fit in the time.
        # Later passes are covered by one more operation: every digest
        # equals the first, hence every payload (and check) is the same.
        "attempted": passes[0]["attempted"] + 1,
        "failed": len(passes[0]["failed"]) + (mismatched > 0),
        "digest_mismatches": mismatched,
        "known_failures": known,
        "unknown_failures": unknown,
        "ci_missed": passes[0]["ci_missed"],
        "peak_rss_mb": peak_rss_mb,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        from tracer import median_metrics
        result["layers"] = median_metrics([p["layers"] for p in passes])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
