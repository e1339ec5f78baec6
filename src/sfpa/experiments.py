"""Named experiments: game builders, verification payloads, report assembly.

Every function here returns a plain-JSON payload (dicts, lists, floats)
that is byte-identical across runs for the same parameters and seed. The
CLI wraps these; the acceptance suite calls them directly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict

import numpy as np

from . import __version__, closedform as cf
from .auction import (CAP, PriorityRule, blocks, check_size, dp_pairs, expected_utilities,
                      optimal_welfare, rival_play, rule_from_json)
from .bayes import FiniteBayesianGame, bayes_deviation_gap, bayes_welfare_bounds
from .dynamics import (ExplicitActions, FiniteGame, SeparableGrid, ccqe_welfare_ratio,
                       ks_distance, run_no_regret, verify_cce)
from .equilibrium import (GRID_CAP, BidGrid, andor_gap, best_response_gap, common_price_gap,
                          common_price_scan, walrasian_search)
from .rng import rng_for
from .sets import MAX_ITEMS, full_set
from .valuations import (PROB_TOL, SCHEMA, AdditiveValuation, OrValuation, SingleMindedValuation,
                         TableValuation, Valuation, check_m, fields, valuations_from_json)


# ---------------------------------------------------------------------------
# Game builders

def andor_game(m: int, v: float) -> list[Valuation]:
    check_m(m)  # before the AND bidder's full set is formed
    return [SingleMindedValuation(m, full_set(m), 1.0), OrValuation(m, v)]


def triangle_game() -> list[Valuation]:
    return [SingleMindedValuation(3, b, 1.0) for b in (0b011, 0b110, 0b101)]


def grid_game(side: int) -> list[Valuation]:
    """side^2 items, `side` row bidders and `side` column bidders, value
    `side` each for their full line."""
    if not 1 <= side * side <= MAX_ITEMS:
        raise ValueError(f"side (--l): need 1 to {math.isqrt(MAX_ITEMS)}, the side^2 items "
                         f"at most {MAX_ITEMS}, got {side}")
    rows = [sum(1 << (i * side + j) for j in range(side)) for i in range(side)]
    cols = [sum(1 << (i * side + j) for i in range(side)) for j in range(side)]
    return [SingleMindedValuation(side * side, b, float(side)) for b in rows + cols]


def game_from_json(d) -> tuple[list[Valuation], PriorityRule]:
    fields(d, "game file", SCHEMA["game file"])
    return (valuations_from_json(d["valuations"], "valuations"),
            rule_from_json(d.get("tie_rule", {"kind": "index"})))


def build_game(name: str, m: int = 2, v: float = 1.0, side: int = 3) -> list[Valuation]:
    """The valuations of a named builtin game."""
    if name == "andor":
        return andor_game(m, v)
    if name == "triangle":
        return triangle_game()
    if name == "grid":
        return grid_game(side)
    raise ValueError(f"unknown builtin game {name!r}")


# ---------------------------------------------------------------------------
# Closed-form verification

def verify_andor(m: int, v: float, grid_step: float = 1e-3, trials: int = 0, seed: int = 0,
                 mc_points: int = 2) -> dict:
    """Best-response gaps for both AND-OR players over bids in [0, 1]; optional
    Monte Carlo cross-check of the analytic utilities at sampled deviation bids."""
    if trials:
        cf.check_count(trials)
    pair = cf.AndOrStrategyPair(m, v)
    grid = BidGrid(grid_step, 1.0)
    g_and, g_or = andor_gap(pair, "and", grid), andor_gap(pair, "or", grid)
    out = {"m": m, "v": v, "grid_step": grid_step,
           "and_gap": g_and.gap, "or_gap": g_or.gap,
           "equilibrium_utilities": list(cf.andor_equilibrium_utilities(pair)),
           "mc_checks": []}
    if trials:
        rng = rng_for(seed, "verify-andor", m)
        for p in range(mc_points):  # the AND bid, then the OR bid on item p mod m
            for role, salt, utility in (("and", 101, cf.andor_utility_and),
                                        ("or", 211, cf.andor_utility_or)):
                x = float(rng.uniform(0, pair.top))
                bids = np.full(m, x) if role == "and" else np.where(np.arange(m) == p % m, x, 0.0)
                analytic = utility(pair, bids)
                est, half = cf.andor_utility_mc(pair, role, bids, trials, seed + salt * p)
                out["mc_checks"].append({"player": role, "bid": x, "analytic": analytic,
                                         "estimate": est, "ci99": half,
                                         "ok": abs(est - analytic) <= half})
    return out


def verify_triangle(points: int = 500) -> dict:
    """Deviation utility on a points x points grid over [0, 1/2]^2 compared
    against the closed form -2(y-z)^2 (`closedform.triangle_utility`)."""
    sm = cf.SingleMindedSymmetric(2, 2)
    axis = np.linspace(0.0, 0.5, points)
    net = cf.singleminded_utility(sm, np.ix_(axis, axis))
    closed = cf.triangle_utility(axis[:, None], axis[None, :])
    return {"points": points,
            "max_formula_error": float(np.abs(net - closed).max()),
            "max_utility": float(net.max()),
            "max_abs_on_diagonal": float(np.abs(np.diagonal(net)).max())}


def verify_single_minded(k: int, d: int) -> dict:
    """Sign and diagonal-equality structure of the symmetric single-minded
    deviation utility on a 97^k grid."""
    sm = cf.SingleMindedSymmetric(k, d)
    points = 97
    check_size("k", k, BidGrid(1.0, points - 1).count, GRID_CAP, "bid vectors")  # 97 levels
    axis = np.linspace(0.0, sm.top, points)
    util = cf.singleminded_utility(sm, np.ix_(*[axis] * k))
    diag = util[tuple(np.arange(points) for _ in range(k))]
    off = util.copy()
    off[tuple(np.arange(points) for _ in range(k))] = -np.inf
    return {"k": k, "d": d, "points": points,
            "max_utility": float(util.max()),
            "max_abs_on_diagonal": float(np.abs(diag).max()),
            "max_off_diagonal": float(off.max())}


# ---------------------------------------------------------------------------
# Inefficiency experiments

def poa_report(m: int, v: float, trials: int, seed: int) -> dict:
    """Welfare of the AND-OR closed-form equilibrium vs the optimum, with
    the construction-specific bounds evaluated alongside."""
    pair = cf.AndOrStrategyPair(m, v)
    vals = andor_game(m, v)  # checks m before any trial is drawn
    opt, _ = optimal_welfare(vals)
    est = cf.andor_equilibrium_welfare(pair, trials, seed)
    support_witness = cf.and_support_sum_check(np.full(m, pair.F.hi), vals[0].value_max())
    welfare_bound_poa = 2.0 / math.sqrt(m)
    welfare_bound_pos = 3.0 * math.sqrt(math.log2(m) / m)
    return {"m": m, "v": v, "trials": trials, "seed": seed,
            "welfare": est.estimate, "ci99": est.ci99, "opt": opt,
            "poa_ratio": opt / est.estimate if est.estimate > 0 else math.inf,
            "and_zero_bid_freq": est.atom_freq, "and_zero_bid_prob": est.atom_prob,
            "welfare_bound_poa": welfare_bound_poa,
            "welfare_bound_pos": welfare_bound_pos,
            "support_check_ok": support_witness is None,
            "series": [_cdf_series("and_cdf", pair.F), _cdf_series("or_cdf", pair.G)]}


def _cdf_series(name: str, cdf: cf.AtomicCDF) -> dict:
    xs = np.linspace(cdf.lo, cdf.hi, 200)
    return {"name": name, "points": [[float(x), float(cdf.cdf(x))] for x in xs]}


def andor_welfare_sweep(ms, trials: int, seed: int) -> dict:
    """Equilibrium welfare of the bad construction (v = 1/sqrt(m)) across
    item counts, against the 2/sqrt(m) envelope."""
    if any(m < 2 for m in ms):  # before v = 1/sqrt(m) is formed
        raise ValueError(f"sweep: item counts must be >= 2, got {list(ms)}")
    rows, bound = [], []
    for m in ms:
        pair = cf.AndOrStrategyPair(m, 1.0 / math.sqrt(m))
        est = cf.andor_equilibrium_welfare(pair, trials, seed)
        rows.append([m, est.estimate])
        bound.append([m, 2.0 / math.sqrt(m)])
    return {"ms": list(ms), "trials": trials, "seed": seed,
            "series": [{"name": "welfare_vs_m", "points": rows},
                       {"name": "bound_2_over_sqrt_m", "points": bound}]}


def grid_game_report(side: int, trials: int, seed: int) -> dict:
    """Walrasian equilibrium of the side x side grid game plus Monte Carlo
    satisfied-player count under the symmetric mixed equilibrium."""
    cf.check_count(trials)
    vals = grid_game(side)
    m = side * side
    we = walrasian_search(vals)
    opt, _ = optimal_welfare(vals)
    sm = cf.SingleMindedSymmetric(side, 2, value=float(side))
    rng = rng_for(seed, "grid-game", side)
    satisfied = np.empty(trials)  # counts as float64: sums of small integers are exact
    for s in blocks(trials, 2 * side):  # a block's 2 * side draws per trial, as one draw gives them
        draws = sm.cdf.sample(rng, 2 * side * (s.stop - s.start)).reshape(-1, 2 * side)
        rows, cols = np.split(np.ascontiguousarray(draws.T), 2)  # (side, B) each
        np.add(np.add.reduce(rows > np.maximum.reduce(cols), dtype=float),
               np.add.reduce(cols > np.maximum.reduce(rows), dtype=float), out=satisfied[s])
    mean, ci = cf.mean_ci99(satisfied)
    welfare = side * mean
    return {"side": side, "m": m, "trials": trials, "seed": seed,
            "walrasian_exists": we is not None,
            "walrasian_prices": list(we.prices) if we else None,
            "opt": opt, "expected_satisfied": mean, "satisfied_ci99": ci,
            "mixed_welfare": welfare,
            "empirical_poa": opt / welfare if welfare > 0 else math.inf}


# ---------------------------------------------------------------------------
# Walrasian / pure Nash correspondence suite

_LATTICE = tuple(0.25 * k for k in range(9))  # {0, 0.25, ..., 2}


def _random_lattice_valuation(rng: np.random.Generator, m: int) -> Valuation:
    kind = rng.choice(["closure", "closure", "additive", "single_minded", "and", "or"])
    if kind == "additive":
        return AdditiveValuation(tuple(float(rng.choice(_LATTICE)) for _ in range(m)))
    if kind == "single_minded":
        bundle = int(rng.integers(1, 1 << m))
        return SingleMindedValuation(m, bundle, float(rng.choice(_LATTICE)))
    if kind == "and":
        return SingleMindedValuation(m, full_set(m), float(rng.choice(_LATTICE)))
    if kind == "or":
        items = int(rng.integers(1, 1 << m))
        return OrValuation(m, float(rng.choice(_LATTICE)), items)
    table = rng.choice(_LATTICE, size=1 << m)
    table[0] = 0.0
    for j in range(m):  # monotone closure, the max over subsets, keeps values on the lattice
        pairs = table.reshape(-1, 2, 1 << j)  # [:, 1] holds item j, [:, 0] the same bundle without
        np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return TableValuation(m, tuple(float(x) for x in table))


def correspondence_case(vals: list[Valuation], we, grid_step: float = 0.05) -> dict:
    """One instance of the Walrasian <-> grid pure-Nash correspondence, given
    the instance's `walrasian_search` result `we`.

    If a Walrasian equilibrium exists, its prices rounded up to the grid
    with its allocation must be a common-price (2 m grid_step)-equilibrium,
    whose prices are within one grid step of the equilibrium's by
    construction. If none exists, the exhaustive common-price scan must find
    no exact grid equilibrium; its deviations range over all real bids, so
    an exact hit is itself a Walrasian equilibrium. The epsilon slack only
    absorbs discretization in the first direction.
    """
    if we is not None:
        prices = grid_step * np.ceil(np.array(we.prices) / grid_step - 1e-9)  # round up
        gap = common_price_gap(vals, prices, we.allocation)
        found = gap <= 2.0 * vals[0].m * grid_step + 1e-12
        return {"walrasian": True, "grid_equilibrium": found, "grid_gap": float(gap),
                "prices_agree": bool(found), "agree": bool(found)}
    scan = common_price_scan(vals, BidGrid(grid_step, 2.0))
    return {"walrasian": False, "grid_equilibrium": bool(scan),
            "prices_agree": None, "agree": not scan}


def correspondence_suite(instances: int = 200, seed: int = 0,
                         grid_step: float = 0.05) -> dict:
    """Random small instances (n <= 3, m <= 3, lattice values): Walrasian
    existence must agree with grid pure-Nash existence on every one, and
    every found Walrasian equilibrium is welfare-optimal."""
    agree = 0
    details = []
    welfare_optimal = True
    for i in range(instances):
        rng = rng_for(seed, "correspondence", i)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        vals = [_random_lattice_valuation(rng, m) for _ in range(n)]
        we = walrasian_search(vals)
        case = correspondence_case(vals, we, grid_step)
        if we is not None:
            got = sum(v.value(we.allocation.bundle(j)) for j, v in enumerate(vals))
            welfare_optimal &= got == optimal_welfare(vals)[0]
        agree += case["agree"]
        details.append({"n": n, "m": m, **case})
    return {"instances": instances, "seed": seed, "grid_step": grid_step,
            "agreements": agree, "all_agree": agree == instances,
            "walrasian_welfare_optimal": welfare_optimal, "details": details}


# ---------------------------------------------------------------------------
# Dynamics experiments

def _learn(vals: list[Valuation], spaces: list, step: float, rounds: int, seed: int):
    """Multiplicative weights on the game of `vals` over `spaces`: the trace,
    and its final regrets beside their envelope as payload entries."""
    trace = run_no_regret(FiniteGame(vals, spaces, grid_step=step), rounds, seed)
    return trace, {"regret": [float(r) for r in trace.regret[-1]],
                   "regret_envelope": [float(e) for e in trace.regret_envelope()]}


def additive_dynamics_report(n: int, m: int, rounds: int, seed: int,
                             grid_step: float = 0.05) -> dict:
    """Multiplicative weights on a random additive-valuation game; regret
    envelope and the beta = 1 welfare bound with explicit slack."""
    check_m(m)  # m and n before the (n, m) draw and the n action families
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # each round gathers all n (n - 1) m rival bids, for beat and again for ahead
    check_size("n", n, lambda k: k * (k - 1) * m, CAP, "rival bids a round")
    check_size("m", m, lambda k: dp_pairs(n, k), CAP, "welfare-DP subset pairs")
    rng = rng_for(seed, "dynamics-weights")
    weights = 0.05 * rng.integers(4, 21, size=(n, m))  # in [0.2, 1.0]
    vals = [AdditiveValuation(tuple(map(float, w))) for w in weights]
    BidGrid(grid_step, float(weights.max(initial=0.0))).levels()  # a refusal names a step for all
    spaces = [SeparableGrid([BidGrid(grid_step, float(wij)).points() for wij in w])
              for w in weights]
    trace, regret = _learn(vals, spaces, grid_step, rounds, seed)
    within = all(r <= e for r, e in zip(regret["regret"], regret["regret_envelope"]))
    return {"n": n, "m": m, "rounds": rounds, "seed": seed, "grid_step": grid_step,
            "weights": weights.tolist(), **regret,
            "regret_within_envelope": within,
            "cce_recompute_drift": verify_cce(trace),  # keys evaluate in order: before welfare
            "welfare": asdict(ccqe_welfare_ratio(trace, beta=1.0)),
            "series": [{"name": f"regret_p{i}",
                        "points": [[int(t) + 1, float(trace.regret[t, i])]
                                   for t in _thin(rounds)]}
                       for i in range(n)]}


def _thin(count: int):
    """Indices of at most 200 evenly spaced points out of `count`."""
    if count <= 200:
        return range(count)
    return np.linspace(0, count - 1, 200).astype(int)


def andor_dynamics_report(m: int, v: float, rounds: int, seed: int,
                          levels: int = 41) -> dict:
    """Learning in the AND-OR game: the AND bidder over the full grid of
    levels^m bid vectors (known defect 2, the ROADMAP item "AND-OR learning
    over its documented families": the paper's AND bidder bids one level on
    every item, `levels` vectors), the OR bidder over single-item bids;
    reports KS distances of the empirical marginals against the closed-form
    CDFs. A grid past GRID_CAP vectors is refused naming m, the one size
    flag of `sfpa dynamics --mode andor`, and the largest m that fits."""
    pair = cf.AndOrStrategyPair(m, v)
    check_size("m", m, BidGrid(1.0, levels - 1).count, GRID_CAP, "bid vectors")
    vals = andor_game(m, v)
    step = pair.top / (levels - 1)
    spaces = [ExplicitActions(BidGrid(step, pair.top).actions_for(m)),
              ExplicitActions(BidGrid(step, pair.top, "single_item").actions_for(m))]
    trace, regret = _learn(vals, spaces, step, rounds, seed)
    return {"m": m, "v": v, "rounds": rounds, "seed": seed, **regret,
            "cce_recompute_drift": verify_cce(trace),
            "welfare": asdict(ccqe_welfare_ratio(trace, beta=None)),
            "ks_and_vs_F": ks_distance(trace.bids[:, 0, 0], pair.F),
            "ks_or_vs_G": ks_distance(trace.bids[:, 1, :].max(axis=1), pair.G),
            "and_support_ok": cf.and_support_sum_check(
                trace.bids[:, 0, :], vals[0].value_max()) is None}


def single_item_dynamics_report(values: tuple, rounds: int, seed: int,
                                grid_step: float = 0.1) -> dict:
    """One-item sanity game: play concentrates near the Walrasian price."""
    check_size("values", len(values), lambda k: k * (k - 1), CAP, "rival bids a round")
    vals = [AdditiveValuation((float(x),)) for x in values]
    grid = BidGrid(grid_step, float(max(values)))
    spaces = [ExplicitActions(grid.actions_for(1)) for _ in values]
    trace, regret = _learn(vals, spaces, grid_step, rounds, seed)
    tail = trace.bids[-max(1, rounds // 10):]
    return {"values": list(map(float, values)), "rounds": rounds, "seed": seed,
            "tail_mean_price": float(tail.max(axis=1).mean()),
            "welfare": asdict(ccqe_welfare_ratio(trace, beta=1.0)), **regret}


# ---------------------------------------------------------------------------
# Bayesian experiments

def two_type_bne_game(grid_step: float = 0.05):
    """Product prior, two additive types per player, supports separated so
    the discretized game has a pure Bayesian Nash equilibrium."""
    grid = BidGrid(grid_step, 1.0)
    acts = grid.actions_for(1)
    types = [[AdditiveValuation((0.8,)), AdditiveValuation((1.0,))],
             [AdditiveValuation((0.2,)), AdditiveValuation((0.4,))]]
    bg = FiniteBayesianGame(types, np.full((2, 2), 0.25), [acts, acts])
    return bg, acts


def exact_two_type_bne(bg: FiniteBayesianGame, acts: np.ndarray):
    """Lexicographically first pure Bayesian Nash equilibrium, by exhaustive
    scan over per-type pure strategies (the harness only verifies; this is
    the deliberate reference construction for it). Both players choose
    among `acts`; every action pair is scored once under `bg.rule`, and each
    type weighs the rival's types by its conditional prior from `bg.prior`."""
    k = acts.shape[0]
    bids = np.stack(np.broadcast_arrays(acts[:, None], acts[None]), axis=2)  # (a0, a1, 2, m)
    play = rival_play(bids, bg.rule)
    # u[i][t, a, b]: player i's type t's utility for its own action a against the rival's b
    u = [np.array([expected_utilities(v.as_table(), bids[:, :, i], play, i)
                   for v in bg.type_vals[i]]) for i in range(2)]
    u[1] = u[1].transpose(0, 2, 1)
    cond = []  # cond[i][t, r]: the chance of rival type r given own type t; none at no mass
    for joint in (bg.prior, bg.prior.T):
        marg = joint.sum(axis=1, keepdims=True)
        cond.append(np.divide(joint, marg, out=np.zeros_like(joint), where=marg > PROB_TOL))

    def best(i, rival):
        """Per type of player i, its best actions against the rival's action per type."""
        eu = sum(cond[i][:, r, None] * u[i][:, :, a] for r, a in enumerate(rival))
        return [np.flatnonzero(e >= e.max() - 1e-12) for e in eu]

    for s1 in itertools.product(range(k), repeat=len(bg.type_vals[1])):
        for s0 in itertools.product(*best(0, s1)):
            if all(a in b for a, b in zip(s1, best(1, s0))):
                return [np.eye(k)[list(s0)], np.eye(k)[list(s1)]]
    return None


def bayes_report(grid_step: float = 0.05) -> dict:
    """Degenerate one-type reduction plus the two-type product-prior game
    with an exact pure Bayesian equilibrium."""
    # degenerate single-type prior: gaps equal the full-information ones
    grid = BidGrid(0.1, 1.0)
    acts = grid.actions_for(1)
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((1.0,))]
    bg0 = FiniteBayesianGame([[vals[0]], [vals[1]]], np.array([[1.0]]), [acts, acts])
    zero = np.zeros((1, acts.shape[0]))
    zero[0, 0] = 1.0
    bayes_gaps = bayes_deviation_gap(bg0, [zero, zero])
    fs = (np.ones(1), np.zeros((1, 1)))  # bid 0 for sure
    full_gaps = [best_response_gap(vals, [fs, fs], i, grid).gap for i in range(2)]
    degenerate = {"bayes_gaps": [float(g[0]) for g in bayes_gaps],
                  "full_information_gaps": [float(g) for g in full_gaps],
                  "exactly_equal": all(float(b[0]) == g
                                       for b, g in zip(bayes_gaps, full_gaps))}
    bg, acts2 = two_type_bne_game(grid_step)
    strategies = exact_two_type_bne(bg, acts2)
    if strategies is None:
        return {"degenerate": degenerate, "two_type": {"bne_found": False}}
    gaps = bayes_deviation_gap(bg, strategies)
    rep = bayes_welfare_bounds(bg, strategies, beta=1.0)
    bids = [[float(acts2[int(np.argmax(strategies[i][t])), 0]) for t in range(2)]
            for i in range(2)]
    return {"degenerate": degenerate,
            "two_type": {"bne_found": True, "grid_step": grid_step, "bids": bids,
                         "max_gap": float(max(g.max() for g in gaps)),
                         "welfare": asdict(rep)}}


# ---------------------------------------------------------------------------
# Sampling / verification front doors

def strategy_samples(name: str, m: int, v: float, k: int, d: int, count: int,
                     seed: int) -> dict:
    # about 160 bytes per drawn value: its array entry, list entry and JSON text;
    # an andor sample draws three (the AND bid, the OR item and the OR bid)
    cf.check_count(count, "count", 0, 160 * (3 if name == "andor" else 1))
    rng = rng_for(seed, "samples", name)
    if name == "andor":
        pair = cf.AndOrStrategyPair(m, v)
        y = pair.sample_and_bids(rng, count)
        items, x = pair.sample_or_bids(rng, count)
        return {"strategy": name, "m": m, "v": v, "count": count, "seed": seed,
                "and_bids": [float(t) for t in y],
                "or_items": [int(t) for t in items],
                "or_bids": [float(t) for t in x],
                "series": [_cdf_series("and_cdf", pair.F),
                           _cdf_series("or_cdf", pair.G)]}
    if name in ("triangle", "single_minded"):
        triangle = name == "triangle"
        sm = cf.SingleMindedSymmetric(2, 2) if triangle else cf.SingleMindedSymmetric(k, d)
        out = {"strategy": name, "count": count, "seed": seed,
               "bids": [float(t) for t in sm.cdf.sample(rng, count)],
               "series": [_cdf_series("cdf", sm.cdf)]}
        if not triangle:
            out.update(k=k, d=d)
        return out
    raise ValueError(f"unknown strategy {name!r}")


def verify_report(game: str, m: int, v: float, k: int, d: int, grid_step: float,
                  trials: int, seed: int) -> dict:
    """Equilibrium verification for a named closed-form strategy profile."""
    if game == "andor":
        return {"game": "andor", **verify_andor(m, v, grid_step, trials=trials,
                                                seed=seed)}
    if game == "triangle":
        tri = verify_triangle()
        sm = verify_single_minded(2, 2)
        return {"game": "triangle", **tri, "single_minded_form": sm}
    if game == "single_minded":
        return {"game": "single_minded", **verify_single_minded(k, d)}
    raise ValueError(f"no closed-form strategy for game {game!r}")


def emit_plot_data(report: dict) -> str:
    """Long-format CSV (series, x, y) of every series in a report payload."""
    lines = ["series,x,y"]
    for series in report.get("series", []):
        for x, y in series["points"]:
            lines.append(f"{series['name']},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def report_body(command: str, spec: dict, result: dict, seed=None) -> dict:
    """Self-describing deterministic payload; wall-clock is added by the CLI
    outside this body so identical runs stay byte-identical."""
    body = {"version": __version__, "command": command, "spec": spec, "result": result}
    if seed is not None:
        body["seed"] = seed
    return body


def _plain(x):
    """A numpy array or scalar as plain Python values (json's `default`)."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=_plain)
