"""Reference code that only the tests call: the scalar per-class value
formulas, the scalar first-price allocation and outcome, a structural check
of the symmetric single-minded instances, the triangle's bid distribution,
the whole-array forms of the blocked Monte Carlo loops, the exhaustive
check of an XOS certificate, best-response iteration for building
Bayesian equilibria to verify, and the dense (entry, item) learning round.
`examples` sizes the property tests; `peak_traced` measures a call's
live-data peak."""

import math
import os
import tracemalloc

import numpy as np

from sfpa.auction import (TIE_TOL, Allocation, PriorityRule, RandomizedRule, blocks, bundle_masks,
                          check_bids, price_to_beat, wins)
from sfpa.bayes import FiniteBayesianGame, _conditional_utilities, check_strategies
from sfpa.closedform import (CDF_TOL, Z99, AndOrStrategyPair, AtomicCDF, SingleMindedSymmetric,
                             WelfareEstimate)
from sfpa.dynamics import FiniteGame, LearningTrace
from sfpa.rng import rng_for
from sfpa.sets import is_subset, members
from sfpa.valuations import (MONEY_TOL, AdditiveValuation, BetaCertificate,
                             OrValuation, SingleMindedValuation, TableValuation, Valuation,
                             XosValuation, bit_matrix, paid)


def examples(n: int) -> int:
    """A property test's example count: n, or 10 n under SFPA_DEEP=1, the
    deeper run to make by hand before a merge."""
    return 10 * n if os.environ.get("SFPA_DEEP") == "1" else n


def peak_traced(call) -> int:
    """The peak of bytes traced by `tracemalloc` while call() runs, its result
    included: numpy reports its buffers to `tracemalloc`, so this is the
    call's live-data peak, unlike the process's resident set."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def value_formula(v: Valuation, s: int) -> float:
    """v(s) from the class's own formula, one bundle at a time; sums run
    over the items in ascending order from 0."""
    if isinstance(v, TableValuation):
        return v.table[s]
    if isinstance(v, AdditiveValuation):
        return sum(v.weights[j] for j in members(s))
    if isinstance(v, SingleMindedValuation):
        return v.amount if is_subset(v.bundle, s) else 0.0
    if isinstance(v, OrValuation):
        return v.amount if s & v.items else 0.0
    if isinstance(v, XosValuation):
        idx = members(s)
        return max(sum(c[j] for j in idx) for c in v.clauses) if idx else 0.0
    raise TypeError(f"no formula for {type(v).__name__}")


def allocate_reference(bids, rule: PriorityRule = PriorityRule()) -> Allocation:
    """Item by item: the tied highest bidders within TIE_TOL, and of those
    the one the rule ranks first."""
    b = check_bids(bids)
    winners = []
    for j in range(b.shape[1]):
        tied = np.flatnonzero(b[:, j] >= b[:, j].max() - TIE_TOL)
        rank = rule.order[j] if rule.order is not None else range(b.shape[0])
        winners.append(int(min(tied, key=list(rank).index)))
    return Allocation(tuple(winners))


def outcome_utilities(vals: list, bids, rule=PriorityRule()) -> tuple[list, float]:
    """Each player's value of its won bundle, by `value_formula`, minus its
    winning bids summed in item order, and the welfare, the values summed in
    player order. A randomized rule weights each branch's numbers by its
    probability, adding the branches in order."""
    b = check_bids(bids)
    if isinstance(rule, RandomizedRule):
        branches = [(p, outcome_utilities(vals, b, det)) for p, det in rule.mixture]
        return ([sum(p * u[i] for p, (u, _) in branches) for i in range(len(vals))],
                sum(p * w for p, (_, w) in branches))
    alloc = allocate_reference(b, rule)
    values = [value_formula(v, alloc.bundle(i)) for i, v in enumerate(vals)]
    return ([x - sum(b[i, j] for j in members(alloc.bundle(i))) for i, x in enumerate(values)],
            sum(values))


def validate_symmetric_instance(bundles: list[int], m: int) -> tuple[int, int]:
    """Check the structural assumptions behind the symmetric equilibrium.

    Every bundle has the same size k, every item is wanted by exactly d
    players, and bundles pairwise share at most one item. Returns (k, d).
    """
    if not bundles:
        raise ValueError("no bundles")
    sizes = {b.bit_count() for b in bundles}
    if len(sizes) != 1:
        raise ValueError(f"bundle sizes differ: {sorted(sizes)}")
    k = sizes.pop()
    demand = [sum(1 for b in bundles if b >> j & 1) for j in range(m)]
    if len(set(demand)) != 1:
        raise ValueError(f"per-item demand differs: {demand}")
    d = demand[0]
    if k < 2 or d < 2:
        raise ValueError(f"closed form needs k >= 2 and d >= 2, got k={k}, d={d}")
    for i, a in enumerate(bundles):
        for b in bundles[i + 1:]:
            if (a & b).bit_count() > 1:
                raise ValueError("two bundles share more than one item")
    return k, d


def triangle_cdf() -> AtomicCDF:
    """F(x) = 2x on [0, 1/2]; atomless."""
    return AtomicCDF(0.0, 0.5, 0.0, lambda x: 2.0 * x, lambda u: u / 2.0)


def grid_satisfied(side: int, trials: int, seed: int) -> tuple[float, float]:
    """(mean, 99% CI half-width) of the grid game's satisfied-player count,
    from one draw of every trial's 2 * side bids: the whole-array form of
    experiments.grid_game_report's Monte Carlo."""
    sm = SingleMindedSymmetric(side, 2, value=float(side))
    rng = rng_for(seed, "grid-game", side)
    draws = sm.cdf.quantile(rng.random(2 * side * trials)).reshape(trials, 2 * side)
    rows, cols = draws[:, :side], draws[:, side:]
    satisfied = ((rows > cols.max(axis=1, keepdims=True)).sum(axis=1)
                 + (cols > rows.max(axis=1, keepdims=True)).sum(axis=1))
    return float(satisfied.mean()), Z99 * float(satisfied.std(ddof=1)) / math.sqrt(trials)


def andor_welfare(pair: AndOrStrategyPair, trials: int, seed: int) -> WelfareEstimate:
    """closedform.andor_equilibrium_welfare with every trial's welfare
    computed in one whole-array step."""
    rng = rng_for(seed, "andor-welfare", pair.m)
    y = pair.sample_and_bids(rng, trials)
    _, x = pair.sample_or_bids(rng, trials)
    welfare = np.where(y > x, 1.0, pair.v)
    ci = Z99 * float(welfare.std(ddof=1)) / math.sqrt(trials)
    atom_prob = 0.0 if pair.v <= pair.top + CDF_TOL else 1.0 - 1.0 / (pair.m * pair.v)
    return WelfareEstimate(float(welfare.mean()), ci, trials, seed,
                           float(np.mean(y == 0.0)), atom_prob)


def verify_beta_certificate(v: Valuation, cert: BetaCertificate, tol: float = MONEY_TOL) -> bool:
    """Check both certificate inequalities exhaustively."""
    table = v.as_table()
    bits = bit_matrix(v.m)
    for target, a in cert.clauses.items():
        if (bits @ a > table + tol).any():
            return False
        want = 0.0 if math.isinf(cert.beta) else v.value(target) / cert.beta
        if a[members(target)].sum() < want - tol:
            return False
    return True


def best_response_strategies(bg: FiniteBayesianGame, strategies: list,
                             sweeps: int = 50, players=None) -> tuple[list, bool]:
    """Iterated exact best response over pure per-type actions.

    Builds gap-0 inputs for the harness: returns the final strategy profile
    and whether it is a fixed point (a pure Bayesian Nash equilibrium of the
    finite game when every player participates). Not an equilibrium
    solver; it simply stops if the dynamics cycle. `players` restricts which
    players get updated (default: all).
    """
    strategies = [s.copy() for s in check_strategies(bg, strategies)]
    updating = range(bg.n) if players is None else players
    for _ in range(sweeps):
        changed = False
        for i, t, eu in _conditional_utilities(bg, strategies, updating):
            best = int(np.argmax(eu))
            row = np.zeros(bg.actions[i].shape[0])
            row[best] = 1.0
            if eu[best] > eu @ strategies[i][t] + 1e-12:
                strategies[i][t] = row
                changed = True
        if not changed:
            return strategies, True
    return strategies, False


def run_no_regret_dense(game: FiniteGame, rounds: int, seed: int) -> LearningTrace:
    """dynamics.run_no_regret with every entry scored on all m items: wins
    over the dense (N, m) bid rows, masked by each entry's support. The
    off-support terms of the payment fold are exact zeros, so the slot-major
    loop must give these bits."""
    if rounds < 1:
        raise ValueError("need at least one round")
    n, m = len(game.vals), game.vals[0].m
    rng = rng_for(seed, "no-regret")
    vmax = max(v.value_max() for v in game.vals)
    payoff_range = np.array([v.value_max() + sp.max_spend()
                             for v, sp in zip(game.vals, game.spaces)])
    ln_k = np.array([math.log(sp.count) for sp in game.spaces])
    eta_base = np.where(ln_k > 0, np.sqrt(ln_k) / (payoff_range / vmax), 1.0)[:, None, None]

    factors = [sp.factors for sp in game.spaces]
    nf = np.array([len(fs) for fs in factors])
    F = int(nf.max())
    filler = (np.zeros((1, m)), np.zeros(m, dtype=bool))
    flat = [(i, r, s) for i, fs in enumerate(factors) for r, s in fs + (filler,) * (F - len(fs))]
    W = max(len(r) for _, r, _ in flat)
    rows = np.concatenate([r for _, r, _ in flat])  # (N, m)
    support = np.concatenate([np.broadcast_to(s, r.shape) for _, r, s in flat])
    player = np.concatenate([np.full(len(r), i) for i, r, _ in flat])
    table_at = player << m
    table = np.concatenate([v.as_table() for v in game.vals])
    slot = np.concatenate([k * W + np.arange(len(r)) for k, (_, r, _) in enumerate(flat)])
    entry = np.full(n * F * W, -1)
    entry[slot] = np.arange(slot.size)
    valid = (entry >= 0).reshape(n, F, W)
    last = valid.sum(axis=2) - 1
    real = np.arange(F) < nf[:, None]
    base = np.arange(n * F).reshape(n, F) * W

    cum = np.where(valid, 0.0, -np.inf)
    cum_flat, draws = cum.reshape(-1), int(nf.sum())
    bids_out = np.empty((rounds, n, m))
    gains, values, tops = np.empty((3, rounds, n, F))
    step = eta_base / np.sqrt(np.arange(1.0, rounds + 1))[:, None, None, None]
    top = cum.max(axis=2, keepdims=True)
    for block in blocks(rounds, draws):
        u = np.zeros((block.stop - block.start, n, F))
        u[:, real] = rng.random((len(u), draws))
        for t, u_t in enumerate(u, block.start):
            w = np.exp(step[t] * (cum - top) / vmax)
            probs = w / w.sum(axis=2, keepdims=True)
            level = np.minimum((u_t[..., None] > probs.cumsum(axis=-1)).sum(axis=-1), last)
            chosen = entry.take(base + level)
            bids_out[t] = rows.take(chosen, axis=0).sum(axis=1)

            beat, ahead = price_to_beat(bids_out[t], game.rule)
            won = wins(rows, beat.take(player, axis=0), ahead.take(player, axis=0)) & support
            value = table.take(table_at | bundle_masks(won))
            gain = value - paid(won, rows)
            cum_flat[slot] += gain
            gains[t] = gain.take(chosen)
            values[t] = value.take(chosen)
            top = cum.max(axis=2, out=tops[t])[:, :, None]

    util = gains.sum(axis=2)
    cum_out = tuple(sp.unpack(cum[i]) for i, sp in enumerate(game.spaces))
    return LearningTrace(game, rounds, bids_out, util, values.sum(axis=1).sum(axis=1),
                         tops.sum(axis=2) - np.cumsum(util, axis=0), cum_out, ln_k, payoff_range)
