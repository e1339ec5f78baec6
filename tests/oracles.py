"""Reference code that only the tests call: a structural check of the
symmetric single-minded instances, the triangle's bid distribution, the
whole-array forms of the blocked Monte Carlo loops, the exhaustive check
of an XOS certificate and best-response iteration for building Bayesian
equilibria to verify."""

import math

import numpy as np

from sfpa.bayes import FiniteBayesianGame, _conditional_utilities, check_strategies
from sfpa.closedform import (CDF_TOL, Z99, AndOrStrategyPair, AtomicCDF, SingleMindedSymmetric,
                             WelfareEstimate)
from sfpa.rng import rng_for
from sfpa.sets import members
from sfpa.valuations import MONEY_TOL, BetaCertificate, Valuation, bit_matrix


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
    return AtomicCDF(0.0, 0.5, (), lambda x: 2.0 * x, lambda u: u / 2.0)


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
