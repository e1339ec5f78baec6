"""Walrasian equilibria, discretized pure Nash equilibria, and gap checks.

Walrasian search exploits the First Welfare Theorem and Gul and Stacchetti
(JET 1999, Lemma 1): if any welfare-optimal allocation has supporting
prices, all do, so one price LP on the first maximizer decides existence
(canonical prices minimize the maximum price, then the price sum).

Grid Nash search walks the bid profiles over finite per-player action
families in lexicographic blocks, scored through `sfpa.auction.rival_play`,
and keeps those where no player can gain more than epsilon by a grid
deviation. The common-price scan is a structured profile family
(everyone bids one shared price vector, per-item priority to the assigned
winner) matching the bid profiles through which the Walrasian/pure-Nash
correspondence is proved; it is how the correspondence is exercised at
desk scale, since full product grids blow past any enumeration cap. Its
deviations range over all real bids, as in the paper's continuous game.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import closedform as cf
from .auction import (CAP, Allocation, CapExceeded, PriorityRule, TIE_TOL, blocks, check_bids,
                      expected_utilities, optimal_welfare, product_play, rival_play, weighted_sum)
from .lp import LpError, feasible_point
from .rng import rng_for
from .sets import full_set, members
from .valuations import MONEY_TOL, Valuation, bit_matrix, bundle_costs, check_probs

GRID_CAP = 2_000_000  # bid vectors a full product grid, or bid levels a grid axis, may hold
MESH_CAP = 500_000  # price vectors the common-price scan may hold


@dataclass(frozen=True)
class WalrasianEquilibrium:
    allocation: Allocation
    prices: tuple

    def to_json(self, n: int) -> dict:
        return {"prices": list(self.prices), "allocation": self.allocation.to_json(n)}


def _demand_rows(vals: list[Valuation], alloc: Allocation) -> tuple[np.ndarray, np.ndarray]:
    """Demand constraints p(mine) - p(t) <= v(mine) - v(t) as (rows over the m
    prices, right-hand side): per player, bundles t ascending, own skipped."""
    m = vals[0].m
    bits = bit_matrix(m)
    bundles = np.arange(1 << m)
    rows, rhs = [], []
    for i, v in enumerate(vals):
        mine, t = alloc.bundle(i), v.as_table()
        others = bundles[bundles != mine]
        rows.append(np.subtract(bits[mine], bits[others], dtype=np.float64))  # uint8 would wrap
        rhs.append(t[mine] - t[others])
    return np.vstack(rows), np.concatenate(rhs)


def demand(tables: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Best bundle utility when bundles cost `costs`: (n, 2^m) tables, or one
    (2^m,) table, and `bundle_costs` output (2^m, ...) give (n, ...), or
    (...), utilities."""
    util = tables.reshape(tables.shape + (1,) * (costs.ndim - 1)) - costs
    return util.max(axis=tables.ndim - 1)


def _held_utilities(tables: np.ndarray, costs: np.ndarray, alloc: Allocation) -> np.ndarray:
    """(n, ...) utility of each player's own bundle under `alloc`."""
    return np.stack([t[alloc.bundle(i)] - costs[alloc.bundle(i)] for i, t in enumerate(tables)])


def walrasian_check(vals: list[Valuation], we: WalrasianEquilibrium,
                    tol: float = MONEY_TOL):
    """None if every player's bundle is demand-optimal, else a witness
    (player, strictly better bundle)."""
    prices = np.asarray(we.prices, dtype=np.float64)
    if (prices < -tol).any() or not np.isfinite(prices).all():
        raise ValueError("prices must be finite and nonnegative")
    tables = np.stack([v.as_table() for v in vals])
    costs = bundle_costs(prices)
    held = _held_utilities(tables, costs, we.allocation)
    for i in np.flatnonzero(demand(tables, costs) > held + tol):
        return int(i), int(np.argmax(tables[i] - costs))
    return None


def _support_prices(vals: list[Valuation], alloc: Allocation):
    """Price vector making every bundle demand-optimal, or None.

    Canonicalized by minimizing max price, then total price, so e.g. the
    single-item two-bidder market returns the low end of its price range.
    That face can hold several vertices, and which one is returned depends
    on the solver's pivoting: only its max and total are determined.
    """
    m = vals[0].m
    rows, rhs = _demand_rows(vals, alloc)
    eye = np.eye(m)
    a_ub = np.vstack([np.column_stack([rows, np.zeros(len(rows))]),
                      np.column_stack([eye, np.full(m, -1.0)])])  # p_j <= t
    b_ub = np.concatenate([rhs, np.zeros(m)])
    first = feasible_point(a_ub, b_ub, m + 1, minimize=np.eye(m + 1)[m])  # minimize t
    if first is None:
        return None
    cap = first[m] + 1e-10  # headroom at solver accuracy, well below MONEY_TOL
    x = feasible_point(np.vstack([a_ub, np.column_stack([eye, np.zeros(m)])]),
                       np.concatenate([b_ub, np.full(m, cap)]),
                       m + 1, minimize=np.concatenate([np.ones(m), [0.0]]))
    if x is None:  # the first LP's prices satisfy it
        raise LpError(f"capped price LP infeasible at cap {cap!r}")
    return x[:m]


def _snap(p: float) -> float:
    """p, or the nearest fraction with denominator <= 1000 if within 1e-9; never -0.0."""
    q = float(Fraction(p).limit_denominator(1000))
    return (q if abs(q - p) <= 1e-9 else float(p)) + 0.0


def walrasian_search(vals: list[Valuation], cap: int = CAP,
                     tol: float = MONEY_TOL) -> WalrasianEquilibrium | None:
    """A Walrasian equilibrium on the first exact welfare maximizer
    (lexicographic order), or None. One price LP decides existence: if any
    maximizer has supporting prices, every maximizer does. The lemma needs
    an exact maximizer; one a hair below the optimum can have none."""
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")
    _, alloc = optimal_welfare(vals, cap)
    prices = _support_prices(vals, alloc)
    if prices is None:
        return None
    we = WalrasianEquilibrium(alloc, tuple(_snap(p) for p in prices))
    witness = walrasian_check(vals, we, tol)
    if witness is not None:
        raise RuntimeError(f"LP prices fail the demand check: {witness}")
    return we


def _fit_hint(cap: int, m: int, upper: float) -> str:
    """The most levels per item whose m-th power fits cap, and the grid step
    up to `upper` that gives them; a single level needs a step past the top."""
    fit = int(cap ** (1 / m) + 1e-9)
    return f"{fit} levels per item fit: grid_step >= {upper / max(fit - 1, 0.5)!r}"


@dataclass(frozen=True)
class BidGrid:
    """Finite bid lattice {0, step, 2 step, ...} up to `upper`, with a family
    shaping per-player bid vectors:

    - "full": every combination of grid levels (K = L^m);
    - "uniform_on_bundle": one level on the player's bundle, 0 elsewhere;
    - "single_item": one level on one item, 0 elsewhere.
    """

    step: float
    upper: float
    family: str = "full"

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError(f"grid step must be finite and > 0, got {self.step!r}")
        if not 0 <= self.upper < math.inf:
            raise ValueError(f"grid max must be finite and >= 0, got {self.upper!r}")
        if self.family not in ("full", "uniform_on_bundle", "single_item"):
            raise ValueError(f"unknown grid family {self.family!r}")

    def levels(self) -> int:
        """L, the number of grid levels, refused past GRID_CAP before allocating."""
        span = self.upper / self.step + 1e-9
        if span >= GRID_CAP:  # also an infinite span
            raise CapExceeded(f"grid_step: {self.step!r} up to {self.upper!r} is over {GRID_CAP} "
                              f"levels; grid_step >= {self.upper / (GRID_CAP - 1)!r} fits")
        return math.floor(span) + 1

    def points(self) -> np.ndarray:
        return self.step * np.arange(self.levels())

    def count(self, m: int) -> int:
        """K, the number of one player's bid vectors over m items: L^m, L or
        m L by family; a full grid past GRID_CAP is refused."""
        levels = self.levels()
        if self.family == "uniform_on_bundle":
            return levels
        if self.family == "single_item":
            return m * levels
        if levels ** m > GRID_CAP:
            raise CapExceeded(f"grid_step: full product grid {levels}^{m} exceeds {GRID_CAP} bid "
                              f"vectors; {_fit_hint(GRID_CAP, m, self.upper)} (sfpa pure-nash "
                              "--grid-step), or lower --max or change --family")
        return levels ** m

    def actions_for(self, m: int, bundle: int | None = None) -> np.ndarray:
        """(K, m) matrix of allowed bid vectors for one player."""
        self.count(m)  # refuses a full grid past GRID_CAP before building it
        pts = self.points()
        if self.family == "uniform_on_bundle":
            out = np.zeros((pts.size, m))
            out[:, members(full_set(m) if bundle is None else bundle)] = pts[:, None]
            return out
        if self.family == "single_item":
            out = np.zeros((m * pts.size, m))
            for j in range(m):
                out[j * pts.size:(j + 1) * pts.size, j] = pts
            return out
        return np.stack(np.meshgrid(*[pts] * m, indexing="ij"), axis=-1).reshape(-1, m)


@dataclass(frozen=True)
class GridEquilibrium:
    bids: tuple  # (n, m) nested tuples
    gap: float


def pure_nash_search(vals: list[Valuation], grid: BidGrid, rule=PriorityRule(),
                     eps: float = 0.0, cap: int = CAP,
                     bundles: list[int] | None = None) -> list[GridEquilibrium]:
    """All grid profiles where no player improves by more than eps with a
    grid deviation of its own family, in lexicographic order of the action
    indices; a player's deviations are scored once per profile of its rivals."""
    if not eps >= 0:
        raise ValueError(f"epsilon must be >= 0, got {eps!r}")
    n, m = len(vals), vals[0].m
    total = grid.count(m) ** n  # counted before any action matrix is built
    if total > cap:
        raise CapExceeded(f"{total} grid profiles exceed cap {cap}; raise cap= to {total} "
                          f"or coarsen the grid (sfpa pure-nash --grid-step)")
    actions = [grid.actions_for(m, bundles[i] if bundles else None) for i in range(n)]
    sizes = [a.shape[0] for a in actions]
    tables = [v.as_table() for v in vals]
    pure = {i: (np.ones(len(a)), a) for i, a in enumerate(actions)}
    best = []  # player i's best deviation against each profile of its rivals
    for i in range(n):
        rivals = product_play(n, m, {k: pure[k] for k in pure if k != i}, sizes[i] * m)
        top = [expected_utilities(tables[i], actions[i][:, None], rival_play(bids, rule), i)
               .max(axis=0) for _, bids in rivals]
        best.append(np.concatenate(top).reshape([1 if k == i else s for k, s in enumerate(sizes)]))
    found, start = [], 0
    for _, bids in product_play(n, m, pure, n * m):
        index = np.unravel_index(np.arange(start, start + len(bids)), sizes)
        start += len(bids)
        play = rival_play(bids, rule)
        worst = np.zeros(len(bids))
        for i in range(n):
            dev = best[i][index[:i] + (0,) + index[i + 1:]]
            worst = np.maximum(worst, dev - expected_utilities(tables[i], bids[:, i], play, i))
        found += [GridEquilibrium(tuple(map(tuple, bids[k].tolist())), float(worst[k]))
                  for k in np.flatnonzero(worst <= eps + TIE_TOL)]
    return found


@dataclass(frozen=True)
class LimitCheckResult:
    eps: float
    status: str  # "ok" | "failure" | "inconclusive"
    witness: tuple | None = None


def limit_equilibrium_check(vals: list[Valuation], candidate, rule=PriorityRule(),
                            eps_list=(0.1, 0.01), cap: int = 200_000) -> list[LimitCheckResult]:
    """Is the candidate a limit of eps-equilibria?

    For each eps, scans the grid ball of radius eps (step eps/m) around the
    candidate, in lexicographic blocks, for the first profile no player can
    improve by more than eps against. Deviations range over the continuum: a
    player's best is its demand at prices max(beat, 0), approachable (or
    attained under a favoring tie). "inconclusive" reports a ball too large
    to enumerate, as distinct from an exhaustive search that found nothing.
    """
    cand = check_bids(candidate, "candidate")
    n, m = len(vals), vals[0].m
    if cand.shape != (n, m):
        raise ValueError(f"candidate: need one row of {m} bids per player, {n} x {m}, "
                         f"got {cand.shape[0]} x {cand.shape[1]}")
    if not all(0 < e < math.inf for e in eps_list):  # NaN fails it too
        raise ValueError(f"eps_list: values must be finite and > 0, got {eps_list!r}")
    tables = [v.as_table() for v in vals]
    results = []
    for eps in eps_list:
        step = eps / m
        offsets = step * np.arange(-m, m + 1)
        total = (2 * m + 1) ** (n * m)
        if total > cap:
            results.append(LimitCheckResult(eps, "inconclusive"))
            continue
        ball = np.stack(np.meshgrid(*[offsets] * m, indexing="ij"), axis=-1).reshape(-1, m)
        near = {i: (np.ones(len(ball)), np.maximum(row + ball, 0.0)) for i, row in enumerate(cand)}
        hit = None
        for _, bids in product_play(n, m, near, n * m):
            play = rival_play(bids, rule)
            top_rival = play[0][1]  # the highest rival bid does not depend on the rule
            ok = np.ones(len(bids), dtype=bool)
            for i in range(n):
                cur = expected_utilities(tables[i], bids[:, i], play, i)
                best = demand(tables[i], bundle_costs(np.maximum(top_rival[:, i], 0.0).T))
                ok &= ~(best > cur + eps + TIE_TOL)
            if ok.any():
                hit = bids[np.argmax(ok)]
                break
        if hit is None:
            results.append(LimitCheckResult(eps, "failure"))
        else:
            results.append(LimitCheckResult(eps, "ok", tuple(map(tuple, hit.tolist()))))
    return results


# ---------------------------------------------------------------------------
# Mixed strategies and best-response gaps


@dataclass(frozen=True)
class FiniteSupportStrategy:
    """Finitely many bid vectors with probabilities summing to 1."""

    atoms: tuple  # of (probability, bid tuple)

    def __post_init__(self):
        check_probs([p for p, _ in self.atoms], "atoms")
        check_bids([b for _, b in self.atoms], "atoms")

    def support_vectors(self) -> np.ndarray:
        return np.array([b for _, b in self.atoms], dtype=np.float64)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        probs = np.array([p for p, _ in self.atoms])
        idx = rng.choice(len(self.atoms), size=size, p=probs / probs.sum())
        return self.support_vectors()[idx]


@dataclass(frozen=True)
class AndOrRole:
    """One side of the closed-form AND-OR equilibrium."""

    pair: cf.AndOrStrategyPair
    role: str  # "and" | "or"

    def __post_init__(self):
        if self.role not in ("and", "or"):
            raise ValueError("role must be 'and' or 'or'")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        m = self.pair.m
        if self.role == "and":
            return np.repeat(self.pair.sample_and_bids(rng, size)[:, None], m, axis=1)
        items, x = self.pair.sample_or_bids(rng, size)
        out = np.zeros((size, m))
        out[np.arange(size), items] = x
        return out


@dataclass(frozen=True)
class SingleMindedRole:
    """Uniform bundle bid drawn from the symmetric single-minded CDF."""

    strategy: cf.SingleMindedSymmetric
    bundle: int
    m: int

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.zeros((size, self.m))
        out[:, members(self.bundle)] = self.strategy.cdf.sample(rng, size)[:, None]
        return out


@dataclass(frozen=True)
class BestResponseGap:
    gap: float
    ci99: float
    method: str  # "analytic" | "exact" | "monte_carlo"
    baseline: float
    best_deviation: tuple = ()


def andor_gap(pair: cf.AndOrStrategyPair, role: str, grid: BidGrid) -> BestResponseGap:
    """Best-response gap of the AND or the OR side of the closed-form AND-OR
    equilibrium over the grid's bid vectors, from its exact utility."""
    if role not in ("and", "or"):
        raise ValueError(f"role: must be 'and' or 'or', got {role!r}")
    axis = grid.points()
    rows = np.zeros((axis.size, pair.m))
    and_base, or_base = cf.andor_equilibrium_utilities(pair)
    if role == "and":
        # The AND utility is one identical term per item, so the maximum over
        # the full product grid lies on the diagonal.
        rows[:] = axis[:, None]
        util, base = cf.andor_utility_and(pair, rows), and_base
    else:
        # A multi-item OR bid is dominated by keeping only its maximal entry,
        # so scanning single-item bids covers the whole grid.
        rows[:, 0] = axis
        util, base = cf.andor_utility_or(pair, rows), or_base
    best = int(np.argmax(util))
    return BestResponseGap(max(float(util[best]) - base, 0.0), 0.0, "analytic", base,
                           tuple(rows[best]))


def _exact_gap(vals, strategies, player, grid: BidGrid, rule,
               bundle) -> BestResponseGap:
    n, m = len(vals), vals[0].m
    actions = grid.actions_for(m, bundle)
    table = vals[player].as_table()
    own = strategies[player]
    probs = [np.array([p for p, _ in s.atoms]) for s in strategies]
    rivals = {k: (probs[k], s.support_vectors()) for k, s in enumerate(strategies) if k != player}
    dev, base = np.zeros(actions.shape[0]), 0.0
    for weights, bids in product_play(n, m, rivals, actions.size):
        play = rival_play(bids[:, None], rule)  # (S, 1) profiles: (S, K) utilities
        dev = weighted_sum(dev, weights, expected_utilities(table, actions, play, player))
        payoff = expected_utilities(table, own.support_vectors(), play, player)
        base = weighted_sum(base, weights, np.vecdot(payoff, probs[player]))
    k = int(np.argmax(dev))
    return BestResponseGap(float(dev[k] - base), 0.0, "exact", float(base), tuple(actions[k]))


def _mc_gap(vals, strategies, player, grid: BidGrid, rule,
            bundle, trials: int, seed: int) -> BestResponseGap:
    n, m = len(vals), vals[0].m
    rng = rng_for(seed, "brgap", player)
    draws = [strategies[k].sample(rng, trials) for k in range(n) if k != player]
    own = strategies[player].sample(rng, trials)
    draws.insert(player, own)
    for k, d in enumerate(draws):
        _check_width(k, d, m)
    play = rival_play(np.stack(draws, axis=1), rule)
    actions = grid.actions_for(m, bundle)
    table = vals[player].as_table()
    dev_mean, dev_var = [], []
    for s in blocks(len(actions), trials * m):
        # (B, 1, m) rows against the trials: one contiguous row of trials per
        # action, reduced as a lone row would be
        u = expected_utilities(table, actions[s, None], play, player)
        dev_mean.append(u.mean(axis=1))
        dev_var.append(u.var(axis=1, ddof=1))
    dev_mean, dev_var = np.concatenate(dev_mean), np.concatenate(dev_var)
    base_u = expected_utilities(table, own, play, player)
    base = float(base_u.mean())
    k = int(np.argmax(dev_mean))
    var = dev_var[k] / trials + base_u.var(ddof=1) / trials
    return BestResponseGap(float(dev_mean[k]) - base, cf.Z99 * math.sqrt(var),
                           "monte_carlo", base, tuple(actions[k]))


def _check_width(k: int, bids: np.ndarray, m: int) -> None:
    """Refuse strategy k's bid rows unless they bid on the game's m items."""
    if bids.shape[-1] != m:
        raise ValueError(f"strategies[{k}]: bids on {bids.shape[-1]} items, the game has {m}")


def best_response_gap(vals: list[Valuation], strategies: list, player: int,
                      grid: BidGrid, rule=PriorityRule(), trials: int = 100_000,
                      seed: int = 0, bundle: int | None = None) -> BestResponseGap:
    """Largest improvement available to `player` over its strategy by any
    grid deviation, against the others' mixed strategies: exact enumeration
    when every strategy has finite support, Monte Carlo (with a 99% CI on
    the gap) otherwise. `andor_gap` scores the closed-form AND-OR pair.
    """
    if len(strategies) != len(vals):
        raise ValueError(f"strategies: need one per player ({len(vals)}), got {len(strategies)}")
    if all(isinstance(s, FiniteSupportStrategy) for s in strategies):
        for k, s in enumerate(strategies):
            _check_width(k, s.support_vectors(), vals[0].m)
        return _exact_gap(vals, strategies, player, grid, rule, bundle)
    return _mc_gap(vals, strategies, player, grid, rule, bundle, trials, seed)


# ---------------------------------------------------------------------------
# Common-price correspondence scan


@dataclass(frozen=True)
class CommonPriceEquilibrium:
    prices: tuple
    allocation: Allocation
    gap: float


def common_price_scan(vals: list[Valuation], grid: BidGrid, eps: float,
                      stop_at_first: bool = True) -> list[CommonPriceEquilibrium]:
    """Grid equilibria in the common-price family.

    A profile is one shared price vector p on the grid (all players bid p
    on every item) plus an assignment of each item to a winner, ties
    favoring the assigned winner. Deviations are unrestricted real bids:
    any player wins item j at any price above p_j, and the sup of its
    deviation utility is its best bundle's utility at p. So a profile's gain
    is the Walrasian demand gap at p. Returns profiles whose gain is <= eps.
    """
    n, m = len(vals), vals[0].m
    pts = grid.points()
    if pts.size ** m > MESH_CAP:
        raise CapExceeded(f"grid_step: price mesh {pts.size}^{m} exceeds {MESH_CAP}; "
                          f"{_fit_hint(MESH_CAP, m, grid.upper)}")
    mesh = np.meshgrid(*([pts] * m), indexing="ij")
    prices = np.stack([g.ravel() for g in mesh])  # (m, L^m)
    costs = bundle_costs(prices)
    tables = np.stack([v.as_table() for v in vals])
    best = demand(tables, costs)  # the same for every assignment
    found = []
    for assign in itertools.product(range(n), repeat=m):
        alloc = Allocation(assign)
        worst = (best - _held_utilities(tables, costs, alloc)).max(axis=0)
        for k in np.flatnonzero(worst <= eps + TIE_TOL):
            found.append(CommonPriceEquilibrium(tuple(float(p) for p in prices[:, k]), alloc,
                                                float(worst[k])))
            if stop_at_first:
                return found
    return found


def common_price_gap(vals: list[Valuation], prices, alloc: Allocation) -> float:
    """Best deviation gain in the common-price profile (everyone bids
    `prices`, ties to the allocated winner, deviations over all real bids):
    the largest Walrasian demand gap at `prices`."""
    tables = np.stack([v.as_table() for v in vals])
    costs = bundle_costs(np.asarray(prices, dtype=np.float64))
    return float((demand(tables, costs) - _held_utilities(tables, costs, alloc)).max())


def walrasian_near(vals: list[Valuation], alloc: Allocation, prices,
                   slack: float) -> bool:
    """Is some Walrasian equilibrium with this allocation within `slack`
    (per item, sup-norm) of the given prices? LP feasibility check."""
    m = vals[0].m
    p0 = np.asarray(prices, dtype=np.float64)
    rows, rhs = _demand_rows(vals, alloc)
    eye = np.eye(m)
    return feasible_point(np.vstack([rows, eye, -eye]),
                          np.concatenate([rhs, p0 + slack, -(p0 - slack)]), m) is not None
