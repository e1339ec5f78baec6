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
from .auction import (CAP, Allocation, CapExceeded, PriorityRule, TIE_TOL, check_bids, check_size,
                      expected_utilities, optimal_welfare, product_play, rival_play, weighted_sum)
from .lp import LpError, feasible_point
from .sets import full_set, members
from .valuations import MONEY_TOL, Valuation, bit_matrix, bundle_costs, check_probs, value_tables

GRID_CAP = 2_000_000  # bid vectors one player's grid, or bid levels a grid axis, may hold


@dataclass(frozen=True)
class WalrasianEquilibrium:
    allocation: Allocation
    prices: tuple

    def to_json(self, n: int) -> dict:
        return {"prices": list(self.prices), "allocation": self.allocation.to_json(n)}


def _own_bundles(alloc: Allocation, tables: np.ndarray) -> list[int]:
    """Each player's bundle under `alloc`, refused unless it splits the m items among n."""
    n, m = len(tables), tables.shape[1].bit_length() - 1
    if len(alloc.winners) != m or not all(w in range(n) for w in alloc.winners):
        raise ValueError(f"allocation: need {m} winners in 0..{n - 1}, got {alloc.winners}")
    return alloc.bundles(n)


def _item_prices(prices, m: int) -> np.ndarray:
    """`prices` as float64: m finite prices, none below -MONEY_TOL."""
    p = np.asarray(prices, dtype=np.float64)
    if p.shape != (m,) or not np.isfinite(p).all() or (p < -MONEY_TOL).any():
        raise ValueError(f"prices: need {m} finite, nonnegative item prices, got {prices!r}")
    return p


def _demand_rows(vals: list[Valuation], alloc: Allocation) -> tuple[np.ndarray, np.ndarray]:
    """Demand constraints p(mine) - p(t) <= v(mine) - v(t) as (rows over the m
    prices, right-hand side): per player, bundles t ascending, own skipped."""
    tables = value_tables(vals)
    bits = bit_matrix(vals[0].m)
    bundles = np.arange(len(bits))
    rows, rhs = [], []
    for t, mine in zip(tables, _own_bundles(alloc, tables)):
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
    return np.stack([t[s] - costs[s] for t, s in zip(tables, _own_bundles(alloc, tables))])


def walrasian_check(vals: list[Valuation], we: WalrasianEquilibrium):
    """None if every player's bundle is demand-optimal within MONEY_TOL, else
    a witness (player, strictly better bundle)."""
    tables = value_tables(vals)
    costs = bundle_costs(_item_prices(we.prices, vals[0].m))
    held = _held_utilities(tables, costs, we.allocation)
    for i in np.flatnonzero(demand(tables, costs) > held + MONEY_TOL):
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


def walrasian_search(vals: list[Valuation], cap: int = CAP) -> WalrasianEquilibrium | None:
    """A Walrasian equilibrium on the first exact welfare maximizer
    (lexicographic order), or None. One price LP decides existence: if any
    maximizer has supporting prices, every maximizer does. The lemma needs
    an exact maximizer; one a hair below the optimum can have none."""
    _, alloc = optimal_welfare(vals, cap)
    prices = _support_prices(vals, alloc)
    if prices is None:
        return None
    we = WalrasianEquilibrium(alloc, tuple(_snap(p) for p in prices))
    witness = walrasian_check(vals, we)
    if witness is not None:
        raise RuntimeError(f"LP prices fail the demand check: {witness}")
    return we


def bid_bundle(table: np.ndarray) -> int:
    """The items a bidder with this (2^m,) value table bids on under
    "uniform_on_bundle": those every bundle of top value holds, or all m items
    if no item is in each of them (an OR or an all-zero bidder)."""
    top = np.flatnonzero(table == table.max())
    return int(np.bitwise_and.reduce(top)) or full_set(len(table).bit_length() - 1)


@dataclass(frozen=True)
class BidGrid:
    """Finite bid lattice {0, step, 2 step, ...} up to `upper`, with a family
    shaping per-player bid vectors:

    - "full": every combination of grid levels (K = L^m);
    - "uniform_on_bundle": one level on the player's `bid_bundle`, 0 elsewhere;
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
                              f"levels; {self.finest(GRID_CAP)} fits")
        return math.floor(span) + 1

    def points(self) -> np.ndarray:
        return self.step * np.arange(self.levels())

    def count(self, m: int, levels: int | None = None) -> int:
        """K, the number of one player's bid vectors over m items at `levels`
        levels per item (this grid's, by default): L^m, L or m L by family.
        The power stops at m = 64, past every cap, so a huge m costs nothing."""
        levels = self.levels() if levels is None else levels
        if self.family == "uniform_on_bundle":
            return levels
        return m * levels if self.family == "single_item" else levels ** min(m, 64)

    def finest(self, levels: int) -> str:
        """The finest step up to `upper` that gives at most `levels` levels, as a
        refusal names it: just past upper / levels, as `levels` forgives 1e-9."""
        return f"grid_step >= {self.upper / (levels - 2e-9)!r}"

    def actions_for(self, m: int, bundle: int | None = None) -> np.ndarray:
        """(K, m) matrix of allowed bid vectors for one player, K past GRID_CAP refused."""
        check_size("grid_step", self.levels(), lambda levels: self.count(m, levels), GRID_CAP,
                   "bid vectors", self.finest)
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


def pure_nash_search(vals: list[Valuation], grid: BidGrid, rule=PriorityRule(),
                     eps: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """All grid profiles where no player improves by more than eps with a
    grid deviation of its own family, in lexicographic order of the action
    indices, as bids (E, n, m) and gaps (E,). One pass scores each player's
    actions against every profile of its rivals, who alone set its prices;
    the best one's utility less each entry folds into one gap array over all
    profiles. More than CAP profiles are refused before any is built; the
    search holds about two float64 arrays of that many entries."""
    if not 0 <= eps < math.inf:
        raise ValueError(f"epsilon: must be finite and >= 0, got {eps!r}")
    n, m = len(vals), vals[0].m
    check_size("grid_step", grid.levels(), lambda levels: grid.count(m, levels) ** n, CAP,
               "grid profiles", grid.finest)
    tables = value_tables(vals)
    actions = [grid.actions_for(m, bid_bundle(t)) for t in tables]
    sizes = [a.shape[0] for a in actions]
    pure = {i: (np.ones(len(a)), a) for i, a in enumerate(actions)}
    worst = np.zeros(sizes)
    for i in range(n):
        util, start = np.empty((sizes[i], worst.size // sizes[i])), 0  # (own action, rivals)
        for _, bids in product_play(n, m, {k: pure[k] for k in pure if k != i}, sizes[i] * m):
            util[:, start:start + len(bids)] = expected_utilities(
                tables[i], actions[i][:, None], rival_play(bids, rule), i)
            start += len(bids)
        gain = np.subtract(util.max(axis=0), util, out=util)
        np.maximum(worst, np.moveaxis(gain.reshape([sizes[i]] + sizes[:i] + sizes[i + 1:]),
                                      0, i), out=worst)
    hits = np.nonzero(worst <= eps + TIE_TOL)
    return np.stack([a[k] for a, k in zip(actions, hits)], axis=1), worst[hits]


# ---------------------------------------------------------------------------
# Mixed strategies and best-response gaps


@dataclass(frozen=True)
class BestResponseGap:
    gap: float
    method: str  # "analytic" | "exact"
    baseline: float
    best_deviation: tuple = ()


def andor_gap(pair: cf.AndOrStrategyPair, role: str, grid: BidGrid) -> BestResponseGap:
    """Best-response gap of the AND or the OR side of the closed-form AND-OR
    equilibrium over the grid's bid vectors, from its exact utility."""
    if role not in ("and", "or"):
        raise ValueError(f"role: must be 'and' or 'or', got {role!r}")
    levels = grid.levels()  # 40 bytes a level and item: about five (levels, m) float arrays
    check_size("m", pair.m, lambda m: levels * m * 40, cf.MC_BYTE_LIMIT, "bytes")
    and_base, or_base = cf.andor_equilibrium_utilities(pair)
    axis, rows = grid.points(), np.zeros((levels, pair.m))
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
    return BestResponseGap(max(float(util[best]) - base, 0.0), "analytic", base, tuple(rows[best]))


def best_response_gap(vals: list[Valuation], strategies: list, player: int,
                      grid: BidGrid, rule=PriorityRule()) -> BestResponseGap:
    """Largest improvement available to `player` over its strategy by any
    grid deviation, against the others' finite mixtures, by exact
    enumeration: the rivals' bid rows are scored as one weighted stack.
    strategies[k] is a (probabilities (K,), bid rows (K, m)) pair, the form
    `product_play` takes. `andor_gap` scores the closed-form AND-OR pair."""
    n, m = len(vals), vals[0].m
    if type(player) is not int or player not in range(n):
        raise ValueError(f"player: need an index in 0..{n - 1}, got {player!r}")
    table = value_tables(vals)[player]
    if len(strategies) != n:
        raise ValueError(f"strategies: need one per player ({n}), got {len(strategies)}")
    mixed = []
    for k, s in enumerate(strategies):
        field = f"strategies[{k}]"
        if not isinstance(s, (tuple, list)) or len(s) != 2:
            raise ValueError(f"{field}: need a (probabilities, bid rows) pair, "
                             f"got {type(s).__name__}")
        probs, rows = check_probs(s[0], field), check_bids(s[1], field)
        if probs.ndim != 1 or rows.shape != (probs.size, m):
            raise ValueError(f"{field}: need one row of {m} bids per probability, got "
                             f"{rows.shape[0]} x {rows.shape[1]} for {probs.size}")
        mixed.append((probs, rows))
    actions = grid.actions_for(m, bid_bundle(table))
    rivals = {k: mixed[k] for k in range(n) if k != player}
    dev, base = np.zeros(actions.shape[0]), 0.0
    for weights, bids in product_play(n, m, rivals, actions.size):
        play = rival_play(bids[:, None], rule)  # (S, 1) profiles: (S, K) utilities
        dev = weighted_sum(dev, weights, expected_utilities(table, actions, play, player))
        payoff = expected_utilities(table, mixed[player][1], play, player)
        base = weighted_sum(base, weights, np.vecdot(payoff, mixed[player][0]))
    k = int(np.argmax(dev))
    return BestResponseGap(float(dev[k] - base), "exact", float(base), tuple(actions[k]))


# ---------------------------------------------------------------------------
# Common-price correspondence scan


@dataclass(frozen=True)
class CommonPriceEquilibrium:
    prices: tuple
    allocation: Allocation
    gap: float


def common_price_scan(vals: list[Valuation], grid: BidGrid) -> list[CommonPriceEquilibrium]:
    """Grid equilibria in the common-price family.

    A profile is one shared price vector p on the grid (all players bid p
    on every item) plus an assignment of each item to a winner, ties
    favoring the assigned winner. Deviations are unrestricted real bids:
    any player wins item j at any price above p_j, and the sup of its
    deviation utility is its best bundle's utility at p. So a profile's gain
    is the Walrasian demand gap at p. Returns every profile whose gain is at
    most TIE_TOL, the exact grid equilibria, assignments in lexicographic order.
    """
    tables = value_tables(vals)
    n, m = len(vals), vals[0].m
    # demand's (n, 2^m, L^m) bundle utilities at every mesh price vector
    check_size("grid_step", grid.levels(), lambda levels: (n << m) * levels ** m, CAP,
               "bundle utilities", grid.finest)
    pts = grid.points()
    mesh = np.meshgrid(*([pts] * m), indexing="ij")
    prices = np.stack([g.ravel() for g in mesh])  # (m, L^m)
    costs = bundle_costs(prices)
    best = demand(tables, costs)  # the same for every assignment
    found = []
    for assign in itertools.product(range(n), repeat=m):
        alloc = Allocation(assign)
        worst = (best - _held_utilities(tables, costs, alloc)).max(axis=0)
        found += [CommonPriceEquilibrium(tuple(float(p) for p in prices[:, k]), alloc,
                                         float(worst[k])) for k in np.flatnonzero(worst <= TIE_TOL)]
    return found


def common_price_gap(vals: list[Valuation], prices, alloc: Allocation) -> float:
    """Best deviation gain in the common-price profile (everyone bids
    `prices`, ties to the allocated winner, deviations over all real bids):
    the largest Walrasian demand gap at `prices`."""
    tables = value_tables(vals)
    costs = bundle_costs(_item_prices(prices, vals[0].m))
    return float((demand(tables, costs) - _held_utilities(tables, costs, alloc)).max())


def walrasian_near(vals: list[Valuation], alloc: Allocation, prices,
                   slack: float) -> bool:
    """Is some Walrasian equilibrium with this allocation within `slack`
    (per item, sup-norm) of the given prices? LP feasibility check."""
    m = vals[0].m
    rows, rhs = _demand_rows(vals, alloc)
    p0 = _item_prices(prices, m)
    eye = np.eye(m)
    return feasible_point(np.vstack([rows, eye, -eye]),
                          np.concatenate([rhs, p0 + slack, -(p0 - slack)]), m) is not None
