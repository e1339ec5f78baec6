"""No-regret dynamics on discretized auction games.

Each player runs multiplicative weights over a finite action family with
the anytime step size eta_t = sqrt(ln K / t) / range (payoffs normalized by
the largest full-bundle value). Every round, every action of every player
is scored against the opponents' realized bids (full-information
counterfactuals), which makes external regret exact and the empirical play
distribution a measurable approximate coarse correlated equilibrium.

Action families are products of factors, each a categorical choice among
bid rows; a player's bid is the sum of its factors' chosen rows:

- `ExplicitActions`: an explicit (K, m) list of bid vectors; one factor.
- `SeparableGrid`: per-item bid levels, ragged. Several factors are valid
  only for additive valuations, whose utility splits across items: joint
  multiplicative weights over the level product then factorize exactly into
  one factor per item, so K = prod(levels) costs nothing to learn over.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .auction import (CAP, PriorityRule, bid_utilities, blocks, bundle_masks, check_bids,
                      check_size, dp_pairs, optimal_welfare, price_to_beat, priority_ranks,
                      rival_cells, weighted_sum, wins)
from .closedform import AtomicCDF, check_count
from .rng import rng_for
from .valuations import AdditiveValuation, bit_matrix, bundle_costs, paid, read_only, value_tables


@dataclass(frozen=True, eq=False)
class _Factored:
    """A product of factors, stored once when built: a tuple of read-only
    (rows, support) pairs, one categorical choice among bid rows each."""

    factors: tuple = field(init=False)

    @property
    def count(self) -> int:
        return math.prod(len(rows) for rows, _ in self.factors)  # exact past int64

    def max_spend(self) -> float:
        return float(np.array([rows.sum(axis=1).max() for rows, _ in self.factors]).sum())


@dataclass(frozen=True, eq=False)
class ExplicitActions(_Factored):
    """One factor: the (K, m) bid vectors, bidding on every item."""

    vectors: InitVar[np.ndarray]

    def __post_init__(self, vectors):
        rows = check_bids(vectors, "actions")
        object.__setattr__(self, "factors", ((rows, read_only(np.ones(rows.shape[1]), bool)),))

    def unpack(self, block: np.ndarray) -> np.ndarray:
        """This family's (K,) view of a padded (factor, level) block."""
        return block[0, :self.count]


@dataclass(frozen=True, eq=False)
class SeparableGrid(_Factored):
    """Per-item levels, ragged: one factor per item, its levels bidding on it alone."""

    levels: tuple

    def __post_init__(self):
        arrs = [np.asarray(l, dtype=np.float64) for l in self.levels]
        if not arrs or any(a.ndim != 1 or a.size == 0 for a in arrs):
            raise ValueError("levels: each item needs a nonempty 1-d level array")
        check_bids(np.concatenate(arrs)[:, None], "levels")  # before inf * 0 makes a NaN
        eye = read_only(np.eye(len(arrs)), bool)  # row j: factor j's support
        object.__setattr__(self, "factors", tuple((read_only(a[:, None] * eye[j]), eye[j])
                                                  for j, a in enumerate(arrs)))
        object.__setattr__(self, "levels", tuple(r[:, j] for j, (r, _) in enumerate(self.factors)))

    def unpack(self, block: np.ndarray) -> np.ndarray:
        """This family's (m, L) view of a padded (factor, level) block."""
        return block[:, :max(map(len, self.levels))]


@dataclass(frozen=True)
class FiniteGame:
    """Finite bid game: per-player action family, valuations, deterministic
    ties. Frozen, its players in tuples: it is checked once, when it is built."""

    vals: tuple
    spaces: tuple
    rule: PriorityRule = field(default_factory=PriorityRule)
    grid_step: float = 0.0  # action spacing, reported into slack accounting
    optimum: tuple = field(init=False, repr=False)  # (value, allocation), before any round

    def __post_init__(self):
        object.__setattr__(self, "vals", tuple(self.vals))
        object.__setattr__(self, "spaces", tuple(self.spaces))
        if not self.vals:
            raise ValueError("n must be >= 1: a game needs a player")
        n, m = len(self.vals), self.vals[0].m
        if len(self.spaces) != n:
            raise ValueError("one action space per player")
        priority_ranks(self.rule, n, m)  # a deterministic rule, valid for n and m
        for i, (v, sp) in enumerate(zip(self.vals, self.spaces)):
            if len(sp.factors) > 1 and not isinstance(v, AdditiveValuation):
                raise ValueError(f"spaces[{i}]: several factors need an additive valuation")
            items = sp.factors[0][0].shape[1]
            if items != m:
                raise ValueError(f"spaces[{i}]: bids on {items} items, the game has {m}")
        check_size("m", m, lambda k: dp_pairs(n, k), CAP, "welfare-DP subset pairs")
        object.__setattr__(self, "optimum", optimal_welfare(self.vals))
        if max(v.value_max() for v in self.vals) <= 0:
            raise ValueError("values: normalization needs a player with positive full-bundle value")


@dataclass(frozen=True)
class LearningTrace:
    """Round-by-round record of a multiplicative-weights run; its arrays are read-only."""

    game: FiniteGame
    rounds: int
    bids: np.ndarray        # (T, n, m) realized bids
    utilities: np.ndarray   # (T, n) realized money utilities
    welfare: np.ndarray     # (T,)
    regret: np.ndarray      # (T, n) running external regret, money units
    cum_counterfactual: tuple  # per player, money units
    ln_k: np.ndarray        # (n,)
    payoff_range: np.ndarray  # (n,) money units

    def regret_envelope(self) -> np.ndarray:
        """2 sqrt(T ln K_i) * payoff range, the checked MW guarantee."""
        return 2.0 * np.sqrt(self.rounds * self.ln_k) * self.payoff_range

    @cached_property
    def prices(self) -> np.ndarray:
        """(beat, ahead) of every round, each (rounds, n, m), read-only: priced
        once per trace for all its readers, by `price_to_beat` a `blocks`
        slice of rounds at a time, so no (rounds, n, n - 1, m) gather is held."""
        n, m = self.bids.shape[1:]
        out = np.empty((2,) + self.bids.shape)
        for s in blocks(self.rounds, n * n * m):
            out[:, s] = price_to_beat(self.bids[s], self.game.rule)
        out.flags.writeable = False
        return out


def _level_index(u: np.ndarray, probs: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Categorical draw along the last axis of `probs` from pre-drawn uniforms
    `u`, clamped to each row's `last` valid level: rounding can leave the
    cumulative sum below 1 - 2**-53, the largest uniform a generator draws."""
    return np.minimum(np.add.reduce(u[..., None] > probs.cumsum(axis=-1), axis=-1), last)


def run_no_regret(game: FiniteGame, rounds: int, seed: int) -> LearningTrace:
    """Run multiplicative weights for `rounds` rounds. Fewer than one round, or
    records past closedform.MC_BYTE_LIMIT bytes, are refused before any is made.
    All players' factors share one padded (factor, level) block; gains are
    scored on the real levels only, entry e being one level of a factor of
    player[e], with bid row rows[e]. Scoring is slot-major: slot s of entry
    e bids amount[s, e] on item[s, e], its support items ascending, then
    dead slots bidding 0 against +inf, which they never beat. An outcome
    table, built once and priced against CAP cells before it is, holds each
    entry's gain and value for every subset of its S slots won (bit s for
    slot s), scored on the full value table: a round reads every slot's
    (beat, ahead) through `auction.rival_cells`, decides the wins with
    `wins` and takes each entry's gain at the index of its won slots."""
    n, m = len(game.vals), game.vals[0].m
    vmax = max(v.value_max() for v in game.vals)
    payoff_range = np.array([v.value_max() + sp.max_spend()
                             for v, sp in zip(game.vals, game.spaces)])
    ln_k = np.array([math.log(sp.count) for sp in game.spaces])
    # a one-action player's play is forced: any step keeps 0 * -inf out of it
    eta_base = np.where(ln_k > 0, np.sqrt(ln_k) / (payoff_range / vmax), 1.0)[:, None, None]

    factors = [sp.factors for sp in game.spaces]
    nf = np.array([len(fs) for fs in factors])
    F = int(nf.max())
    # per round: the bids, each factor's chosen gain, chosen value and best sum, the steps
    check_count(rounds, "rounds", 1, 8 * (n * m + 3 * n * F + n))
    # players with fewer factors get one-level, zero-bid, zero-gain fillers
    filler = (np.zeros((1, m)), np.zeros(m, dtype=bool))
    flat = [(i, r, s) for i, fs in enumerate(factors) for r, s in fs + (filler,) * (F - len(fs))]
    # S = the largest support: 1 for separable grids, m once a player has explicit actions
    S = max(int(s.sum()) for _, _, s in flat)
    check_size("spaces", sum(len(r) for _, r, _ in flat), lambda k: k << S, CAP,
               f"outcome-table cells ({1 << S} a bid row)", lambda k: f"{k} bid rows in all")
    W = max(len(r) for _, r, _ in flat)
    rows = np.concatenate([r for _, r, _ in flat])  # (N, m)
    support = np.concatenate([np.broadcast_to(s, r.shape) for _, r, s in flat])
    player = np.concatenate([np.full(len(r), i) for i, r, _ in flat])
    item = np.argsort(~support, axis=1, kind="stable")[:, :S].T.copy()
    live = np.take_along_axis(support.T, item, axis=0)  # (S, N): support items ascending first
    amount = np.where(live, np.take_along_axis(rows.T, item, axis=0), 0.0)
    # (2, S, N): each slot's column of rival_cells, for beat then ahead; a dead slot's is last
    at = np.where(live, player * m + item, n * m) + (n * m + 1) * np.arange(2)[:, None, None]
    cells = rival_cells(game.rule, n, m).reshape(max(n - 1, 1), -1)
    profile = np.array([0.0] * (n * m) + [-np.inf, np.inf])  # a round's bids, then the two cells
    # the outcome table: entry e's gain and value with won slots k at e * 2^S + k
    table, table_at = value_tables(game.vals).ravel(), player << m
    won_k = bit_matrix(S).astype(bool)  # (2^S, S): row k's won slots
    gain_of, value_of = np.empty((2, len(rows), 1 << S))
    for b in blocks(len(rows), won_k.size):
        value_of[b] = table.take(table_at[b, None] | bundle_masks(won_k, 1 << item.T[b, None]))
        gain_of[b] = value_of[b] - paid(won_k, amount.T[b, None])
    gain_of, value_of = gain_of.ravel(), value_of.ravel()
    offs, weight = np.arange(len(rows)) << S, (1 << np.arange(S))[:, None]

    slot = np.concatenate([k * W + np.arange(len(r)) for k, (_, r, _) in enumerate(flat)])
    entry = np.full(n * F * W, -1)
    entry[slot] = np.arange(slot.size)  # (player, factor, level) -> entry
    valid = (entry >= 0).reshape(n, F, W)
    last = valid.sum(axis=2) - 1
    real = np.arange(F) < nf[:, None]  # (n, F): not a filler
    base = np.arange(n * F).reshape(n, F) * W

    cum = np.where(valid, 0.0, -np.inf)
    cum_flat, draws = cum.reshape(-1), int(nf.sum())
    bids_out = np.empty((rounds, n, m))
    gains, values, tops = np.empty((3, rounds, n, F))
    step = eta_base / np.sqrt(np.arange(1.0, rounds + 1))[:, None, None, None]
    top = cum.max(axis=2, keepdims=True)

    rng = rng_for(seed, "no-regret")
    for block in blocks(rounds, draws):  # a bulk draw gives the doubles of successive ones
        u = np.zeros((block.stop - block.start, n, F))  # filler factors draw nothing: 0
        u[:, real] = rng.random((len(u), draws))  # per round, in player order
        for t, u_t in enumerate(u, block.start):
            w = np.exp(step[t] * (cum - top) / vmax)
            probs = w / np.add.reduce(w, axis=2, keepdims=True)
            chosen = entry.take(base + _level_index(u_t, probs, last))  # (n, F) entries drawn
            np.add.reduce(rows.take(chosen, axis=0), axis=1, out=bids_out[t])

            profile[:-2] = bids_out[t].reshape(-1)
            # [], not take, which holds a second (n - 1, 2 (n m + 1)) gather at large n
            beat, ahead = np.maximum.reduce(profile[cells], axis=0).take(at)
            cell = np.add.reduce(wins(amount, beat, ahead) * weight, axis=0) + offs
            gain = gain_of.take(cell)
            cum_flat[slot] += gain
            gain.take(chosen, out=gains[t], mode="clip")  # in range: "clip" skips a copy
            value_of.take(cell.take(chosen), out=values[t], mode="clip")
            top = np.maximum.reduce(cum, axis=2, out=tops[t])[:, :, None]

    util = gains.sum(axis=2)  # each round's orders: over factors; over players, then factors
    welfare, regret = values.sum(axis=1).sum(axis=1), tops.sum(axis=2) - np.cumsum(util, axis=0)
    for a in (cum, bids_out, util, welfare, regret, ln_k, payoff_range):  # before any view
        a.flags.writeable = False
    cum_out = tuple(sp.unpack(cum[i]) for i, sp in enumerate(game.spaces))
    return LearningTrace(game, rounds, bids_out, util, welfare, regret, cum_out, ln_k, payoff_range)


def verify_cce(trace: LearningTrace) -> float:
    """Recompute counterfactual sums from the stored bids and confirm the
    empirical play distribution is a (max_i regret_i / T)-approximate CCE.

    Every factor of every family takes one path: its rows are scored on its
    own items, against the value restricted to them, by `bid_utilities`,
    against the trace's `prices`; the rounds are added in order, scored a
    block of rounds at a time. `run_no_regret` instead reads each entry's
    gain from its outcome table, scored on the full value table, so the two
    agree only if the factorization is right.
    Returns the largest discrepancy over the finite stored sums (0.0 when
    they agree).
    """
    game = trace.game
    beats, aheads = trace.prices
    worst = 0.0
    for i, sp in enumerate(game.spaces):
        sums = np.zeros((len(sp.factors), max(len(rows) for rows, _ in sp.factors)))
        for f, (rows, support) in enumerate(sp.factors):
            items = np.flatnonzero(support)
            subsets = bit_matrix(items.size) @ (1 << items)
            table, own, k = game.vals[i].as_table()[subsets], rows[:, items], len(rows)
            for s in blocks(trace.rounds, own.size):  # (rounds, k, |items|) wins a block
                at = np.s_[s, i, items]
                gain = bid_utilities(table, own, beats[at][:, None], aheads[at][:, None])
                sums[f, :k] = weighted_sum(sums[f, :k], np.ones(len(gain)), gain)
        stored = trace.cum_counterfactual[i]
        finite = np.isfinite(stored)
        gap = float(np.abs(sp.unpack(sums)[finite] - stored[finite]).max())
        worst = max(worst, gap)
        if gap > 1e-7 * max(1.0, trace.rounds):  # 1e-7 of drift a round
            raise RuntimeError(f"counterfactual recomputation drifted by {gap}")
    return worst


def trace_decomposition(trace: LearningTrace) -> dict:
    """Per-player welfare accounting over a trace: optimal-share value o_i,
    expected equilibrium value e_i and utility u_i, expected payments r_i
    over the items the optimum hands to i, and expected item prices f_j."""
    game = trace.game
    n, bids = len(game.vals), trace.bids
    own = wins(bids, *trace.prices)  # (T, n, m)
    f_item = (own * bids).max(axis=1).mean(axis=0)  # each item's one winning bid
    u_exp = trace.utilities.mean(axis=0)
    e_exp = u_exp + paid(own, bids).mean(axis=0)
    _, opt_alloc = game.optimum
    mine = [opt_alloc.bundle(i) for i in range(n)]
    costs = bundle_costs(f_item)
    return {"o": [v.value(s) for v, s in zip(game.vals, mine)], "e": [float(x) for x in e_exp],
            "u": [float(x) for x in u_exp], "r": [float(costs[s]) for s in mine],
            "item_prices": [float(x) for x in f_item]}


@dataclass(frozen=True)
class CceWelfareReport:
    """Price-of-anarchy accounting for one trace against the two welfare bounds."""

    opt: float
    welfare: float
    ratio: float | None  # None when the empirical welfare is zero
    regret_per_round: tuple
    slack: float
    beta: float | None
    bound_beta: float | None
    bound_beta_ok: bool | None
    bound_general: float
    bound_general_ok: bool
    decomposition: dict


def ccqe_welfare_ratio(trace: LearningTrace, beta: float | None = None) -> CceWelfareReport:
    """OPT / empirical welfare, checked against OPT <= 2 beta E[SW] + slack
    (finite beta) and the general OPT <= 4m E[SW] + slack bound.

    slack = 2 beta sum_i regret_i/T + n m grid_step for the beta bound and
    2 sum_i regret_i/T + 2 n m grid_step for the general one: finite T and
    the bid grid make the literal inequalities false without these terms.
    """
    game = trace.game
    n, m = len(game.vals), game.vals[0].m
    opt, _ = game.optimum
    emp = float(trace.welfare.mean())
    reg = tuple(float(max(r, 0.0)) / trace.rounds for r in trace.regret[-1])
    general_slack = 2.0 * sum(reg) + 2.0 * n * m * game.grid_step
    bound_general = 4.0 * m * emp + general_slack
    if beta is not None and math.isfinite(beta):
        slack = 2.0 * beta * sum(reg) + m * game.grid_step * n
        bound_beta = 2.0 * beta * emp + slack
        beta_ok = opt <= bound_beta + 1e-12
    else:
        slack, bound_beta, beta_ok = 2.0 * sum(reg) + m * game.grid_step * n, None, None
    return CceWelfareReport(opt, emp, opt / emp if emp > 0 else None, reg, slack,
                            beta, bound_beta, beta_ok, bound_general,
                            opt <= bound_general + 1e-12, trace_decomposition(trace))


def ks_distance(samples: np.ndarray, cdf: AtomicCDF) -> float:
    """One-sample Kolmogorov-Smirnov statistic against an AtomicCDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    k = x.size
    theo = np.asarray(cdf.cdf(x))
    upper = np.abs(np.arange(1, k + 1) / k - theo).max()
    lower = np.abs(np.arange(k) / k - np.asarray(cdf.prob_lt(x))).max()
    return float(max(upper, lower))
