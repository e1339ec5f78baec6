"""Closed-form mixed equilibria as evaluable, sampleable objects.

Three families:

- AND-OR over m items with OR value v >= 1/m. The AND bidder places one
  draw y on every item, y ~ F with F(y) = (v - 1/m)/(v - y) on [0, 1/m]
  (atom at 0 of mass 1 - 1/(m v)); the OR bidder picks an item uniformly
  and bids x ~ G on it with G(x) = (m-1) x / (1 - x). When v = 1/m the
  AND distribution collapses to a point mass at 1/m.

- Triangle: three single-minded players each wanting a distinct pair of
  three items, value 1; everyone bids one draw from F(x) = 2x on [0, 1/2]
  on both wanted items.

- Symmetric single-minded: bundles of size k >= 2, each item wanted by
  exactly d >= 2 players, bundles pairwise intersecting in at most one
  item; uniform bundle bids drawn from G(x) = (k x)^(1/((d-1)(k-1))) on
  [0, 1/k] (scaled by the common bundle value). The triangle is k=2, d=2.

Each distribution is an `AtomicCDF`: a continuous part plus one atom at
the bottom of its support, of mass 1 - 1/(m v) for the AND bid, 1 for its
point mass and 0 for the others. Its quantile gives the bottom to every
uniform up to the CDF there, so no draw falls below the support. Utility
evaluators are exact expectations against these distributions.
Ties at bid 0 between the AND atom and the OR player's untouched items
are broken in favor of the AND bidder (the OR side is atomless, so the
equilibrium itself is tie-rule independent; the convention only fixes
bookkeeping on zero bids). In Monte Carlo a deviator loses an exact tie,
as `prob_lt` counts it, the OR bidder takes its item on an exact tie in
the equilibrium welfare, and zero-bid ties on its other items go to AND.

Each Monte Carlo estimator here cross-checks a closed form:
`andor_utility_mc` the AND-OR utilities and `andor_equilibrium_welfare`
the welfare construction (the best-response gaps of `sfpa.equilibrium`
are exact). Monte Carlo runs in the slices of `sfpa.auction.blocks`,
BLOCK trials (or draws) each: each block draws its uniforms from the one
generator, in order, and is scored and reduced to its per-trial values
while its draws are in cache, so no array of all the trials' bids is ever
built. Successive draws from a generator continue one stream, so the
blocks see the very doubles a single draw of every trial would. Only the
per-trial values (and the OR items, which must come from one
`rng.integers` call) live for the whole run, and `mean_ci99` reduces them
in place: the results are bit for bit those of the one-shot form. Sampling is by inversion, so the OR
deviator of `andor_utility_mc` is scored on its uniforms against
thresholds found once per call, and computes no AND bid at all.
Trial and sample counts whose arrays would pass MC_BYTE_LIMIT bytes are
refused before anything is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .auction import blocks, check_size
from .rng import rng_for
from .valuations import MONEY_TOL

CDF_TOL = 1e-12
MC_BYTE_LIMIT = 2 ** 31  # largest estimated working set of a Monte Carlo run or sample


def check_count(count, field: str = "trials", least: int = 2, per_unit: int = 40) -> None:
    """Refuse a trial, sample or round count that is not an integer >= least,
    or whose arrays, at about per_unit bytes each, would pass MC_BYTE_LIMIT.
    The default bounds a Monte Carlo trial with room to spare: it holds at
    most two per-trial arrays (the per-trial values and the OR items)."""
    if not isinstance(count, (int, np.integer)) or count < least:
        raise ValueError(f"{field}: must be an integer >= {least}, got {count!r}")
    check_size(field, int(count), lambda c: c * per_unit, MC_BYTE_LIMIT, "bytes")


@dataclass(frozen=True)
class AtomicCDF:
    """Distribution on [lo, hi]: an atom of mass `atom` at lo plus a
    continuous part.

    `cont_cdf` maps x in [lo, hi] to the continuous mass on [lo, x] and
    `cont_quantile` inverts it on [0, 1 - atom]. Both must accept numpy
    arrays. Construction validates total mass, monotonicity, and endpoints.
    """

    lo: float
    hi: float
    atom: float  # the mass at lo
    cont_cdf: Callable
    cont_quantile: Callable

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("domain is empty")
        if self.atom < 0:
            raise ValueError("atom mass must be nonnegative")
        cont = float(self.cont_cdf(np.float64(self.hi)))
        if not abs(self.atom + cont - 1.0) <= CDF_TOL:  # NaN fails it too
            raise ValueError(f"total mass {self.atom + cont} != 1")
        if abs(float(self.cont_cdf(np.float64(self.lo)))) > CDF_TOL:
            raise ValueError("continuous part must start at 0")
        grid = np.linspace(self.lo, self.hi, 257)
        if np.diff(self.cont_cdf(grid)).min(initial=0.0) < -CDF_TOL:
            raise ValueError("continuous part must be nondecreasing")

    def _cc(self, x):
        """Continuous mass on [lo, x], clamped outside the domain."""
        x = np.asarray(x, dtype=np.float64)
        return self.cont_cdf(np.clip(x, self.lo, self.hi))

    def cdf(self, x):
        """Pr[X <= x]."""
        out = self._cc(x) + self.atom * (np.asarray(x) >= self.lo)
        return out if out.ndim else float(out)

    def prob_lt(self, x):
        """Pr[X < x]; differs from cdf only at lo."""
        out = self._cc(x) + self.atom * (np.asarray(x) > self.lo)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Generalized inverse min{x : cdf(x) >= u}, honoring the atom."""
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0))
        if not self.atom:  # u is already clipped to the continuous mass
            out = self.cont_quantile(u)
            return float(out[0]) if scalar else out
        out = np.where(u <= self.atom_span, self.lo,
                       self.cont_quantile(np.clip(u - self.atom, 0.0, 1.0 - self.atom)))
        return float(out[0]) if scalar else out

    @cached_property
    def atom_span(self) -> float:
        """join = cdf(lo), the top of the uniforms `quantile` maps to lo: every
        u <= join has cdf(lo) >= u, even where cont_cdf(lo) is not 0 but within
        CDF_TOL of it, and the continuous quantile takes the rest."""
        return self.cdf(self.lo)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty(size)
        for s in blocks(size):
            out[s] = self.quantile(rng.random(s.stop - s.start))
        return out


def _check_m_v(m: int, v: float) -> None:
    if m < 2:
        raise ValueError(f"m: need m >= 2, got {m}")
    if not 1.0 / m - CDF_TOL <= v < math.inf:
        raise ValueError(f"v: must be finite and >= 1/m, got v={v}, m={m}")


def and_bid_cdf(m: int, v: float) -> AtomicCDF:
    """F(y) = (v - 1/m)/(v - y) on [0, 1/m], atom at 0 of mass 1 - 1/(m v)."""
    _check_m_v(m, v)
    top = 1.0 / m
    if v <= top + CDF_TOL:  # all mass at 1/m
        return AtomicCDF(top, top, 1.0, lambda x: np.zeros(np.shape(x)),
                         lambda u: np.full(np.shape(u), top))
    a0 = 1.0 - 1.0 / (m * v)
    return AtomicCDF(0.0, top, a0,
                     lambda y: (v - top) / (v - y) - a0,
                     lambda c: v - (v - top) / (c + a0))


def or_bid_cdf(m: int) -> AtomicCDF:
    """G(x) = (m-1) x / (1 - x) on [0, 1/m]; atomless."""
    if m < 2:
        raise ValueError(f"m: need m >= 2, got {m}")
    return AtomicCDF(0.0, 1.0 / m, 0.0,
                     lambda x: (m - 1) * x / (1.0 - x),
                     lambda u: u / (m - 1.0 + u))


@dataclass(frozen=True)
class AndOrStrategyPair:
    """The AND-OR equilibrium strategies for m items and OR value v."""

    m: int
    v: float

    def __post_init__(self):
        _check_m_v(self.m, self.v)

    @property
    def top(self) -> float:
        return 1.0 / self.m

    @cached_property
    def F(self) -> AtomicCDF:
        return and_bid_cdf(self.m, self.v)

    @cached_property
    def G(self) -> AtomicCDF:
        return or_bid_cdf(self.m)

    def sample_and_bids(self, rng, size: int) -> np.ndarray:
        """Common bid placed on every item."""
        return self.F.sample(rng, size)

    def sample_or_bids(self, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(item index, bid on it); all other items get bid 0. The items come
        first, from one `rng.integers` call."""
        return rng.integers(0, self.m, size), self.sample_or_item_bids(rng, size)

    def sample_or_item_bids(self, rng, size: int) -> np.ndarray:
        """The OR bid on its item, drawn after all the trials' items."""
        return self.G.sample(rng, size)


def andor_utility_and(pair: AndOrStrategyPair, bids):
    """Exact expected AND utility of bid rows (..., m) against the OR strategy.

    Wins item j unless the OR player picked j and outbid it (zero-bid ties
    go to AND), so the utility is one term per item,
    sum_j [G_lt(x_j)(1 - x_j) - x_j (m - 1)] / m. Identically 0 on the cube
    [0, 1/m]^m; bids above 1/m are evaluated literally and are strictly
    worse than their clamped counterparts. One row gives a float.
    """
    x = np.asarray(bids, dtype=np.float64)
    if x.shape[-1:] != (pair.m,):
        raise ValueError(f"need rows of {pair.m} bids")
    g_lt = pair.G.prob_lt(x)
    win_item = (pair.m - 1.0) / pair.m + g_lt / pair.m
    u = g_lt.sum(axis=-1) / pair.m - (x * win_item).sum(axis=-1)
    return u if u.ndim else float(u)


def andor_utility_or(pair: AndOrStrategyPair, bids):
    """Exact expected OR utility of bid rows (..., m) against the AND strategy.

    The AND bid y is common to all items, so the OR player wins something
    iff y < max(bids), and pays each positive bid that individually beats
    y. Keeping only the maximal entry never hurts. One row gives a float.
    """
    x = np.asarray(bids, dtype=np.float64)
    if x.shape[-1:] != (pair.m,):
        raise ValueError(f"need rows of {pair.m} bids")
    f_lt = pair.F.prob_lt(x)
    u = pair.v * pair.F.prob_lt(x.max(axis=-1)) - (x * f_lt).sum(axis=-1)
    return u if u.ndim else float(u)


def andor_equilibrium_utilities(pair: AndOrStrategyPair) -> tuple[float, float]:
    """(AND, OR) expected utilities at the equilibrium: (0, v - 1/m)."""
    return 0.0, pair.v - pair.top


@dataclass(frozen=True)
class WelfareEstimate:
    estimate: float
    ci99: float
    trials: int
    seed: int
    atom_freq: float
    atom_prob: float


Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def mean_ci99(v: np.ndarray) -> tuple[float, float]:
    """(v.mean(), Z99 * v.std(ddof=1) / sqrt(n)) of a float64 array bit for bit,
    by numpy's own steps done in place: v ends as its squared deviations."""
    n = v.size
    mean = np.add.reduce(v) / n
    v -= mean
    np.square(v, out=v)
    return float(mean), Z99 * math.sqrt(np.add.reduce(v) / (n - 1)) / math.sqrt(n)


def andor_equilibrium_welfare(pair: AndOrStrategyPair, trials: int, seed: int) -> WelfareEstimate:
    """Monte Carlo welfare of the AND-OR equilibrium (AND value 1, OR value v).

    Welfare is 1 when the AND player wins every item and v when the OR
    player takes its item. Also reports the empirical frequency of the AND
    zero-bid atom against its analytic mass 1 - 1/(m v).
    """
    check_count(trials)
    rng = rng_for(seed, "andor-welfare", pair.m)
    welfare = pair.sample_and_bids(rng, trials)  # each block's AND bids become its welfare
    rng.integers(0, pair.m, trials)  # the OR items: unread, but drawn as sample_or_bids does
    outcome = np.array([pair.v, 1.0])  # an exact tie y == x goes to OR
    zeros = 0
    for s in blocks(trials):
        x = pair.sample_or_item_bids(rng, s.stop - s.start)
        zeros += np.count_nonzero(welfare[s] == 0.0)
        outcome.take((welfare[s] > x).view(np.int8), out=welfare[s], mode="clip")
    est, ci = mean_ci99(welfare)
    atom_prob = pair.F.atom if pair.F.lo == 0.0 else 0.0  # a point mass at 1/m bids no zeros
    return WelfareEstimate(est, ci, trials, seed, zeros / trials, atom_prob)


def andor_utility_mc(pair: AndOrStrategyPair, role: str, bids, trials: int,
                     seed: int) -> tuple[float, float]:
    """Monte Carlo estimate (mean, 99% CI half-width) of a deviation's
    utility, by simulating the opponent's closed-form play. Independent
    cross-check of the analytic evaluators.

    The opponent's play has only m + 1 outcomes for the deviator's win set,
    so each outcome's utility is computed once, as a row of an (m + 1)-row
    table, and each trial looks its outcome up. Against an OR bid g on item
    k the AND deviator loses item k (row k) or wins everything (row m; zero
    ties go to AND). Against the common AND bid y the OR deviator wins the
    items bid above y, fixed by the number c of its bids at or below y (row
    c wins the items bid at least the (c + 1)-th smallest bid; row m wins
    none; ties, including the 0 atom, go to AND).

    Both lookups are gathers with no data-dependent select. The AND
    deviator's index is k + m [won], into a 2m-entry table. The OR
    deviator's c comes from the uniform r that `F.quantile` would turn
    into y, with no y computed: c is the number of its bids <= lo when r
    is at or below join (`F.atom_span`), and otherwise the number of
    thresholds `_first_reaching(F, ...)` at or below r. G's u/(m - 1 + u)
    is not monotone in floating point (the rounded denominator can leave a
    larger u an ulp lower; on adjacent doubles this happens for every m
    from 2 to 16), so the AND deviator keeps computing g."""
    if role not in ("and", "or"):
        raise ValueError(f"role must be 'and' or 'or', got {role!r}")
    x = np.asarray(bids, dtype=np.float64)
    if x.shape != (pair.m,):
        raise ValueError(f"bids must have shape ({pair.m},), got {x.shape}")
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("bids must be finite and >= 0")
    check_count(trials)
    rng = rng_for(seed, "andor-mc", role)
    m, u = pair.m, np.empty(trials)
    if role == "and":
        items = rng.integers(0, m, trials)  # as sample_or_bids draws them
        win = ~np.eye(m + 1, m, dtype=bool)
        table = np.where(win.all(axis=1), 1.0, 0.0) - (win * x[None, :]).sum(axis=1)
        table = np.append(table[:m], np.full(m, table[m]))  # entry k + m: won everything
        for s in blocks(trials):
            g, it = pair.sample_or_item_bids(rng, s.stop - s.start), items[s]
            won = x.take(it) > g
            if not g.all():  # a zero tie goes to AND
                won |= g == 0.0
            u[s] = table.take(it + m * won)
    else:
        F, cuts = pair.F, np.sort(x)
        win = x[None, :] >= np.append(cuts, np.inf)[:, None]
        table = pair.v * win.any(axis=1) - (win * x[None, :]).sum(axis=1)
        join = F.atom_span
        reach = _first_reaching(F, cuts)  # r >= reach[j] iff y >= cuts[j], for r > join
        steps = np.unique(reach[reach < 1.0])  # a uniform is < 1: the rest are never reached
        # entry i: i steps reached; the last, which mode="wrap" reads for row -1
        # (r <= join): y = lo
        lookup = table.take(np.concatenate(
            [[0], reach.searchsorted(steps, side="right"), [cuts.searchsorted(F.lo, side="right")]]))
        for s in blocks(trials):
            r = rng.random(s.stop - s.start)
            row = np.zeros(r.size, np.intp)
            for t in steps:
                row += r >= t
            row -= r <= join
            lookup.take(row, out=u[s], mode="wrap")
    return mean_ci99(u)


def _first_reaching(F: AtomicCDF, cuts: np.ndarray) -> np.ndarray:
    """For each cut, the smallest double r > join (`F.atom_span`) with
    F.quantile(r) >= cut, or 1.0 when no double below 1 has one.

    Past join, F.quantile(r) is v - (v - top)/(clip(r - atom, 0, rest) + a0)
    for the AND bid (a constant for its point mass): a chain of IEEE
    operations on one varying input each, every one rounded and
    nondecreasing in it, so the quantile is nondecreasing in r in floating
    point too, and one threshold per cut decides y >= cut exactly. Bisection
    over the bit patterns of the doubles in (join, 1], which order as int64.
    """
    join = F.atom_span
    lo = np.full(cuts.shape, max(np.nextafter(join, np.inf), 0.0)).view(np.int64)
    hi = np.full(cuts.shape, 1.0).view(np.int64)
    while (open_ := lo < hi).any():
        mid = lo + (hi - lo) // 2
        ok = F.quantile(mid.view(np.float64)) >= cuts
        hi = np.where(open_ & ok, mid, hi)
        lo = np.where(open_ & ~ok, mid + 1, lo)
    return hi.view(np.float64)


def triangle_utility(y: float, z: float) -> float:
    """Deviation utility in the triangle game: bid y on one wanted item,
    z on the other, against two opponents on F(x) = 2x. Equals -2(y-z)^2."""
    return -2.0 * (y - z) ** 2


@dataclass(frozen=True)
class SingleMindedSymmetric:
    """Symmetric single-minded equilibrium: bundle size k, demand d per item.

    Players share bundle value `value`; bids live on [0, value/k] with
    G(x) = (k x / value)^(1/((d-1)(k-1))). Requires k >= 2 (the exponent is
    undefined at k = 1) and d >= 2.
    """

    k: int
    d: int
    value: float = 1.0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k: bundle size must be >= 2, got {self.k}")
        if self.d < 2:
            raise ValueError(f"d: per-item demand must be >= 2, got {self.d}")
        if self.value <= 0:
            raise ValueError(f"value: bundle value must be positive, got {self.value}")

    @property
    def top(self) -> float:
        return self.value / self.k

    @cached_property
    def cdf(self) -> AtomicCDF:
        e = (self.d - 1) * (self.k - 1)
        return AtomicCDF(0.0, self.top, 0.0,
                         lambda x: (self.k * x / self.value) ** (1.0 / e),
                         lambda u: self.value * u ** float(e) / self.k)


def singleminded_utility(sm: SingleMindedSymmetric, bids):
    """Exact expected deviation utility for one player bidding `bids` on its
    k items while everyone else follows the symmetric strategy.

    The d-1 competitors on each item are distinct players (bundles meet in
    at most one item), so wins are independent across items: the player
    takes item j with probability G(x_j)^(d-1) and its utility is
    value * prod_j G(x_j)^(d-1) - sum_j x_j G(x_j)^(d-1), which is <= 0
    with equality exactly on the uniform-bid diagonal. `bids` holds the k
    per-item bids as numbers or as arrays that broadcast together, so
    `np.ix_(*[axis] * k)` scores the whole grid axis^k without building it.
    """
    if len(bids) != sm.k:
        raise ValueError(f"need {sm.k} bids")
    cdf = sm.cdf
    x = [np.asarray(b, dtype=np.float64) for b in bids]
    # numpy's ** on arrays, never a Python float's, whose x ** 2 can round differently
    win = [np.asarray(cdf.cdf(b)) ** (sm.d - 1) for b in x]
    u = sm.value * math.prod(win) - sum(b * w for b, w in zip(x, win))
    return u if np.ndim(u) else float(u)


def and_support_sum_check(support, value_full: float):
    """Verify that no AND bid vector of `support` (one per row, or a single
    vector) sums above the full-set value. Returns None when the check
    passes, else a witness bid vector. Sums may pass the value by MONEY_TOL."""
    vecs = np.atleast_2d(np.asarray(support, dtype=np.float64))
    sums = vecs.sum(axis=1)
    bad = int(np.argmax(sums))
    return vecs[bad] if sums[bad] > value_full + MONEY_TOL else None
