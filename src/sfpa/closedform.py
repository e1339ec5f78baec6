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

Utility evaluators are exact expectations against these distributions.
Ties at bid 0 between the AND atom and the OR player's untouched items
are broken in favor of the AND bidder (the OR side is atomless, so the
equilibrium itself is tie-rule independent; the convention only fixes
bookkeeping on zero bids).

Monte Carlo runs in the slices of `sfpa.auction.blocks`, BLOCK trials
(or draws) each: each block draws its uniforms from the one generator,
in order, and writes its per-trial values into one array preallocated
for all trials. Successive draws from a generator continue one stream,
so the blocks see the very doubles a single draw of every trial would,
and the mean and CI are reduced over the whole per-trial array as
before: the results are bit for bit those of the one-shot form, while
the temporaries shrink to one block. Trial and sample counts whose
arrays would pass MC_BYTE_LIMIT bytes are refused before anything is
drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .auction import blocks
from .rng import rng_for

CDF_TOL = 1e-12
MC_BYTE_LIMIT = 2 ** 31  # largest estimated working set of a Monte Carlo run or sample


def check_count(count, field: str = "trials", least: int = 2, per_unit: int = 40) -> None:
    """Refuse a trial or sample count that is not an integer >= least, or
    whose arrays, at about per_unit bytes each, would pass MC_BYTE_LIMIT.
    The default bounds a Monte Carlo trial: at most four per-trial arrays
    (bids, OR items, per-trial values) and the temporary of their std."""
    if not isinstance(count, (int, np.integer)) or count < least:
        raise ValueError(f"{field} must be an integer >= {least}, got {count!r}")
    if count * per_unit > MC_BYTE_LIMIT:
        raise ValueError(f"{field}: {count} would take about {count * per_unit} bytes, over "
                         f"the {MC_BYTE_LIMIT}-byte limit; use at most {MC_BYTE_LIMIT // per_unit}")


@dataclass(frozen=True)
class AtomicCDF:
    """Distribution on [lo, hi]: a continuous CDF part plus point atoms.

    `cont_cdf` maps x in [lo, hi] to the continuous mass on [lo, x] and
    `cont_quantile` inverts it on [0, 1 - total atom mass]. Both must
    accept numpy arrays. Construction validates total mass, monotonicity,
    and endpoints.
    """

    lo: float
    hi: float
    atoms: tuple  # of (point, mass), ascending points
    cont_cdf: Callable
    cont_quantile: Callable

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("domain is empty")
        atom_mass = sum(m for _, m in self.atoms)
        if any(m < 0 for _, m in self.atoms):
            raise ValueError("atom masses must be nonnegative")
        if any(not self.lo <= p <= self.hi for p, _ in self.atoms):
            raise ValueError("atoms must lie in the domain")
        if list(self.atoms) != sorted(self.atoms):
            raise ValueError("atoms must be sorted by point")
        cont = float(self.cont_cdf(np.float64(self.hi)))
        if not abs(atom_mass + cont - 1.0) <= CDF_TOL:  # NaN fails it too
            raise ValueError(f"total mass {atom_mass + cont} != 1")
        if abs(float(self.cont_cdf(np.float64(self.lo)))) > CDF_TOL:
            raise ValueError("continuous part must start at 0")
        grid = np.linspace(self.lo, self.hi, 257)
        if np.diff(self.cont_cdf(grid)).min(initial=0.0) < -CDF_TOL:
            raise ValueError("continuous part must be nondecreasing")

    @property
    def cont_mass(self) -> float:
        return 1.0 - sum(m for _, m in self.atoms)

    def _cc(self, x):
        """Continuous mass on [lo, x], clamped outside the domain."""
        x = np.asarray(x, dtype=np.float64)
        return self.cont_cdf(np.clip(x, self.lo, self.hi))

    def cdf(self, x):
        """Pr[X <= x]."""
        out = self._cc(x)
        for p, mass in self.atoms:
            out = out + mass * (np.asarray(x) >= p)
        return out if out.ndim else float(out)

    def prob_lt(self, x):
        """Pr[X < x]; differs from cdf only at atom points."""
        out = self._cc(x)
        for p, mass in self.atoms:
            out = out + mass * (np.asarray(x) > p)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Generalized inverse min{x : cdf(x) >= u}, honoring atoms."""
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0))
        if not self.atoms:  # cont_mass is 1, so u is already clipped to it
            out = self.cont_quantile(u)
            return float(out[0]) if scalar else out
        out = np.empty(u.shape)
        unset = np.ones(u.shape, dtype=bool)
        acc = 0.0
        for p, mass in self.atoms:
            before = float(self._cc(p)) + acc
            take = unset & (u <= before)
            out[take] = self.cont_quantile(np.clip(u[take] - acc, 0.0, self.cont_mass))
            unset &= ~take
            take = unset & (u <= before + mass)
            out[take] = p
            unset &= ~take
            acc += mass
        out[unset] = self.cont_quantile(np.clip(u[unset] - acc, 0.0, self.cont_mass))
        return float(out[0]) if scalar else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty(size)
        for s in blocks(size):
            out[s] = self.quantile(rng.random(s.stop - s.start))
        return out


def _point_mass(at: float) -> AtomicCDF:
    return AtomicCDF(at, at, ((at, 1.0),),
                     lambda x: np.zeros(np.shape(x)),
                     lambda u: np.full(np.shape(u), at))


def and_bid_cdf(m: int, v: float) -> AtomicCDF:
    """F(y) = (v - 1/m)/(v - y) on [0, 1/m], atom at 0 of mass 1 - 1/(m v)."""
    top = 1.0 / m
    if not top - CDF_TOL <= v < math.inf:
        raise ValueError(f"v must be finite and >= 1/m, got v={v}, m={m}")
    if v <= top + CDF_TOL:
        return _point_mass(top)
    a0 = 1.0 - 1.0 / (m * v)
    return AtomicCDF(0.0, top, ((0.0, a0),),
                     lambda y: (v - top) / (v - y) - a0,
                     lambda c: v - (v - top) / (c + a0))


def or_bid_cdf(m: int) -> AtomicCDF:
    """G(x) = (m-1) x / (1 - x) on [0, 1/m]; atomless."""
    if m < 2:
        raise ValueError("the OR bid distribution needs m >= 2")
    return AtomicCDF(0.0, 1.0 / m, (),
                     lambda x: (m - 1) * x / (1.0 - x),
                     lambda u: u / (m - 1.0 + u))


@dataclass(frozen=True)
class AndOrStrategyPair:
    """The AND-OR equilibrium strategies for m items and OR value v."""

    m: int
    v: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need m >= 2")
        if not 1.0 / self.m - CDF_TOL <= self.v < math.inf:
            raise ValueError(f"v must be finite and >= 1/m, got v={self.v}, m={self.m}")

    @property
    def top(self) -> float:
        return 1.0 / self.m

    @cached_property
    def F(self) -> AtomicCDF:
        return and_bid_cdf(self.m, self.v)

    @cached_property
    def G(self) -> AtomicCDF:
        return or_bid_cdf(self.m)

    def in_cube(self, bids) -> bool:
        return bool(np.max(bids) <= self.top + CDF_TOL)

    def sample_and_bids(self, rng, size: int) -> np.ndarray:
        """Common bid placed on every item."""
        return self.F.sample(rng, size)

    def sample_or_bids(self, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(item index, bid on it); all other items get bid 0."""
        return rng.integers(0, self.m, size), self.G.sample(rng, size)


def andor_utility_and(pair: AndOrStrategyPair, bids):
    """Exact expected AND utility of bid rows (..., m) against the OR strategy.

    Wins item j unless the OR player picked j and outbid it (zero-bid ties
    go to AND), so the utility is one term per item,
    sum_j [G_lt(x_j)(1 - x_j) - x_j (m - 1)] / m. Identically 0 on the cube
    [0, 1/m]^m (`pair.in_cube`); bids above 1/m are evaluated literally and
    are strictly worse than their clamped counterparts. One row gives a float.
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


def andor_equilibrium_welfare(pair: AndOrStrategyPair, trials: int, seed: int) -> WelfareEstimate:
    """Monte Carlo welfare of the AND-OR equilibrium (AND value 1, OR value v).

    Welfare is 1 when the AND player wins every item and v when the OR
    player takes its item. Also reports the empirical frequency of the AND
    zero-bid atom against its analytic mass 1 - 1/(m v).
    """
    check_count(trials)
    rng = rng_for(seed, "andor-welfare", pair.m)
    y = pair.sample_and_bids(rng, trials)
    x = pair.sample_or_bids(rng, trials)[1]  # not holding the items: one array less at the peak
    welfare = np.empty(trials)
    for s in blocks(trials):
        welfare[s] = np.where(y[s] > x[s], 1.0, pair.v)  # exact float tie y == x is AND-first
    est = float(welfare.mean())
    ci = Z99 * float(welfare.std(ddof=1)) / math.sqrt(trials)
    atom_prob = 0.0 if pair.v <= pair.top + CDF_TOL else 1.0 - 1.0 / (pair.m * pair.v)
    return WelfareEstimate(est, ci, trials, seed, float(np.mean(y == 0.0)), atom_prob)


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
    none; ties, including the 0 atom, go to AND)."""
    if role not in ("and", "or"):
        raise ValueError(f"role must be 'and' or 'or', got {role!r}")
    x = np.asarray(bids, dtype=np.float64)
    if x.shape != (pair.m,):
        raise ValueError(f"bids must have shape ({pair.m},), got {x.shape}")
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("bids must be finite and >= 0")
    check_count(trials)
    rng = rng_for(seed, "andor-mc", role)
    u = np.empty(trials)
    if role == "and":
        items, g = pair.sample_or_bids(rng, trials)
        win = ~np.eye(pair.m + 1, pair.m, dtype=bool)
        table = np.where(win.all(axis=1), 1.0, 0.0) - (win * x[None, :]).sum(axis=1)
        for s in blocks(trials):
            u[s] = table.take(np.where((x.take(items[s]) > g[s]) | (g[s] == 0.0),
                                       pair.m, items[s]))
    else:
        y = pair.sample_and_bids(rng, trials)
        cuts = np.sort(x)
        win = x[None, :] >= np.append(cuts, np.inf)[:, None]
        table = pair.v * win.any(axis=1) - (win * x[None, :]).sum(axis=1)
        for s in blocks(trials):
            u[s] = table.take(cuts.searchsorted(y[s], side="right"))
    half = Z99 * float(u.std(ddof=1)) / math.sqrt(trials)
    return float(u.mean()), half


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
            raise ValueError("bundle size k must be >= 2 (exponent undefined at k=1)")
        if self.d < 2:
            raise ValueError("per-item demand d must be >= 2")
        if self.value <= 0:
            raise ValueError("bundle value must be positive")

    @property
    def top(self) -> float:
        return self.value / self.k

    @cached_property
    def cdf(self) -> AtomicCDF:
        e = (self.d - 1) * (self.k - 1)
        return AtomicCDF(0.0, self.top, (),
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


def and_support_sum_check(support, value_full: float, tol: float = 1e-9):
    """Verify that no AND bid vector of `support` (one per row, or a single
    vector) sums above the full-set value. Returns None when the check
    passes, else a witness bid vector."""
    vecs = np.asarray(support, dtype=np.float64)
    if vecs.ndim == 1:
        vecs = vecs[None, :]
    sums = vecs.sum(axis=1)
    bad = int(np.argmax(sums))
    if sums[bad] > value_full + tol:
        return vecs[bad]
    return None
