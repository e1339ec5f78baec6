"""One-shot simultaneous first-price auctions.

Bids are an (n, m) nonnegative matrix. Each item goes to a highest bidder
on it (ties within TIE_TOL resolved by the tie-breaking rule) at a price
equal to the winning bid. Utilities are quasi-linear.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sets import MAX_ITEMS, members
from .valuations import (MONEY_TOL, SCHEMA, Valuation, check_probs, entries, fields, numbers,
                         paid)

TIE_TOL = 1e-12  # bids this close count as tied
MAXIMIZER_LIMIT = 65536  # welfare maximizers listed or tried before giving up
CAP = 11_000_000  # default size cap: welfare-DP subset pairs, or grid Nash profiles


class CapExceeded(ValueError):
    """Raised when an enumeration or the welfare DP would exceed its size cap."""


@dataclass(frozen=True)
class PriorityRule:
    """Deterministic tie-breaking by a per-item priority permutation.

    order[j] lists player indices from most to least favored on item j.
    order=None favors the lowest player index on every item.
    """

    order: tuple | None = None

    def validate(self, n: int, m: int) -> None:
        if self.order is None:
            return
        if len(self.order) != m:
            raise ValueError(f"tie_rule: need one priority list per item ({m}), "
                             f"got {len(self.order)}")
        for perm in self.order:
            if sorted(perm) != list(range(n)):
                raise ValueError(f"tie_rule: item priority {perm} is not a permutation "
                                 f"of 0..{n - 1}")


@dataclass(frozen=True)
class RandomizedRule:
    """Mixture over deterministic rules; probabilities sum to 1 within PROB_TOL."""

    mixture: tuple  # of (probability, PriorityRule)

    def __post_init__(self):
        check_probs([p for p, _ in self.mixture], "tie_rule")

    def validate(self, n: int, m: int) -> None:
        for _, rule in self.mixture:
            rule.validate(n, m)


def rule_from_json(d, field: str = "tie_rule"):
    """A tie rule from JSON, keyed as SCHEMA says: index, priority (`order`:
    one list of player indices per item) or randomized (`mixture`: a list of
    {"prob", "rule"}). A ValueError names `field`, or the key within it."""
    kind = fields(d, field, SCHEMA["tie rule"])["kind"]
    if kind == "index":
        return PriorityRule()
    if kind == "priority":
        order = numbers(d["order"], f"{field}.order", 2, range(2 ** 63))
        return PriorityRule(tuple(map(tuple, order)))
    mixture = [(key, fields(b, key, SCHEMA["mixture entry"]))
               for key, b in entries(d["mixture"], f"{field}.mixture")]
    return RandomizedRule(tuple((float(numbers(b["prob"], f"{key}.prob", 0)),
                                 rule_from_json(b["rule"], f"{key}.rule")) for key, b in mixture))


@dataclass(frozen=True)
class Allocation:
    """Partition of the items: winners[j] is the player receiving item j."""

    winners: tuple

    def bundle(self, player: int) -> int:
        s = 0
        for j, w in enumerate(self.winners):
            if w == player:
                s |= 1 << j
        return s

    def bundles(self, n: int) -> list[int]:
        return [self.bundle(i) for i in range(n)]

    def to_json(self, n: int) -> list:
        return [members(b) for b in self.bundles(n)]


def check_bids(bids, field: str = "bids") -> np.ndarray:
    """`bids` as a float64 matrix of finite, nonnegative bid rows; a
    ValueError names `field`."""
    b = np.asarray(bids, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"{field}: must be a matrix of bid rows")
    if not np.isfinite(b).all() or (b < 0).any():
        raise ValueError(f"{field}: must be finite and nonnegative")
    return b


# ---------------------------------------------------------------------------
# First-price kernel: the single vectorised home of the rule "each item goes
# to its highest bidder, a tie within TIE_TOL to the best priority rank, at
# the winning bid". Bid arrays are (..., n, m) profiles or (..., m) rows;
# leading axes batch trials or rounds. On a realized profile `wins` marks
# one winner per item, the mask `allocate` and `outcome` read, and
# `valuations.paid` adds the winning bids in item order.


def priority_ranks(rule: PriorityRule, n: int, m: int) -> np.ndarray:
    """(m, n) tie ranks: on item j the tied player of lowest rank wins. A
    randomized rule has none; `rival_play` scores it branch by branch."""
    if not isinstance(rule, PriorityRule):
        raise ValueError(f"tie_rule: need an index or priority rule, got {type(rule).__name__}")
    rule.validate(n, m)
    if rule.order is None:
        return np.tile(np.arange(n), (m, 1))
    return np.argsort(np.asarray(rule.order), axis=1)


def price_to_beat(bids: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(beat, ahead), each (..., n, m): every player's highest rival bid on
    every item, and the highest bid of the rivals who outrank it there, -inf
    where there are none. A player's own row does not enter its own pair."""
    others = bids[..., _rivals(bids.shape[-2]), :]  # (..., n, n - 1, m): player i's rivals' bids
    outranks = _outranks(ranks.dtype, ranks.shape, ranks.tobytes())
    return (np.maximum.reduce(others, axis=-2, initial=-np.inf),
            np.maximum.reduce(np.where(outranks, others, -np.inf), axis=-2, initial=-np.inf))


@lru_cache(maxsize=None)
def _rivals(n: int) -> np.ndarray:  # (n, n - 1): row i lists every player but i, in order
    return np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])


@lru_cache(maxsize=256)  # (n, n - 1, m), once per rule: rival r of player i outranks i on item j
def _outranks(dtype: np.dtype, shape: tuple, data: bytes) -> np.ndarray:
    ranks = np.frombuffer(data, dtype).reshape(shape).T
    mask = ranks[_rivals(shape[1])] < ranks[:, None, :]
    mask.flags.writeable = False  # one array serves every call with these ranks
    return mask


def wins(rows: np.ndarray, beat: np.ndarray, ahead: np.ndarray) -> np.ndarray:
    """Which bids in `rows` win their item against (beat, ahead): the bid is
    within TIE_TOL of the item's top bid and no better-ranked rival is."""
    return (rows >= beat - TIE_TOL) & (ahead < np.maximum(rows, beat) - TIE_TOL)


def bundle_masks(won: np.ndarray, bits: np.ndarray | None = None) -> np.ndarray:
    """Bitmask of the won items along the last axis: position j stands for
    item j, or for the item whose bit `bits` holds at j (slot-major rows)."""
    if bits is None:
        return won @ (1 << np.arange(won.shape[-1]))
    return np.add.reduce(won * bits, axis=-1)


def bid_utilities(table: np.ndarray, rows: np.ndarray, beat: np.ndarray,
                  ahead: np.ndarray) -> np.ndarray:
    """Utility of each bid row against (beat, ahead): the value of the won
    bundle minus the winning bids."""
    win = wins(rows, beat, ahead)
    return table[bundle_masks(win)] - paid(win, rows)


# ---------------------------------------------------------------------------
# Rival play: the one home of a bidder's expected utility against its rivals.
# Scans score lexicographic blocks of profiles at once and add weighted
# terms in order, so a block gives the bits of a profile-by-profile loop.
# Every bounded-memory loop of the package slices its work with `blocks`.

BLOCK = 2 ** 16  # float64 entries one vectorised step of a blocked loop holds


def blocks(total: int, width: int = 1):
    """Consecutive slices of range(total), each of at most max(1, BLOCK //
    width) elements: a block of `width` entries per element stays in BLOCK."""
    size = max(1, BLOCK // width)
    for lo in range(0, total, size):
        yield slice(lo, min(lo + size, total))


def rival_play(bids: np.ndarray, rule) -> list:
    """(probability, beat, ahead) of each deterministic branch of the tie
    rule, from `price_to_beat` over (..., n, m) profiles."""
    n, m = bids.shape[-2:]
    branches = [(1.0, rule)] if isinstance(rule, PriorityRule) else rule.mixture
    return [(prob, *price_to_beat(bids, priority_ranks(det, n, m))) for prob, det in branches]


def expected_utilities(table: np.ndarray, rows: np.ndarray, play: list, player: int):
    """Utility of `player`'s bid rows (..., m) in expectation over the
    branches of `play`, the rows broadcast against the profiles' leading
    axes: (K, 1, m) rows against (B,) profiles give (K, B) utilities."""
    return sum(prob * bid_utilities(table, rows, beat[..., player, :], ahead[..., player, :])
               for prob, beat, ahead in play)


def product_play(n: int, m: int, mixed: dict, width: int):
    """Independent finite mixtures in lexicographic blocks (the last player's
    choice varies fastest). `mixed` maps a player to its probabilities (K,)
    and bid rows (K, m); rows of probability 0 are skipped and other players
    bid zero. Yields the (B,) joint probabilities and (B, n, m) profiles of
    B combinations, B * width entries filling at most BLOCK (B >= 1)."""
    mixed = {k: (probs[probs > 0], rows[probs > 0]) for k, (probs, rows) in mixed.items()}
    sizes = [len(probs) for probs, _ in mixed.values()]
    for block in blocks(math.prod(sizes), width):
        index = np.arange(block.start, block.stop)
        weights, bids = np.ones(index.size), np.zeros((index.size, n, m))
        for (k, (probs, rows)), pick in zip(mixed.items(),
                                             np.unravel_index(index, sizes) if sizes else ()):
            weights = weights * probs[pick]
            bids[:, k] = rows[pick]
        yield weights, bids


def weighted_sum(total, weights: np.ndarray, values: np.ndarray):
    """total + weights[0] * values[0] + weights[1] * values[1] + ..., in order,
    so that summing a scan block by block gives the bits of a running total."""
    terms = weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values
    start = np.reshape(total, (1,) + values.shape[1:])
    return np.cumsum(np.concatenate([start, terms]), axis=0)[-1]


def allocate(bids, rule=PriorityRule()):
    """Allocation under the rule; a randomized rule yields [(prob, Allocation)]."""
    b = check_bids(bids)
    n, m = b.shape
    if isinstance(rule, RandomizedRule):
        rule.validate(n, m)
        return [(p, allocate(b, det)) for p, det in rule.mixture]
    own = wins(b, *price_to_beat(b, priority_ranks(rule, n, m)))
    return Allocation(tuple(own.argmax(axis=0).tolist()))


@dataclass(frozen=True)
class Outcome:
    """Utilities u_i = v_i(S_i) - sum of i's winning bids; welfare = sum v_i(S_i).

    For a randomized rule, `allocation` is None and the top-level numbers are
    probability-weighted expectations over `branches`.
    """

    allocation: Allocation | None
    utilities: tuple
    item_prices: tuple
    welfare: float
    revenue: float
    branches: tuple = ()


def outcome(vals: list[Valuation], bids, rule=PriorityRule()) -> Outcome:
    b = check_bids(bids)
    n, m = b.shape
    if len(vals) != n:
        raise ValueError(f"{len(vals)} valuations for {n} bid rows")
    if any(v.m != m for v in vals):
        raise ValueError("all valuations must cover the same m items")
    if isinstance(rule, RandomizedRule):
        rule.validate(n, m)
        branches = tuple((p, outcome(vals, b, det)) for p, det in rule.mixture)
        probs = np.array([p for p, _ in branches])
        utils = probs @ np.array([o.utilities for _, o in branches])
        prices = probs @ np.array([o.item_prices for _, o in branches])
        welfare = float(probs @ [o.welfare for _, o in branches])
        revenue = float(probs @ [o.revenue for _, o in branches])
        return Outcome(None, tuple(map(float, utils)), tuple(map(float, prices)),
                       welfare, revenue, branches)
    own = wins(b, *price_to_beat(b, priority_ranks(rule, n, m)))  # (n, m): who won what
    alloc = Allocation(tuple(own.argmax(axis=0).tolist()))
    values = [v.as_table()[s] for v, s in zip(vals, bundle_masks(own))]
    utilities = np.array(values) - paid(own, b)  # as bid_utilities scores them
    prices = b[alloc.winners, np.arange(m)].tolist()
    return Outcome(alloc, tuple(map(float, utilities)), tuple(prices), float(sum(values)),
                   float(sum(prices)))


@lru_cache(maxsize=None)
def _subset_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair sub <= S over m items, grouped by S ascending, as
    (S ^ sub, sub, index of each S's first pair); 3^m pairs in all."""
    s = sub = np.zeros(1, dtype=np.intp)
    for j in range(m):  # item j is outside S, in S but not in sub, or in sub
        s = np.concatenate([s, s | 1 << j, s | 1 << j])
        sub = np.concatenate([sub, sub, sub | 1 << j])
    order = np.argsort(s, kind="stable")
    return s[order] ^ sub[order], sub[order], np.flatnonzero(np.diff(s[order], prepend=-1))


def _welfare_dp(tables: np.ndarray) -> np.ndarray:
    """Max-plus subset DP over bidders in order, batched over leading axes:
    (..., n, 2^m) tables give the (...) optimum over all splits of the items.
    A split's welfare is the sequential sum t_0[S_0] + t_1[S_1] + ..., as
    the enumeration adds it, and rounding is monotone, so each stage's max
    is exactly the enumeration's."""
    n, size = tables.shape[-2:]
    f = tables[..., 0, :] + 0.0  # f[S]: best split of S among the bidders so far
    for k in range(1, n - 1):  # the 3^m pair table is built only when some stage needs it
        rest, sub, starts = _subset_pairs(size.bit_length() - 1)
        f = np.maximum.reduceat(f[..., rest] + tables[..., k, sub], starts, axis=-1)
    if n == 1:
        return f[..., -1]
    subs = np.arange(size)
    return (f[..., (size - 1) ^ subs] + tables[..., n - 1, subs]).max(axis=-1)


def welfare_maximizers(vals: list[Valuation], cap: int, tol: float):
    """The optimum, and a generator of the assignments (item -> player)
    whose welfare is within tol of it, in lexicographic order.

    Items are fixed in order, each to every player with which the DP over
    the items still free reaches the optimum within tol. That DP value is
    exactly the best welfare among the completions, so every branch taken
    ends in at least one assignment."""
    n, m = len(vals), vals[0].m
    if m > MAX_ITEMS:  # before 3^m is formed: a huge m would take minutes
        raise CapExceeded(f"m: the welfare DP covers at most {MAX_ITEMS} items, got m={m}")
    pairs = max(n - 2, 0) * 3 ** m + (1 << m)
    if pairs > cap:
        raise CapExceeded(f"welfare DP over {n} bidders, {m} items: (n-2)*3^m + 2^m = {pairs} "
                          f"subset pairs exceed cap {cap}; raise cap= (sfpa walrasian --cap)")
    tables = np.stack([v.as_table() for v in vals])
    best = float(_welfare_dp(tables))

    def search(j: int, fixed: np.ndarray, prefix: tuple):
        if j == m:
            yield prefix
            return
        free = np.arange(1 << (m - j - 1)) << (j + 1)
        masks = fixed | np.eye(n, dtype=np.intp) << j  # row p: item j to player p
        reach = _welfare_dp(tables[np.arange(n)[:, None], masks[:, :, None] | free])
        for p in np.flatnonzero(reach >= best - tol):
            yield from search(j + 1, masks[p], prefix + (int(p),))

    return best, search(0, np.zeros(n, dtype=np.intp), ())


def optimal_welfare(vals: list[Valuation], cap: int = CAP) -> tuple[float, Allocation]:
    """Exact welfare maximum by subset DP over bidders. Among ties, the
    lexicographically first assignment (item 0 most significant) wins."""
    best, found = welfare_maximizers(vals, cap, 0.0)
    return best, Allocation(next(found))


def optimal_allocations(vals: list[Valuation], cap: int = CAP, tol: float = MONEY_TOL,
                        limit: int = MAXIMIZER_LIMIT) -> tuple[float, list[Allocation]]:
    """All welfare maximizers (within tol), in lexicographic order."""
    best, found = welfare_maximizers(vals, cap, tol)
    out = [Allocation(a) for a in itertools.islice(found, limit + 1)]
    if len(out) > limit:
        raise CapExceeded(f"more than limit={limit} allocations within tol={tol} of the optimum")
    return best, out
