"""Combinatorial valuations over m items and their structural classes.

A valuation maps item subsets (bitmasks) to money. All valuations here are
normalized (empty set worth 0), nonnegative, and monotone non-decreasing;
`check_valid` verifies this by exhaustive scan. Each class has one
evaluator, `_table`, which builds the dense 2^m table (m <= MAX_ITEMS);
`value` and `value_max` read that cached table. Every bundle sum, of item
weights, clause weights or prices, comes from `bundle_costs`, which adds
items in ascending order.

The XOS machinery (`xos_supporting_clause`, `beta_of`) computes, for a
target set T, an additive vector dominated by the valuation everywhere and
as large as possible on T. The ratio v(T) / (best such sum) over all T is
the valuation's XOS approximation factor beta (1 for fractionally
subadditive valuations, infinity when no nonzero dominated additive vector
exists, as for AND or single-minded bidders with bundles of size >= 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lp import LpError, feasible_point
from .sets import MAX_ITEMS, from_items, full_set, is_subset, members, subsets

MONEY_TOL = 1e-9


def bit_matrix(m: int) -> np.ndarray:
    """(2^m, m) uint8 0/1 membership table; row s column j is item j's bit of s."""
    words = np.arange(1 << m, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(words, axis=1, count=m, bitorder="little")


def paid(won: np.ndarray, amounts: np.ndarray) -> np.ndarray:
    """0 + won_0 * a_0 + won_1 * a_1 + ... over the last axis, items added
    one at a time in ascending order: the winning bids of each bid row, or
    each bundle's cost. Recorded payloads depend on that summation order."""
    total = 0.0
    for j in range(won.shape[-1]):
        total = total + won[..., j] * amounts[..., j]
    return total


def bundle_costs(prices) -> np.ndarray:
    """Cost of every bundle (index = bitmask) at per-item prices: (m, ...)
    prices give (2^m, ...) costs, `paid` over the bundles' bit rows, so a
    bundle's cost is 0 + p_j1 + p_j2 + ... over its items j1 < j2 < ..."""
    prices = np.moveaxis(np.asarray(prices, dtype=np.float64), 0, -1)
    m = prices.shape[-1]
    return paid(bit_matrix(m).reshape((1 << m,) + (1,) * (prices.ndim - 1) + (m,)), prices)


class Valuation:
    """Base class; subclasses are frozen dataclasses and hence hashable/immutable.
    A subclass defines `_table`, its one evaluator."""

    m: int

    def value(self, s: int) -> float:
        return float(self.as_table()[s])

    def value_max(self) -> float:
        return float(self.as_table()[-1])

    def as_table(self) -> np.ndarray:
        """Dense value table indexed by bitmask (read-only, cached on the instance).
        Capped at m <= MAX_ITEMS."""
        table = getattr(self, "_dense", None)
        if table is None:
            if self.m > MAX_ITEMS:
                raise ValueError(f"dense table needs m <= {MAX_ITEMS}, got {self.m}")
            table = self._table()
            if not np.isfinite(table).all():  # a non-finite entry, or a sum past float range
                raise ValueError(f"values must be finite, got {table[~np.isfinite(table)][0]}")
            table.setflags(write=False)
            object.__setattr__(self, "_dense", table)
        return table

    def _table(self) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"need at least one item, got m={m}")


def _check_amounts(field: str, amounts) -> None:
    """Refuse a negative or non-finite money amount, naming its field."""
    bad = [a for a in amounts if not 0 <= a < math.inf]
    if bad:
        raise ValueError(f"{field} must be finite and >= 0, got {bad[0]}")


@dataclass(frozen=True)
class TableValuation(Valuation):
    m: int
    table: tuple

    def __post_init__(self):
        _check_m(self.m)
        if self.m > MAX_ITEMS:
            raise ValueError(f"table form capped at m <= {MAX_ITEMS}")
        if len(self.table) != 1 << self.m:
            raise ValueError(f"table needs 2^{self.m} entries, got {len(self.table)}")
        object.__setattr__(self, "table", tuple(float(x) for x in self.table))
        self.as_table()  # refuses a non-finite entry

    def _table(self) -> np.ndarray:
        return np.array(self.table)

    def to_json(self) -> dict:
        return {"kind": "table", "m": self.m, "values": list(self.table)}


@dataclass(frozen=True)
class AdditiveValuation(Valuation):
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        _check_m(self.m)
        _check_amounts("weights", self.weights)

    @property
    def m(self) -> int:
        return len(self.weights)

    def _table(self) -> np.ndarray:
        return bundle_costs(np.array(self.weights))

    def to_json(self) -> dict:
        return {"kind": "additive", "m": self.m, "weights": list(self.weights)}


@dataclass(frozen=True)
class SingleMindedValuation(Valuation):
    """Worth `amount` for any superset of `bundle`, 0 otherwise."""

    m: int
    bundle: int
    amount: float

    def __post_init__(self):
        _check_m(self.m)
        if not is_subset(self.bundle, full_set(self.m)) or self.bundle == 0:
            raise ValueError("bundle must be a nonempty subset of the universe")
        object.__setattr__(self, "amount", float(self.amount))
        _check_amounts("value", (self.amount,))

    def _table(self) -> np.ndarray:
        s = np.arange(1 << self.m)
        return np.where((s & self.bundle) == self.bundle, self.amount, 0.0)

    def to_json(self) -> dict:
        return {"kind": "single_minded", "m": self.m, "items": members(self.bundle),
                "value": self.amount}


@dataclass(frozen=True)
class AndValuation(Valuation):
    """Worth `amount` for the full set only."""

    m: int
    amount: float

    def __post_init__(self):
        _check_m(self.m)
        object.__setattr__(self, "amount", float(self.amount))
        _check_amounts("value", (self.amount,))

    def _table(self) -> np.ndarray:
        table = np.zeros(1 << self.m)
        table[-1] = self.amount
        return table

    def to_json(self) -> dict:
        return {"kind": "and", "m": self.m, "value": self.amount}


@dataclass(frozen=True)
class OrValuation(Valuation):
    """Worth `amount` for any set meeting the designated items (default: all)."""

    m: int
    amount: float
    items: int = -1

    def __post_init__(self):
        _check_m(self.m)
        if self.items == -1:
            object.__setattr__(self, "items", full_set(self.m))
        if not is_subset(self.items, full_set(self.m)) or self.items == 0:
            raise ValueError("designated items must be a nonempty subset")
        object.__setattr__(self, "amount", float(self.amount))
        _check_amounts("value", (self.amount,))

    def _table(self) -> np.ndarray:
        return np.where(np.arange(1 << self.m) & self.items, self.amount, 0.0)

    def to_json(self) -> dict:
        out = {"kind": "or", "m": self.m, "value": self.amount}
        if self.items != full_set(self.m):
            out["items"] = members(self.items)
        return out


@dataclass(frozen=True)
class XosValuation(Valuation):
    """Maximum over additive clauses: v(S) = max_k sum_{j in S} clauses[k][j]."""

    clauses: tuple

    def __post_init__(self):
        cl = tuple(tuple(float(w) for w in c) for c in self.clauses)
        if not cl:
            raise ValueError("need at least one clause")
        if len({len(c) for c in cl}) != 1:
            raise ValueError("clauses must share a length")
        _check_amounts("clauses", [w for c in cl for w in c])
        object.__setattr__(self, "clauses", cl)
        _check_m(self.m)

    @property
    def m(self) -> int:
        return len(self.clauses[0])

    def _table(self) -> np.ndarray:
        return bundle_costs(np.array(self.clauses).T).max(axis=1)

    def to_json(self) -> dict:
        return {"kind": "xos", "m": self.m, "clauses": [list(c) for c in self.clauses]}


def numbers(value, field: str) -> np.ndarray:
    """A file's numbers as float64; a ValueError naming `field` refuses str, bool or ragged."""
    flat = [value]
    for x in flat:  # extended while iterated: a walk over the whole nesting
        if isinstance(x, list):
            flat.extend(x)
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{field}: need numbers, got {x!r}")
    try:
        return np.asarray(value, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # ragged, or an integer past float range
        raise ValueError(f"{field}: need numbers ({exc})") from None


def valuation_from_json(d: dict, field: str = "valuation") -> Valuation:
    """The valuation object `d`; a ValueError names `field`, or `field.key`
    if not numbers, or if `m` or `items` is not integers (booleans refused)."""
    num = {k: numbers(d[k], f"{field}.{k}") for k in ("weights", "values", "clauses", "value")
           if isinstance(d, dict) and k in d}
    if isinstance(d, dict) and type(d.get("m", 0)) is not int:
        raise ValueError(f"{field}.m: need an integer, got {d['m']!r}")
    if isinstance(d, dict) and not (isinstance(d.get("items", []), list)
                                    and all(type(j) is int for j in d.get("items", []))):
        raise ValueError(f"{field}.items: need a list of integers, got {d['items']!r}")
    try:
        kind = d["kind"]
        if kind == "table":
            v = TableValuation(d["m"], tuple(num["values"]))
        elif kind == "additive":
            v = AdditiveValuation(tuple(num["weights"]))
        elif kind == "single_minded":
            v = SingleMindedValuation(d["m"], from_items(d["items"]), num["value"])
        elif kind == "and":
            v = AndValuation(d["m"], num["value"])
        elif kind == "or":
            v = OrValuation(d["m"], num["value"], from_items(d["items"]) if "items" in d else -1)
        elif kind == "xos":
            v = XosValuation(tuple(map(tuple, num["clauses"])))
        else:
            raise ValueError(f"unknown valuation kind {kind!r}")
        v.as_table()  # non-finite or past the dense-table cap: refused naming the field
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{field}: malformed valuation ({exc!r})") from exc
    return v


def valuations_from_json(items: list, field: str) -> list[Valuation]:
    """Valuation objects where they enter a game. A ValueError naming
    `field[k]` refuses an entry that is malformed, covers other than the
    first entry's m items, has a non-finite value or fails `check_valid`."""
    if not isinstance(items, list) or not items:
        raise ValueError(f"{field}: need a nonempty list of valuation objects")
    vals = []
    for k, d in enumerate(items):
        v = valuation_from_json(d, f"{field}[{k}]")
        if vals and v.m != vals[0].m:
            raise ValueError(f"{field}[{k}]: covers m={v.m} items, {field}[0] has m={vals[0].m}")
        bad = check_valid(v)
        if bad is not None:
            raise ValueError(f"{field}[{k}]: {bad.kind} violation at "
                             f"v({members(bad.set_small)}), v({members(bad.set_large)})")
        vals.append(v)
    return vals


@dataclass(frozen=True)
class Violation:
    """First witness of a failed normalization/monotonicity scan."""

    kind: str  # "empty_nonzero" | "negative" | "monotonicity"
    set_small: int
    set_large: int
    value_small: float
    value_large: float


def check_valid(v: Valuation, tol: float = MONEY_TOL) -> Violation | None:
    """Verify v(empty)=0, nonnegativity, and monotonicity on adjacent pairs.

    Scans all (S, S+{j}) pairs on the dense table; returns the first
    violating pair, or None if the valuation is valid.
    """
    t = v.as_table()
    if abs(t[0]) > tol:
        return Violation("empty_nonzero", 0, 0, float(t[0]), float(t[0]))
    neg = np.flatnonzero(t < -tol)
    if neg.size:
        s = int(neg[0])
        return Violation("negative", s, s, float(t[s]), float(t[s]))
    s = np.arange(1 << v.m)
    for j in range(v.m):
        without = np.flatnonzero((s & (1 << j)) == 0)
        bad = np.flatnonzero(t[without | (1 << j)] < t[without] - tol)
        if bad.size:
            lo = int(without[bad[0]])
            hi = lo | (1 << j)
            return Violation("monotonicity", lo, hi, float(t[lo]), float(t[hi]))
    return None


def xos_supporting_clause(v: Valuation, target: int, tol: float = MONEY_TOL) -> np.ndarray:
    """Additive vector a, zero off `target`, with a(S) <= v(S) for every S
    and a(target) maximal.

    For an explicit XOS valuation this is the maximizing clause restricted
    to `target`; otherwise it is the optimum of the LP
    max sum_{j in target} a_j s.t. a(S) <= v(S) for all S, a >= 0.
    Constraints are only enumerated for S inside `target`: for monotone v
    and a supported on `target`, a(S) = a(S & target) <= v(S & target) <= v(S).
    """
    if not is_subset(target, full_set(v.m)):
        raise ValueError("target must be a subset of the universe")
    a = np.zeros(v.m)
    if target == 0:
        return a
    idx = members(target)
    if isinstance(v, AdditiveValuation):
        a[idx] = [v.weights[j] for j in idx]
        return a
    if isinstance(v, XosValuation):
        clauses = np.array(v.clauses)[:, idx]
        a[idx] = clauses[np.argmax(bundle_costs(clauses.T)[-1])]  # each clause's sum on target
        return a
    t = v.as_table()
    sub = np.array([s for s in subsets(target) if s])
    x = feasible_point(bit_matrix(v.m)[np.ix_(sub, idx)], t[sub], len(idx),
                       minimize=-np.ones(len(idx)))
    if x is None:
        raise LpError(f"supporting-clause LP infeasible at target {target:b}")
    a[idx] = np.maximum(x, 0.0)  # clip solver dust below 0
    # feasibility can be off by solver tolerance only; verify on target's subsets
    bad = sub[bundle_costs(a)[sub] > t[sub] + tol]
    if bad.size:
        raise RuntimeError(f"LP clause infeasible at set {int(bad[0]):b}")
    return a


@dataclass(frozen=True)
class BetaCertificate:
    """Per-set supporting clauses and the resulting XOS approximation factor.

    beta = max over nonempty T of v(T) / clause_sum(T), with the conventions
    beta = 1 for v identically 0 and beta = inf when some T has positive
    value but only the zero clause.
    """

    beta: float
    clauses: dict = field(repr=False)  # target bitmask -> weight array


def beta_of(v: Valuation, tol: float = MONEY_TOL) -> BetaCertificate:
    """XOS approximation factor via one supporting-clause LP per subset (m <= 12)."""
    if v.m > 12:
        raise ValueError("beta_of enumerates one LP per subset; capped at m <= 12")
    t = v.as_table()
    beta = 1.0
    clauses: dict[int, np.ndarray] = {}
    for target in range(1, 1 << v.m):
        a = xos_supporting_clause(v, target)
        clauses[target] = a
        vt = t[target]
        if vt <= tol:
            continue
        got = bundle_costs(a[members(target)])[-1]  # the sum of a over target
        beta = max(beta, math.inf if got <= tol else vt / got)
    return BetaCertificate(beta, clauses)
