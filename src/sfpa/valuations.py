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
PROB_TOL = 1e-12  # how far a probability vector's sum may stray from 1


def read_only(a, dtype=np.float64) -> np.ndarray:
    """A read-only copy of `a` as `dtype`: no caller's write reaches a checked array."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def check_probs(probs, field: str) -> np.ndarray:
    """`probs` as read-only float64 probability vectors along the last axis:
    finite, every entry >= 0, each summing to 1 within PROB_TOL. A
    ValueError names `field`."""
    p = read_only(probs)
    if not np.isfinite(p).all() or (p < 0).any() or (abs(p.sum(axis=-1) - 1) > PROB_TOL).any():
        raise ValueError(f"{field}: probabilities must be finite, nonnegative and sum to 1")
    return p


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
        """Dense value table indexed by bitmask (read-only, cached on the instance)."""
        table = getattr(self, "_dense", None)
        if table is None:
            table = read_only(self._table())
            if not np.isfinite(table).all():  # a non-finite entry, or a sum past float range
                raise ValueError(f"values must be finite, got {table[~np.isfinite(table)][0]}")
            object.__setattr__(self, "_dense", table)
        return table

    def _table(self) -> np.ndarray:
        raise NotImplementedError


def check_m(m: int) -> None:
    """Refuse an item count outside 1..MAX_ITEMS, the one cap on m: every
    valuation checks it when it is built, before any 2^m table or full set."""
    if not 1 <= m <= MAX_ITEMS:
        raise ValueError(f"m: need 1 to {MAX_ITEMS} items, got {m}")


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
        check_m(self.m)
        if len(self.table) != 1 << self.m:
            raise ValueError(f"table needs 2^{self.m} entries, got {len(self.table)}")
        object.__setattr__(self, "table", tuple(float(x) for x in self.table))
        self.as_table()  # refuses a non-finite entry

    def _table(self) -> np.ndarray:
        return np.array(self.table)


@dataclass(frozen=True)
class AdditiveValuation(Valuation):
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        check_m(self.m)
        _check_amounts("weights", self.weights)

    @property
    def m(self) -> int:
        return len(self.weights)

    def _table(self) -> np.ndarray:
        return bundle_costs(np.array(self.weights))


@dataclass(frozen=True)
class SingleMindedValuation(Valuation):
    """Worth `amount` for any superset of `bundle`, 0 otherwise."""

    m: int
    bundle: int
    amount: float

    def __post_init__(self):
        check_m(self.m)
        if not is_subset(self.bundle, full_set(self.m)) or self.bundle == 0:
            raise ValueError("bundle must be a nonempty subset of the universe")
        object.__setattr__(self, "amount", float(self.amount))
        _check_amounts("value", (self.amount,))

    def _table(self) -> np.ndarray:
        s = np.arange(1 << self.m)
        return np.where((s & self.bundle) == self.bundle, self.amount, 0.0)


@dataclass(frozen=True)
class OrValuation(Valuation):
    """Worth `amount` for any set meeting the designated items (default: all)."""

    m: int
    amount: float
    items: int = -1

    def __post_init__(self):
        check_m(self.m)
        if self.items == -1:
            object.__setattr__(self, "items", full_set(self.m))
        if not is_subset(self.items, full_set(self.m)) or self.items == 0:
            raise ValueError("designated items must be a nonempty subset")
        object.__setattr__(self, "amount", float(self.amount))
        _check_amounts("value", (self.amount,))

    def _table(self) -> np.ndarray:
        return np.where(np.arange(1 << self.m) & self.items, self.amount, 0.0)


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
        check_m(self.m)

    @property
    def m(self) -> int:
        return len(self.clauses[0])

    def _table(self) -> np.ndarray:
        return bundle_costs(np.array(self.clauses).T).max(axis=1)


SCHEMA = {  # each input object's (required, optional) keys; by kind, besides "kind", if kinded
    "game file": (("valuations",), ("tie_rule",)),
    "valuation": {"table": (("m", "values"), ()), "additive": (("weights",), ("m",)),
                  "single_minded": (("m", "items", "value"), ()), "and": (("m", "value"), ()),
                  "or": (("m", "value"), ("items",)), "xos": (("clauses",), ("m",))},
    "tie rule": {"index": ((), ()), "priority": (("order",), ()), "randomized": (("mixture",), ())},
    "mixture entry": (("prob", "rule"), ()),
    "Bayesian game file": (("types", "prior", "actions", "strategies"), ("tie_rule",)),
    "product prior": {"product": (("marginals",), ())},
}


def fields(d, field: str, keys) -> dict:
    """`d`, a JSON object with the keys of a SCHEMA entry `keys`. A ValueError
    names `field` for a non-object, else `field.key` (a bare `key` when
    `field` is a whole file) for a missing or unknown key or kind."""
    if not isinstance(d, dict):
        raise ValueError(f"{field}: need a JSON object, got {type(d).__name__}")
    if isinstance(keys, dict):
        kind = fields(d, field, (("kind",), d))["kind"]  # the other keys depend on it
        if not isinstance(kind, str) or kind not in keys:
            raise ValueError(f"{field}.kind: need one of {', '.join(keys)}, got {kind!r}")
        keys = (("kind", *keys[kind][0]), keys[kind][1])
    for key in (*keys[0], *d):
        if key not in d or key not in (*keys[0], *keys[1]):
            name = key if field.endswith("file") else f"{field}.{key}"
            raise ValueError(f"{name}: missing" if key not in d else
                             f"{name}: unknown key; known: {', '.join((*keys[0], *keys[1]))}")
    return d


def entries(value, field: str) -> list:
    """(field[i], entry) for each entry of the nonempty list `value`."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"{field}: need a nonempty list, got {value!r:.40}")
    return [(f"{field}[{i}]", entry) for i, entry in enumerate(value)]


def numbers(value, field: str, depth: int | None = None, ints: range | None = None):
    """A file's numbers, nested `depth` lists deep if that is given: float64,
    or with `ints` Python integers in that range. A ValueError naming `field`
    refuses str, bool, a ragged list, another depth and float overflow."""
    flat = [value]
    for x in flat:  # extended while iterated: a walk over the whole nesting
        if isinstance(x, list):
            flat.extend(x)
        elif ints is not None and not (type(x) is int and x in ints):
            raise ValueError(f"{field}: need integers in {ints[0]}..{ints[-1]}, got {x!r}")
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{field}: need numbers, got {x!r}")
    try:
        out = np.asarray(value, dtype=np.float64 if ints is None else np.int64)
    except (ValueError, OverflowError) as exc:  # ragged, or an integer past float range
        raise ValueError(f"{field}: need numbers ({exc})") from None
    if depth is not None and out.ndim != depth:
        raise ValueError(f"{field}: need numbers nested {depth} lists deep, got {out.ndim}")
    return out if ints is None else out.tolist()


_DEPTHS = {"items": 1, "value": 0, "values": 1, "weights": 1, "clauses": 2}


def valuation_from_json(d, field: str = "valuation") -> Valuation:
    """The valuation object `d`, keyed as SCHEMA says. A ValueError names
    `field.key` for a missing, unknown or malformed key, an `m` other than
    the numbers' or an item outside 0..m-1, else `field` for a valuation
    that is not finite, or fails `check_valid`."""
    kind = fields(d, field, SCHEMA["valuation"])["kind"]
    m = numbers(d["m"], f"{field}.m", 0, range(1, MAX_ITEMS + 1)) if "m" in d else None
    x = {k: numbers(d[k], f"{field}.{k}", _DEPTHS[k], range(m) if k == "items" else None)
         for k in _DEPTHS if k in d}
    try:
        v = {"table": lambda: TableValuation(m, tuple(x["values"])),
             "additive": lambda: AdditiveValuation(tuple(x["weights"])),
             "single_minded": lambda: SingleMindedValuation(m, from_items(x["items"]), x["value"]),
             "and": lambda: SingleMindedValuation(m, full_set(m), x["value"]),
             "or": lambda: OrValuation(m, x["value"], from_items(x.get("items", range(m)))),
             "xos": lambda: XosValuation(tuple(map(tuple, x["clauses"])))}[kind]()
        bad = check_valid(v)  # after as_table refuses non-finite values or m past the cap
        if bad is not None:
            raise ValueError(f"{bad.kind} violation at v({members(bad.set_small)}), "
                             f"v({members(bad.set_large)})")
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None
    if m not in (None, v.m):
        raise ValueError(f"{field}.m: {m} items, but the numbers give {v.m}")
    return v


def value_tables(vals: list[Valuation], field: str = "vals") -> np.ndarray:
    """The read-only (n, 2^m) stack of the valuations' tables: the one check
    that they share m items, naming `field[k]`, the first unlike `field[0]`."""
    for k, v in enumerate(vals):
        if v.m != vals[0].m:
            raise ValueError(f"{field}[{k}]: covers m={v.m} items, {field}[0] has m={vals[0].m}")
    return read_only([v.as_table() for v in vals])  # one (n, 2^m) copy


def valuations_from_json(items: list, field: str) -> list[Valuation]:
    """The nonempty list of valuation objects where they enter a game. A ValueError
    names `field[k]`, the first malformed entry, else the first `value_tables` refuses."""
    vals = [valuation_from_json(d, key) for key, d in entries(items, field)]
    value_tables(vals, field)
    return vals


@dataclass(frozen=True)
class Violation:
    """First witness of a failed normalization/monotonicity scan."""

    kind: str  # "empty_nonzero" | "negative" | "monotonicity"
    set_small: int
    set_large: int
    value_small: float
    value_large: float


def check_valid(v: Valuation) -> Violation | None:
    """Verify v(empty)=0, nonnegativity, and monotonicity on adjacent pairs.

    Scans all (S, S+{j}) pairs on the dense table; returns the first
    violating pair, or None if the valuation is valid.
    """
    t = v.as_table()
    if abs(t[0]) > MONEY_TOL:
        return Violation("empty_nonzero", 0, 0, float(t[0]), float(t[0]))
    neg = np.flatnonzero(t < -MONEY_TOL)
    if neg.size:
        s = int(neg[0])
        return Violation("negative", s, s, float(t[s]), float(t[s]))
    s = np.arange(1 << v.m)
    for j in range(v.m):
        without = np.flatnonzero((s & (1 << j)) == 0)
        bad = np.flatnonzero(t[without | (1 << j)] < t[without] - MONEY_TOL)
        if bad.size:
            lo = int(without[bad[0]])
            hi = lo | (1 << j)
            return Violation("monotonicity", lo, hi, float(t[lo]), float(t[hi]))
    return None


def xos_supporting_clause(v: Valuation, target: int) -> np.ndarray:
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
    bad = sub[bundle_costs(a)[sub] > t[sub] + MONEY_TOL]
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


def beta_of(v: Valuation) -> BetaCertificate:
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
        if vt <= MONEY_TOL:
            continue
        got = bundle_costs(a[members(target)])[-1]  # the sum of a over target
        beta = max(beta, math.inf if got <= MONEY_TOL else vt / got)
    return BetaCertificate(beta, clauses)
