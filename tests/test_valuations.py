import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfpa.sets import members, subsets
from sfpa.valuations import (AdditiveValuation, AndValuation, OrValuation,
                             SingleMindedValuation, TableValuation, XosValuation,
                             beta_of, bit_matrix, check_valid, numbers,
                             valuation_from_json, xos_supporting_clause)

from oracles import examples, value_formula, verify_beta_certificate


def brute_force_monotone(v):
    """Independent oracle: scan every subset pair directly."""
    for s in range(1 << v.m):
        for t in range(1 << v.m):
            if s & ~t == 0 and v.value(s) > v.value(t) + 1e-9:
                return False
    return True


def test_and_or_values():
    av = AndValuation(2, 1.0)
    assert av.value(0b11) == 1.0
    assert av.value(0b01) == 0.0
    ov = OrValuation(2, 0.7)
    assert ov.value(0b10) == 0.7
    assert ov.value(0) == 0.0
    assert av.value(0) == 0.0


def test_check_valid_examples():
    assert check_valid(AdditiveValuation((0.3, 0.0, 1.2))) is None
    bad = TableValuation(2, (0.0, 1.0, 0.0, 0.5))
    violation = check_valid(bad)
    assert violation is not None
    assert violation.kind == "monotonicity"
    assert violation.set_small == 0b01 and violation.set_large == 0b11
    sm = SingleMindedValuation(4, 0b1010, 1.0)
    assert check_valid(sm) is None
    assert brute_force_monotone(sm)


def test_check_valid_rejects_bad_empty_and_negative():
    assert check_valid(TableValuation(1, (0.5, 1.0))).kind == "empty_nonzero"
    assert check_valid(TableValuation(1, (0.0, -1.0))) is not None


@given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=examples(40), deadline=None)
def test_monotone_closure_tables_are_valid(m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0, 2, size=1 << m)
    table = np.zeros(1 << m)
    for s in range(1, 1 << m):
        table[s] = max(raw[s], max(table[s & ~(1 << j)] for j in members(s)))
    v = TableValuation(m, tuple(table))
    assert check_valid(v) is None
    for s in range(1 << m):
        for t in subsets(s):
            assert v.value(t) <= v.value(s) + 1e-9


@pytest.mark.parametrize("v", [
    AdditiveValuation((0.5, 1.5, 0.0)),
    SingleMindedValuation(3, 0b101, 2.0),
    AndValuation(3, 1.0),
    OrValuation(3, 0.8, 0b011),
    XosValuation(((1.0, 0.0, 0.5), (0.0, 1.2, 0.2))),
])
def test_structured_value_matches_table(v):
    table = v.as_table()
    for s in range(1 << v.m):
        assert v.value(s) == table[s] == value_formula(v, s)


@st.composite
def valuations(draw):
    """A valuation of every class on 1..10 items, with generic float amounts."""
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    kind = draw(st.sampled_from(["table", "additive", "single_minded", "and", "or", "xos"]))
    if kind == "table":
        return TableValuation(m, tuple(np.sort(rng.uniform(0, 2, 1 << m))))
    if kind == "additive":
        return AdditiveValuation(tuple(rng.uniform(0, 2, m)))
    if kind == "xos":
        return XosValuation(tuple(map(tuple, rng.uniform(0, 2, (int(rng.integers(1, 4)), m)))))
    amount, items = float(rng.uniform(0, 2)), int(rng.integers(1, 1 << m))
    if kind == "single_minded":
        return SingleMindedValuation(m, items, amount)
    return AndValuation(m, amount) if kind == "and" else OrValuation(m, amount, items)


@given(valuations())
@settings(max_examples=examples(60), deadline=None)
def test_table_is_the_scalar_formula(v):
    """The dense table, every class's one evaluator, equals the per-class
    formula of tests/oracles.py bit for bit on every bundle."""
    table = v.as_table()
    assert [float(x) for x in table] == [value_formula(v, s) for s in range(1 << v.m)]


def test_table_is_cached_on_the_instance_without_hashing():
    """`as_table` keeps the checked table on the valuation itself: reading
    it never hashes the 2^m-entry `table` tuple, and every read returns the
    same read-only array."""
    class Unhashable(TableValuation):
        def __hash__(self):
            raise TypeError("hashed")

    v = Unhashable(2, (0.0, 0.5, 0.25, 1.0))
    assert v.as_table() is v.as_table()
    assert not v.as_table().flags.writeable
    assert v.value(0b01) == 0.5 and v.value_max() == 1.0


def test_xos_clause_additive():
    v = AdditiveValuation((0.5, 1.5, 0.25))
    a = xos_supporting_clause(v, 0b101)
    assert np.allclose(a, [0.5, 0.0, 0.25])


def test_xos_clause_explicit_xos_picks_max_clause():
    v = XosValuation(((1.0, 0.0), (0.4, 0.5)))
    a = xos_supporting_clause(v, 0b11)
    assert a.sum() == pytest.approx(1.0)  # first clause wins on the full set
    table = v.as_table()
    for s in range(4):
        assert a[members(s)].sum() <= table[s] + 1e-9


def test_xos_clause_lp_single_minded_and_and():
    # Frozen LP-oracle values: singleton constraints pin every coordinate of
    # the supporting vector to 0 for bundles of size >= 2, so the optimum is
    # 0 (these valuations are not XOS for any finite factor).
    sm = SingleMindedValuation(3, 0b111, 1.0)
    a = xos_supporting_clause(sm, 0b111)
    assert a.sum() == pytest.approx(0.0, abs=1e-9)
    av = AndValuation(2, 1.0)
    a2 = xos_supporting_clause(av, 0b11)
    assert a2.sum() == pytest.approx(0.0, abs=1e-9)
    # k = 1 is the only single-minded case where the bundle value survives
    k1 = SingleMindedValuation(2, 0b01, 1.0)
    assert xos_supporting_clause(k1, 0b01)[0] == pytest.approx(1.0, abs=1e-9)


def test_xos_clause_feasible_everywhere():
    rng = np.random.default_rng(5)
    for _ in range(10):
        raw = rng.uniform(0, 1, size=8)
        table = np.zeros(8)
        for s in range(1, 8):
            table[s] = max(raw[s], max(table[s & ~(1 << j)] for j in members(s)))
        v = TableValuation(3, tuple(table))
        bits = bit_matrix(3)
        for target in range(8):
            a = xos_supporting_clause(v, target)
            assert (bits @ a <= v.as_table() + 1e-9).all()


def coverage_valuation(m, sets, weights):
    """Weighted coverage functions are submodular (test oracle for beta=1)."""
    table = [sum(w for ss, w in zip(sets, weights) if ss & s) for s in range(1 << m)]
    return TableValuation(m, tuple(table))


def test_beta_values():
    assert beta_of(AdditiveValuation((0.5, 0.25))).beta == 1.0
    assert beta_of(OrValuation(3, 0.7)).beta == pytest.approx(1.0, abs=1e-9)
    assert math.isinf(beta_of(AndValuation(2, 1.0)).beta)
    assert math.isinf(beta_of(SingleMindedValuation(3, 0b011, 1.0)).beta)
    assert beta_of(TableValuation(2, (0.0, 0.0, 0.0, 0.0))).beta == 1.0


def test_beta_submodular_is_one():
    rng = np.random.default_rng(11)
    for _ in range(5):
        sets = [int(rng.integers(1, 16)) for _ in range(4)]
        weights = rng.uniform(0.1, 1.0, size=4)
        v = coverage_valuation(4, sets, weights)
        cert = beta_of(v)
        assert cert.beta == pytest.approx(1.0, abs=1e-7)
        assert verify_beta_certificate(v, cert)


def test_beta_certificate_inequalities():
    v = TableValuation(2, (0.0, 0.4, 0.4, 1.0))  # complementary: beta > 1
    cert = beta_of(v)
    assert cert.beta == pytest.approx(1.25, abs=1e-9)  # 1.0 / (0.4 + 0.4)
    assert verify_beta_certificate(v, cert)


def test_json_roundtrip():
    """Each kind of valuation is read from its literal JSON object."""
    docs = [
        ({"kind": "additive", "m": 2, "weights": [0.5, 1.5]}, AdditiveValuation((0.5, 1.5))),
        ({"kind": "single_minded", "m": 3, "items": [0, 2], "value": 2.0},
         SingleMindedValuation(3, 0b101, 2.0)),
        ({"kind": "and", "m": 2, "value": 1.0}, AndValuation(2, 1.0)),
        ({"kind": "or", "m": 3, "value": 0.8, "items": [0, 1]}, OrValuation(3, 0.8, 0b011)),
        ({"kind": "or", "m": 2, "value": 0.8}, OrValuation(2, 0.8)),
        ({"kind": "xos", "m": 2, "clauses": [[1.0, 0.0], [0.4, 0.5]]},
         XosValuation(((1.0, 0.0), (0.4, 0.5)))),
        ({"kind": "table", "m": 2, "values": [0.0, 1.0, 1.0, 1.0]},
         TableValuation(2, (0.0, 1.0, 1.0, 1.0))),
    ]
    for doc, v in docs:
        assert valuation_from_json(doc) == v


def test_numbers_reads_only_numbers():
    assert numbers([[1, 2.5], [0, 3]], "x").tolist() == [[1.0, 2.5], [0.0, 3.0]]
    assert numbers(2, "x").shape == () and numbers([], "x").shape == (0,)
    for bad in ("05", True, [1, "2"], [[1.0], [1.0, 2.0]], [None], {"a": 1}, (1.0,), 10 ** 400):
        with pytest.raises(ValueError, match=r"^x\.y: need numbers"):
            numbers(bad, "x.y")
    with pytest.raises(ValueError, match=r"^valuation\.weights: need numbers"):
        valuation_from_json({"kind": "additive", "weights": "05"})
    for bad, message in ((3, "valuation: need a JSON object"),
                         (None, "valuation: need a JSON object"),
                         ({"kind": "additive", "weights": 5}, r"valuation\.weights: need numbers"),
                         ({"kind": "cone", "m": 1}, r"valuation\.kind: need one of")):
        with pytest.raises(ValueError, match=f"^{message}"):
            valuation_from_json(bad)
    # a depth and an integer range: integers come back as Python lists
    assert numbers([[1, 0]], "x", 2, range(2)) == [[1, 0]]
    for bad, depth, ints, message in (([1.0], 0, None, "need numbers nested 0 lists deep"),
                                      ([[1]], 1, range(2), "need numbers nested 1 lists deep"),
                                      ([1.0], 1, range(2), "need integers in 0..1"),
                                      ([2 ** 63], 1, range(2 ** 63), "need integers in 0..")):
        with pytest.raises(ValueError, match=f"^x: {message}"):
            numbers(bad, "x", depth, ints)


def test_caps_and_validation():
    with pytest.raises(ValueError):
        SingleMindedValuation(2, 0, 1.0)
    with pytest.raises(ValueError):
        XosValuation(((1.0, -0.5),))
    for bad in (math.nan, math.inf, -1.0):  # NaN fails every comparison
        for field, build in (("value", lambda x: AndValuation(2, x)),
                             ("value", lambda x: OrValuation(2, x)),
                             ("value", lambda x: SingleMindedValuation(2, 0b11, x)),
                             ("weights", lambda x: AdditiveValuation((1.0, x))),
                             ("clauses", lambda x: XosValuation(((1.0, 0.0), (0.0, x))))):
            with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
                build(bad)
    for bad in (math.nan, math.inf, -math.inf):  # negative entries are check_valid's
        with pytest.raises(ValueError, match="^values must be finite"):
            TableValuation(1, (0.0, bad))
    with pytest.raises(ValueError):
        beta_of(AndValuation(13, 1.0))
    with pytest.raises(ValueError):
        AndValuation(25, 1.0).as_table()
