import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sfpa.closedform import (AndOrStrategyPair, AtomicCDF, SingleMindedSymmetric,
                             and_bid_cdf, and_support_sum_check,
                             andor_equilibrium_welfare, andor_utility_and,
                             andor_utility_mc, andor_utility_or, or_bid_cdf,
                             singleminded_utility, singleminded_utility_grid,
                             triangle_cdf, triangle_utility,
                             validate_symmetric_instance)
from sfpa.rng import rng_for


def test_atom_mass_and_endpoints():
    pair = AndOrStrategyPair(2, 1.0)
    assert pair.F.cdf(0.0) == pytest.approx(0.5)  # 1 - 1/(2v)
    assert pair.F.cdf(0.5) == pytest.approx(1.0)
    assert pair.G.cdf(0.5) == pytest.approx(1.0)
    assert pair.G.cdf(0.0) == 0.0


def test_triangle_quantile():
    c = triangle_cdf()
    assert c.quantile(0.5) == pytest.approx(0.25)
    assert c.quantile(0.0) == 0.0
    assert c.quantile(1.0) == pytest.approx(0.5)


def test_quantile_honors_atoms():
    f = and_bid_cdf(2, 1.0)  # atom of mass 1/2 at 0
    assert f.quantile(0.25) == 0.0
    assert f.quantile(0.5) == 0.0
    assert f.quantile(0.75) == pytest.approx(1.0 - 0.5 / 0.75)
    assert f.quantile(1.0) == pytest.approx(0.5)


def test_degenerate_point_mass():
    f = and_bid_cdf(4, 0.25)  # v = 1/m: all mass at 1/4
    assert f.cdf(0.2) == 0.0
    assert f.cdf(0.25) == 1.0
    assert f.prob_lt(0.25) == 0.0
    assert f.quantile(0.3) == 0.25


@given(st.floats(0.0, 1.0), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_quantile_is_generalized_inverse(u, m):
    f = and_bid_cdf(m, 1.0)
    x = f.quantile(u)
    assert f.cdf(x) >= u - 1e-12
    if x > f.lo:
        assert f.prob_lt(x) <= u + 1e-12


def test_invalid_cdf_rejected():
    with pytest.raises(ValueError):
        AtomicCDF(0.0, 1.0, ((0.0, 0.5),), lambda x: np.asarray(x),
                  lambda u: np.asarray(u))  # total mass 1.5
    with pytest.raises(ValueError):
        AtomicCDF(0.0, 1.0, (), lambda x: -np.asarray(x), lambda u: -np.asarray(u))
    with pytest.raises(ValueError):
        and_bid_cdf(4, 0.2)  # v < 1/m


def test_sampling_matches_cdf():
    pair = AndOrStrategyPair(2, 1.0)
    rng = rng_for(123, "cdf-sample")
    y = pair.F.sample(rng, 200_000)
    assert np.mean(y == 0.0) == pytest.approx(0.5, abs=0.005)
    for x in (0.1, 0.3, 0.45):
        assert np.mean(y <= x) == pytest.approx(pair.F.cdf(x), abs=0.005)


def test_andor_utility_and_zero_on_cube():
    for m in (2, 3, 4):
        for v in (1.0 / m, 2.0 / m, 1.0):
            pair = AndOrStrategyPair(m, v)
            rng = rng_for(7, "cube", m)
            for _ in range(20):
                x = rng.uniform(0, pair.top, m)
                got = andor_utility_and(pair, x)
                assert got.in_cube
                assert got.value == pytest.approx(0.0, abs=1e-12)
    assert andor_utility_and(AndOrStrategyPair(2, 1.0), [0.3, 0.1]).value == \
        pytest.approx(0.0, abs=1e-12)
    assert andor_utility_and(AndOrStrategyPair(2, 1.0), [0.0, 0.0]).value == 0.0


def test_andor_utility_and_above_cube_flagged_and_dominated():
    pair = AndOrStrategyPair(2, 1.0)
    high = andor_utility_and(pair, [0.6, 0.3])
    assert not high.in_cube
    clamped = andor_utility_and(pair, [0.5, 0.3])
    assert high.value < clamped.value


def test_andor_utility_or_values():
    pair = AndOrStrategyPair(2, 1.0)
    assert andor_utility_or(pair, [0.0, 0.2]) == pytest.approx(0.5)
    assert andor_utility_or(pair, [0.0, 0.0]) == 0.0
    pair3 = AndOrStrategyPair(3, 1.0)
    multi = andor_utility_or(pair3, [0.1, 0.2, 0.0])
    single = andor_utility_or(pair3, [0.0, 0.2, 0.0])
    assert multi <= single + 1e-12
    assert single == pytest.approx(1.0 - 1.0 / 3)


@given(st.integers(2, 4), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_or_keep_max_dominance(m, seed):
    rng = np.random.default_rng(seed)
    pair = AndOrStrategyPair(m, 1.0)
    x = rng.uniform(0, pair.top, m)
    keep = np.zeros(m)
    keep[int(np.argmax(x))] = x.max()
    assert andor_utility_or(pair, x) <= andor_utility_or(pair, keep) + 1e-12


def test_andor_utilities_vs_monte_carlo():
    pair = AndOrStrategyPair(4, 0.5)
    x_and = np.full(4, 0.2)
    est, half = andor_utility_mc(pair, "and", x_and, 200_000, seed=3)
    assert abs(est - andor_utility_and(pair, x_and).value) <= half
    x_or = np.array([0.0, 0.15, 0.0, 0.0])
    est, half = andor_utility_mc(pair, "or", x_or, 200_000, seed=4)
    assert abs(est - andor_utility_or(pair, x_or)) <= half


def test_welfare_degenerate_pure_case():
    pair = AndOrStrategyPair(4, 0.25)
    est = andor_equilibrium_welfare(pair, 10_000, seed=1)
    assert est.estimate == 1.0  # AND bids 1/m surely and always wins
    assert est.atom_prob == 0.0


def test_welfare_atom_frequency():
    pair = AndOrStrategyPair(4, 0.5)
    est = andor_equilibrium_welfare(pair, 400_000, seed=2)
    assert est.atom_prob == pytest.approx(0.5)
    assert est.atom_freq == pytest.approx(0.5, abs=0.005)
    # independent quadrature oracle for the AND win probability
    v, top = 0.5, 0.25
    dens = lambda y: (v - top) / (v - y) ** 2
    g = lambda y: 3 * y / (1 - y)
    alpha, _ = quad(lambda y: g(y) * dens(y), 0, top)
    expected = alpha * 1.0 + (1 - alpha) * v
    assert est.estimate == pytest.approx(expected, abs=3 * est.ci99)


def test_triangle_utility_formula():
    assert triangle_utility(0.3, 0.3) == 0.0
    assert triangle_utility(0.5, 0.0) == pytest.approx(-0.5)
    axis = np.linspace(0, 0.5, 101)
    sm = SingleMindedSymmetric(2, 2)
    grid = singleminded_utility_grid(sm, axis)
    closed = -2.0 * (axis[:, None] - axis[None, :]) ** 2
    assert np.abs(grid - closed).max() <= 1e-12


def test_triangle_utility_vs_simulation():
    # two opponents draw from F(x) = 2x; deviation bids (y, z) on the pair
    rng = rng_for(9, "triangle-mc")
    sm = SingleMindedSymmetric(2, 2)
    y, z = 0.31, 0.17
    n = 400_000
    a = sm.cdf.sample(rng, n)
    b = sm.cdf.sample(rng, n)
    u = (a < y) * (b < z) * 1.0 - y * (a < y) - z * (b < z)
    assert u.mean() == pytest.approx(triangle_utility(y, z), abs=0.004)


def test_singleminded_matches_triangle_and_displayed_formula():
    sm = SingleMindedSymmetric(2, 2)
    assert singleminded_utility(sm, [0.3, 0.3]) == pytest.approx(0.0, abs=1e-12)
    assert singleminded_utility(sm, [0.5, 0.0]) == pytest.approx(-0.5)
    for k, d in ((2, 2), (3, 2), (2, 3), (3, 3)):
        smkd = SingleMindedSymmetric(k, d)
        rng = rng_for(2, "sm", k, d)
        for _ in range(25):
            x = rng.uniform(0, smkd.top, k)
            displayed = (np.prod((k * x) ** (1.0 / (k - 1)))
                         - np.sum(x * (k * x) ** (1.0 / (k - 1))))
            assert singleminded_utility(smkd, x) == pytest.approx(displayed, abs=1e-12)
            assert singleminded_utility(smkd, x) <= 1e-12
        flat = rng.uniform(0, smkd.top)
        assert singleminded_utility(smkd, [flat] * k) == pytest.approx(0.0, abs=1e-12)


def test_symmetric_cdf_indifference_identity():
    # G^((d-1)k)(x) = k x G^(d-1)(x) on the whole support: uniform bundle
    # bids earn exactly zero expected utility at every level
    for k, d in ((2, 2), (3, 2), (2, 3), (3, 3)):
        sm = SingleMindedSymmetric(k, d)
        x = np.linspace(1e-9, sm.top, 101)
        g = sm.cdf.cdf(x)
        assert np.abs(g ** ((d - 1) * k) - k * x * g ** (d - 1)).max() <= 1e-10


def test_singleminded_k1_rejected():
    with pytest.raises(ValueError):
        SingleMindedSymmetric(1, 2)


def test_specialization_matches_triangle_cdf():
    sm = SingleMindedSymmetric(2, 2)
    tri = triangle_cdf()
    x = np.linspace(0.0, 0.5, 501)
    assert np.abs(np.asarray(sm.cdf.cdf(x)) - np.asarray(tri.cdf(x))).max() <= 1e-12
    u = np.linspace(0.0, 1.0, 501)
    assert np.abs(np.asarray(sm.cdf.quantile(u)) - np.asarray(tri.quantile(u))).max() <= 1e-12


def test_scaled_value_consistency():
    sm = SingleMindedSymmetric(3, 2, value=3.0)
    base = SingleMindedSymmetric(3, 2)
    assert sm.top == pytest.approx(1.0)
    x = np.array([0.3, 0.6, 0.9])
    assert singleminded_utility(sm, x) == pytest.approx(
        3.0 * singleminded_utility(base, x / 3.0), abs=1e-12)


def test_and_support_sum_check():
    pair = AndOrStrategyPair(3, 1.0)
    assert and_support_sum_check(pair, 1.0) is None
    witness = and_support_sum_check(np.array([[0.6, 0.6], [0.1, 0.1]]), 1.0)
    assert witness is not None and witness.sum() == pytest.approx(1.2)
    assert and_support_sum_check(np.array([[0.5, 0.5]]), 1.0) is None


def test_validate_symmetric_instance():
    assert validate_symmetric_instance([0b011, 0b110, 0b101], 3) == (2, 2)
    rows = [0b000111, 0b111000]
    with pytest.raises(ValueError):
        validate_symmetric_instance(rows, 6)  # items demanded once, not d >= 2
    with pytest.raises(ValueError):
        validate_symmetric_instance([0b011, 0b011, 0b100], 3)  # shared pair
