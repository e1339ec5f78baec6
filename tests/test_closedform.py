import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from sfpa import auction, closedform as cf
from sfpa.experiments import grid_game_report
from sfpa.closedform import (Z99, AndOrStrategyPair, AtomicCDF, SingleMindedSymmetric,
                             and_bid_cdf, and_support_sum_check,
                             andor_equilibrium_welfare, andor_utility_and,
                             andor_utility_mc, andor_utility_or, or_bid_cdf,
                             singleminded_utility, triangle_utility)
from sfpa.rng import rng_for

from oracles import (andor_welfare, examples, grid_satisfied, peak_traced, triangle_cdf,
                     validate_symmetric_instance)


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
    # cont_cdf(lo) is exactly 0.0 here and the continuous quantile at 0
    # rounds to -5.55e-17: u = 0 takes lo, as every u up to cdf(lo) does
    f = and_bid_cdf(3, 1.0 / 3 + 0.03125 * (2 - 1.0 / 3))
    assert f.cont_quantile(np.float64(0.0)) < 0.0
    assert f.quantile(0.0) == f.lo == 0.0
    assert (f.quantile(np.array([0.0, 1e-300, f.atom_span])) == 0.0).all()


def test_degenerate_point_mass():
    f = and_bid_cdf(4, 0.25)  # v = 1/m: all mass at 1/4
    assert f.cdf(0.2) == 0.0
    assert f.cdf(0.25) == 1.0
    assert f.prob_lt(0.25) == 0.0
    assert f.quantile(0.3) == 0.25


@given(st.floats(0.0, 1.0), st.integers(2, 6))
@settings(max_examples=examples(60), deadline=None)
def test_quantile_is_generalized_inverse(u, m):
    f = and_bid_cdf(m, 1.0)
    x = f.quantile(u)
    assert f.cdf(x) >= u - 1e-12
    if x > f.lo:
        assert f.prob_lt(x) <= u + 1e-12


def test_invalid_cdf_rejected():
    with pytest.raises(ValueError):
        AtomicCDF(0.0, 1.0, 0.5, lambda x: np.asarray(x),
                  lambda u: np.asarray(u))  # total mass 1.5
    with pytest.raises(ValueError):
        AtomicCDF(0.0, 1.0, 0.0, lambda x: -np.asarray(x), lambda u: -np.asarray(u))
    with pytest.raises(ValueError):
        and_bid_cdf(4, 0.2)  # v < 1/m
    with pytest.raises(ValueError, match="^total mass"):  # NaN fails every comparison
        AtomicCDF(0.0, 1.0, 0.0, lambda x: np.asarray(x) * np.nan, lambda u: np.asarray(u))
    for v in (math.nan, math.inf):
        for build in (and_bid_cdf, AndOrStrategyPair):
            with pytest.raises(ValueError, match="^v: must be finite"):
                build(2, v)


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
                assert andor_utility_and(pair, x) == pytest.approx(0.0, abs=1e-12)
    assert andor_utility_and(AndOrStrategyPair(2, 1.0), [0.3, 0.1]) == \
        pytest.approx(0.0, abs=1e-12)
    assert andor_utility_and(AndOrStrategyPair(2, 1.0), [0.0, 0.0]) == 0.0


def test_andor_utility_and_above_cube_dominated():
    pair = AndOrStrategyPair(2, 1.0)
    assert andor_utility_and(pair, [0.6, 0.3]) < andor_utility_and(pair, [0.5, 0.3])


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
@settings(max_examples=examples(30), deadline=None)
def test_or_keep_max_dominance(m, seed):
    rng = np.random.default_rng(seed)
    pair = AndOrStrategyPair(m, 1.0)
    x = rng.uniform(0, pair.top, m)
    keep = np.zeros(m)
    keep[int(np.argmax(x))] = x.max()
    assert andor_utility_or(pair, x) <= andor_utility_or(pair, keep) + 1e-12


@given(st.integers(2, 8), st.integers(0, 2), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=examples(60), deadline=None)
def test_andor_rows_match_one_row_calls(m, which, count, seed):
    # v = 1/m (the AND point mass), 2/m, or 1; bids tie at 0 and 1/m and leave the cube
    pair = AndOrStrategyPair(m, (1.0 / m, 2.0 / m, 1.0)[which])
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, 1.5 * pair.top, (count, m))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[rng.random(rows.shape) < 0.2] = pair.top
    for evaluate in (andor_utility_and, andor_utility_or):
        one = [evaluate(pair, row) for row in rows]
        assert all(isinstance(u, float) for u in one)
        assert evaluate(pair, rows).view(np.int64).tolist() == \
            np.array(one).view(np.int64).tolist()


def test_andor_utilities_vs_monte_carlo():
    pair = AndOrStrategyPair(4, 0.5)
    x_and = np.full(4, 0.2)
    est, half = andor_utility_mc(pair, "and", x_and, 200_000, seed=3)
    assert abs(est - andor_utility_and(pair, x_and)) <= half
    x_or = np.array([0.0, 0.15, 0.0, 0.0])
    est, half = andor_utility_mc(pair, "or", x_or, 200_000, seed=4)
    assert abs(est - andor_utility_or(pair, x_or)) <= half


def _mc_oracle(pair, role, bids, trials, seed):
    """Reference for andor_utility_mc: the opponent's bid on every item in
    every trial, as a (trials, m) matrix, scored row by row."""
    x = np.asarray(bids, dtype=np.float64)
    rng = rng_for(seed, "andor-mc", role)
    if role == "and":
        items, g = pair.sample_or_bids(rng, trials)
        opp = np.zeros((trials, pair.m))
        opp[np.arange(trials), items] = g
        win = (x[None, :] > opp) | (opp == 0.0)  # zero ties go to AND
        u = np.where(win.all(axis=1), 1.0, 0.0) - (win * x[None, :]).sum(axis=1)
    else:
        y = pair.sample_and_bids(rng, trials)
        win = x[None, :] > y[:, None]  # ties (incl. the 0 atom) go to AND
        u = pair.v * win.any(axis=1) - (win * x[None, :]).sum(axis=1)
    half = Z99 * float(u.std(ddof=1)) / math.sqrt(trials)
    return float(u.mean()), half


@st.composite
def _mc_cases(draw):
    m = draw(st.integers(2, 16))
    top = 1.0 / m
    v = draw(st.one_of(st.just(top), st.floats(top, 2.0)))
    # a small pool of levels forces ties among items, with 0, the cube's
    # top 1/m (the AND point mass when v = 1/m) and values above the cube
    pool = [0.0, top, top / 2, top / 3, 1.5 * top, 1.0]
    level = st.one_of(st.sampled_from(pool), st.floats(0.0, 1.5))
    bids = draw(st.lists(level, min_size=m, max_size=m))
    return AndOrStrategyPair(m, v), bids, draw(st.sampled_from(["and", "or"]))


def _stream_ties(pair, role, trials, seed):
    """Bids that tie the opponent's play in the stream andor_utility_mc draws:
    its first 20 bids, drawn as that function draws them, and for the OR
    deviator the AND bids at each threshold of those, 0, top and 1.5 top,
    and at the double below each threshold."""
    rng = rng_for(seed, "andor-mc", role)
    if role == "and":
        rng.integers(0, pair.m, trials)
        return pair.G.quantile(rng.random(trials))[:20].tolist()
    opp = pair.F.quantile(rng.random(trials))[:20]
    reach = cf._first_reaching(pair.F, np.sort(np.append(opp, [0.0, pair.top, 1.5 * pair.top])))
    edges = pair.F.quantile(np.append(reach, np.nextafter(reach, 0.0)))
    return np.append(opp, edges).tolist()


class _ZeroedPair(AndOrStrategyPair):
    """OR bids below top / 4 set to 0, by value, so that the AND deviator
    meets zero ties in every block and the oracle meets the same ones."""

    def sample_or_item_bids(self, rng, size: int) -> np.ndarray:
        g = super().sample_or_item_bids(rng, size)
        g[g < self.top / 4] = 0.0
        return g


@given(_mc_cases(), st.booleans(), st.sampled_from((7, 64, auction.BLOCK)),
       st.integers(0, 2 ** 32), st.data())
@settings(max_examples=examples(150), deadline=None)
def test_andor_utility_mc_matches_oracle(case, zeroed, block, seed, data):
    pair, bids, role = case
    ties = _stream_ties(pair, role, 3_000, seed)
    bids = [data.draw(st.one_of(st.just(b), st.sampled_from(ties))) for b in bids]
    if role == "and" and zeroed:  # a zero OR bid against a zero deviation bid goes to AND
        pair = _ZeroedPair(pair.m, pair.v)
        bids[data.draw(st.integers(0, pair.m - 1))] = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auction, "BLOCK", block)
        assert andor_utility_mc(pair, role, bids, 3_000, seed) == \
            _mc_oracle(pair, role, bids, 3_000, seed)


@given(st.integers(2, 16), st.one_of(st.just(None), st.floats(0.0, 1.0)),
       st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1.5, 1e-300]), st.floats(0.0, 1.5),
                          st.floats(0.0, 1.0).map(lambda u: -u)), min_size=1, max_size=16),
       st.sampled_from((1, 7, 64, auction.BLOCK)), st.integers(2, 300), st.integers(0, 2 ** 32))
@settings(max_examples=examples(100), deadline=None)
@example(3, 0.03125, [0.0], 1, 2, 0)  # cont_cdf(lo) is 0.0 and the continuous quantile -5.6e-17
@example(200, 0.0025, [i / 80 for i in range(97)], 64, 3_000, 5)  # some 80 distinct thresholds
def test_first_reaching_is_the_threshold(m, t, picks, block, trials, seed):
    """Each threshold is the first double past the atom whose AND bid
    reaches its cut, and the OR deviator scores bids at the thresholds as
    the oracle does in every block size. A pick p >= 0 is a cut p / m (in
    and above the cube), -u the cut F.quantile(u); v = 1/m when t is None
    (the point mass), else 1/m + t (2 - 1/m)."""
    top = 1.0 / m
    pair = AndOrStrategyPair(m, top if t is None else top + t * (2.0 - top))
    F = pair.F
    join = F.atom_span
    cuts = np.sort([float(F.quantile(-p)) if p < 0 else p * top for p in picks])
    reach = cf._first_reaching(F, cuts)
    for r, cut in zip(reach, cuts):
        below = np.nextafter(r, 0.0)
        if r < 1.0:
            assert r > join and F.quantile(r) >= cut
        assert below <= join or F.quantile(below) < cut
    edges = F.quantile(np.concatenate([reach, np.nextafter(reach, 0.0), cuts]))
    bids = np.resize(edges, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auction, "BLOCK", block)
        assert andor_utility_mc(pair, "or", bids, trials, seed) == \
            _mc_oracle(pair, "or", bids, trials, seed)


def test_andor_utility_mc_checks_input(monkeypatch):
    pair = AndOrStrategyPair(3, 1.0)
    for bids in ([0.1], [0.1, 0.2, np.nan], [0.1, -0.2, 0.0], [0.1, np.inf, 0.0]):
        with pytest.raises(ValueError, match="bids"):
            andor_utility_mc(pair, "and", bids, 1_000, seed=1)
    with pytest.raises(ValueError, match="trials"):
        andor_utility_mc(pair, "or", [0.1, 0.0, 0.0], 1, seed=1)

    def no_draws(*args):
        raise AssertionError("drew before checking the role")

    monkeypatch.setattr(cf, "rng_for", no_draws)
    with pytest.raises(ValueError, match="role"):
        andor_utility_mc(pair, "xor", [0.1, 0.0, 0.0], 1_000, seed=1)


_BLOCK_SIZES = (1, 3, 7, 64)
# atomless G, F with its atom at 0 (v > 1/m), the point mass (v = 1/m), single-minded
_SAMPLED = (or_bid_cdf(3), and_bid_cdf(3, 1.0), and_bid_cdf(3, 1.0 / 3),
            SingleMindedSymmetric(3, 2, value=3.0).cdf)


@given(st.sampled_from(_BLOCK_SIZES), st.sampled_from(range(len(_SAMPLED))),
       st.integers(0, 3), st.integers(-1, 1), st.integers(0, 2 ** 32))
@settings(max_examples=examples(120), deadline=None)
def test_sample_blocks_match_one_draw(block, which, blocks, offset, seed):
    cdf, size = _SAMPLED[which], max(0, blocks * block + offset)
    one = rng_for(seed, "blocks")
    want = cdf.quantile(one.random(size))
    blocked = rng_for(seed, "blocks")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auction, "BLOCK", block)
        got = cdf.sample(blocked, size)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert blocked.random() == one.random()  # both consumed the stream alike


@given(st.sampled_from(_BLOCK_SIZES), _mc_cases(), st.integers(2, 200), st.integers(0, 2 ** 32))
@settings(max_examples=examples(100), deadline=None)
def test_mc_blocks_match_unblocked(block, case, trials, seed):
    pair, bids, role = case

    def run():
        return (andor_utility_mc(pair, role, bids, trials, seed),
                andor_equilibrium_welfare(pair, trials, seed))

    assert auction.BLOCK >= trials
    whole = run()
    assert whole[1] == andor_welfare(pair, trials, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auction, "BLOCK", block)
        assert run() == whole


@pytest.mark.parametrize("block", _BLOCK_SIZES + (2 ** 16,))
def test_grid_game_blocks_match_whole_array(monkeypatch, block):
    monkeypatch.setattr(auction, "BLOCK", block)
    for side, trials, seed in ((2, 200, 1), (3, 130, 7)):
        rep = grid_game_report(side, trials, seed)
        assert (rep["expected_satisfied"], rep["satisfied_ci99"]) == \
            grid_satisfied(side, trials, seed)


def _peak_bytes_per_trial(run, small=200_000, large=600_000):
    """Growth of the tracemalloc peak of run(trials) per extra trial."""
    small_peak, large_peak = (peak_traced(lambda: run(trials)) for trials in (small, large))
    return (large_peak - small_peak) / (large - small)


def test_blocked_monte_carlo_memory_per_trial():
    # the whole-array forms grew by about 95 (grid game), 24 (G) and 26 (F) bytes per trial;
    # drawing all the opponent's bids before scoring them, the AND-OR estimators grew by
    # 32 (AND deviation), 24 (OR deviation) and 32 (welfare)
    for cdf in (or_bid_cdf(3), and_bid_cdf(3, 1.0)):
        assert _peak_bytes_per_trial(lambda n: cdf.sample(rng_for(0, "memory"), n)) <= 16
    assert _peak_bytes_per_trial(lambda n: grid_game_report(3, n, 0)) <= 16
    pair, bids = AndOrStrategyPair(3, 1.0), [0.1, 0.2, 0.0]
    # the per-trial values, plus the OR items for the AND role
    assert _peak_bytes_per_trial(lambda n: andor_utility_mc(pair, "and", bids, n, 0)) <= 16
    assert _peak_bytes_per_trial(lambda n: andor_utility_mc(pair, "or", bids, n, 0)) <= 8
    assert _peak_bytes_per_trial(lambda n: andor_equilibrium_welfare(pair, n, 0)) < 32


# numpy sums a contiguous float64 array pairwise, over 8-way unrolled leaves
# of at most 128 entries, and buffers a cast reduction in chunks of 8192
@given(st.one_of(st.integers(2, 3 * 8192 + 9),
                 st.sampled_from([127, 128, 129, 8191, 8192, 8193, 16385, 24575, 24577])),
       st.booleans(), st.integers(0, 2 ** 32))
@example(1_000_000, False, 0)
@example(1_000_000, True, 0)
@settings(max_examples=examples(60), derandomize=True, deadline=None)
def test_mean_ci99_matches_numpy(n, counts, seed):
    """The in-place reducer gives numpy's mean and std-based CI byte for
    byte: on float arrays, and on small-integer counts held as float64
    against the same counts as int64 (the grid game's)."""
    rng = rng_for(seed, "mean-ci99")
    if counts:
        ints = rng.integers(0, 7, n)
        v, want = ints.astype(np.float64), ints
    else:
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) + rng.uniform(-2.0, 2.0)
        want = v.copy()
    expected = (float(want.mean()), Z99 * float(want.std(ddof=1)) / math.sqrt(n))
    got = cf.mean_ci99(v)
    assert all(isinstance(t, float) for t in got)
    assert np.array(got).view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


def test_distributions_built_once_per_object():
    pair, sm = AndOrStrategyPair(3, 1.0), SingleMindedSymmetric(3, 2)
    assert pair.F is pair.F and pair.G is pair.G and sm.cdf is sm.cdf
    fresh = AndOrStrategyPair(3, 1.0)
    assert pair == fresh and hash(pair) == hash(fresh)


def test_check_count_refuses_at_the_byte_limit():
    most = cf.MC_BYTE_LIMIT // 40
    cf.check_count(most)
    with pytest.raises(auction.CapExceeded, match=f"^trials: past the cap of {cf.MC_BYTE_LIMIT} "
                                                  f"bytes; trials <= {most} fits$"):
        cf.check_count(most + 1)
    with pytest.raises(ValueError, match="^count: must be an integer >= 0"):
        cf.check_count(-1, "count", 0, 160)


def _masked_quantile(cdf, u):
    """AtomicCDF.quantile as a mask-and-scatter pass, run on every
    distribution: the reference for its np.where step and its atomless
    shortcut. The continuous quantile past the atom; with an atom, lo to
    every u up to cdf(lo) = cont_cdf(lo) + atom, even where cont_cdf(lo)
    is not 0, so none falls below lo."""
    u = np.atleast_1d(np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0))
    out = cdf.cont_quantile(np.clip(u - cdf.atom, 0.0, 1.0 - cdf.atom))
    if cdf.atom:
        out[u <= float(cdf._cc(cdf.lo)) + cdf.atom] = cdf.lo
    return out


def _atom_boundaries(cdf):
    """cont_cdf(lo) and cdf(lo), where the atom starts and ends in the
    uniforms, and their neighbouring doubles."""
    before = float(cdf._cc(cdf.lo))
    return [f(b) for b in (before, before + cdf.atom)
            for f in (lambda b: np.nextafter(b, -np.inf), float, lambda b: np.nextafter(b, np.inf))]


def test_quantile_matches_masked_path():
    # the continuous quantile at 0 rounds away from lo (0.15 * 3.0 < 0.45), so
    # a boundary given to the wrong step changes bits
    off = AtomicCDF(0.45, 1.35, 0.7, lambda x: np.asarray(x) / 3.0 - 0.15,
                    lambda c: (np.asarray(c) + 0.15) * 3.0)
    for cdf in (or_bid_cdf(2), or_bid_cdf(16), triangle_cdf(),
                SingleMindedSymmetric(3, 3, value=3.0).cdf) + _SAMPLED + (off,):
        edges = [0.0, 1.0, -0.0, -0.5, 1.5, 1e-300, 1.0 - 2 ** -53, np.inf, -np.inf,
                 *_atom_boundaries(cdf)]
        u = np.concatenate([edges, rng_for(5, "quantile").random(10_000)])
        want = _masked_quantile(cdf, u)
        assert cdf.quantile(u).view(np.int64).tolist() == want.view(np.int64).tolist()
        for s, w in zip(edges, want):
            got = cdf.quantile(s)
            assert isinstance(got, float) and np.float64(got).view(np.int64) == w.view(np.int64)


def test_refusals_name_their_field():
    for build, field in ((lambda: cf.check_count(1), "trials"),
                         (lambda: cf.check_count(-1, "count", 0), "count"),
                         (lambda: and_bid_cdf(1, 1.0), "m"), (lambda: and_bid_cdf(2, 0.1), "v"),
                         (lambda: or_bid_cdf(1), "m"),
                         (lambda: AndOrStrategyPair(1, 1.0), "m"),
                         (lambda: AndOrStrategyPair(2, 0.1), "v"),
                         (lambda: SingleMindedSymmetric(1, 2), "k"),
                         (lambda: SingleMindedSymmetric(2, 1), "d"),
                         (lambda: SingleMindedSymmetric(2, 2, value=0.0), "value")):
        with pytest.raises(ValueError, match=f"^{field}: "):
            build()


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
    grid = singleminded_utility(sm, np.ix_(axis, axis))
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


def test_singleminded_grid_matches_point_calls():
    for k, d in ((2, 2), (3, 2), (2, 3), (3, 3)):
        sm = SingleMindedSymmetric(k, d)
        axis = np.linspace(0.0, sm.top, 7)
        grid = singleminded_utility(sm, np.ix_(*[axis] * k))
        assert grid.shape == (7,) * k
        points = [singleminded_utility(sm, [float(axis[i]) for i in idx])
                  for idx in np.ndindex(grid.shape)]
        assert grid.ravel().view(np.int64).tolist() == \
            np.array(points).view(np.int64).tolist()


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
    extreme = np.full(3, pair.F.hi)  # every supported AND vector is y <= 1/m on all items
    assert and_support_sum_check(extreme, 1.0) is None
    assert and_support_sum_check(extreme, 0.9).tolist() == extreme.tolist()
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
