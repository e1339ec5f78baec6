import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from sfpa import equilibrium, experiments as xp
from sfpa.auction import (CAP, Allocation, CapExceeded, PriorityRule, RandomizedRule,
                          optimal_allocations, optimal_welfare)
from sfpa.closedform import (AndOrStrategyPair, andor_equilibrium_utilities,
                             andor_utility_and, andor_utility_or)
from sfpa.equilibrium import (GRID_CAP, BidGrid, WalrasianEquilibrium,
                              _support_prices, andor_gap, best_response_gap, bid_bundle,
                              bundle_costs, common_price_gap, common_price_scan, demand,
                              pure_nash_search, walrasian_check, walrasian_near, walrasian_search)
from sfpa.experiments import (andor_game, correspondence_case, grid_game,
                              triangle_game, _random_lattice_valuation)
from sfpa.lp import feasible_point
from sfpa.rng import rng_for
from sfpa.sets import members
from sfpa.valuations import (AdditiveValuation, OrValuation, SingleMindedValuation,
                             TableValuation, XosValuation, bit_matrix)

from oracles import examples, outcome_utilities


def single_item(values=(1.0, 2.0)):
    return [AdditiveValuation((float(x),)) for x in values]


def test_walrasian_check_examples():
    vals = single_item()
    ok = walrasian_check(vals, WalrasianEquilibrium(Allocation((1,)), (1.5,)))
    assert ok is None
    andor = andor_game(2, 0.4)
    ok = walrasian_check(andor, WalrasianEquilibrium(Allocation((0, 0)), (0.4, 0.4)))
    assert ok is None
    # v > 1/2: OR player rejects any price supporting the efficient allocation
    andor_hi = andor_game(2, 0.75)
    witness = walrasian_check(andor_hi,
                              WalrasianEquilibrium(Allocation((0, 0)), (0.4, 0.4)))
    assert witness is not None and witness[0] == 1


def test_walrasian_search_single_item_price_range():
    we = walrasian_search(single_item())
    assert we is not None
    assert we.allocation.winners == (1,)
    assert 1.0 - 1e-9 <= we.prices[0] <= 2.0 + 1e-9


@pytest.mark.parametrize("values", [(1.0, 1.0 + 5e-10), (1.0 + 5e-10, 1.0)])
def test_walrasian_search_single_item_near_tie(values):
    # bidder 0's welfare is within 1e-9 of the optimum in the first order but
    # only the exact maximizer has supporting prices
    vals = single_item(values)
    we = walrasian_search(vals)
    assert we is not None
    assert we.allocation.winners == (int(np.argmax(values)),)
    assert exactly_walrasian(vals, we)


def test_walrasian_search_triangle_none():
    vals = triangle_game()
    assert walrasian_search(vals) is None


@pytest.mark.parametrize("v,exists", [(0.3, True), (0.5, True), (0.75, False), (1.0, False)])
def test_walrasian_search_andor_threshold(v, exists):
    we = walrasian_search(andor_game(2, v))
    assert (we is not None) == exists
    if we is not None:
        assert walrasian_check(andor_game(2, v), we) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 (certified, scale-free answers): "
                   "the LP and demand-check tolerances are absolute, so values far below "
                   "them pass any prices")
def test_walrasian_search_andor_none_at_tiny_scale():
    # v = 1 for both bidders, as at c = 1 (no equilibrium), scaled by c
    c = 2.0 ** -40
    assert walrasian_search([SingleMindedValuation(2, 0b11, c), OrValuation(2, c)]) is None


def test_walrasian_search_survives_infeasible_canonical_lp():
    # HiGHS reports the price-sum-minimising LP infeasible here although the
    # max-price LP found supporting prices (0, 0.25, 0.25)
    vals = [TableValuation(3, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5)),
            TableValuation(3, (0.0, 1.25, 1.0, 1.25, 0.75, 1.5, 1.75, 1.75))]
    we = walrasian_search(vals)
    assert we is not None
    assert walrasian_check(vals, we) is None


def test_walrasian_search_walks_maximizers_lazily():
    # all 4^9 assignments tie; the search prices the first and never lists the rest
    we = walrasian_search([AdditiveValuation((0.0,) * 9)] * 4)
    assert we.allocation.winners == (0,) * 9
    assert we.prices == (0.0,) * 9


def test_walrasian_search_solves_one_price_lp(monkeypatch):
    # none of the triangle game's 9 maximizers has supporting prices; the
    # first one's infeasible LP settles it
    from sfpa import equilibrium
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return feasible_point(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "feasible_point", counted)
    vals = triangle_game()
    assert walrasian_search(vals) is None
    assert len(calls) == 1


def exactly_walrasian(vals, we) -> bool:
    """Every player's bundle demand-optimal in exact arithmetic, at the
    prices read as fractions with denominator at most 1000."""
    prices = [Fraction(p).limit_denominator(1000) for p in we.prices]
    for i, v in enumerate(vals):
        utility = [Fraction(v.value(t)) - sum(prices[j] for j in members(t))
                   for t in range(1 << v.m)]
        if max(utility) > utility[we.allocation.bundle(i)]:
            return False
    return True


@settings(max_examples=examples(150), deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), m=st.integers(1, 3))
@example(seed=97875, n=3, m=3)  # prices (2/3, 2/3, 1/6): two bundles tie, but not in floats
def test_walrasian_search_matches_all_maximizer_oracle(seed, n, m):
    # the oracle tries every welfare maximizer; the search only the first
    rng = rng_for(seed, "oracle")
    vals = [_random_lattice_valuation(rng, m) for _ in range(n)]
    we = walrasian_search(vals)
    oracle = any(_support_prices(vals, a) is not None for a in optimal_allocations(vals)[1])
    assert (we is not None) == oracle
    if we is not None:
        assert walrasian_check(vals, we) is None
        assert exactly_walrasian(vals, we)  # snapped prices support the allocation exactly
        assert all(math.copysign(1.0, p) == 1.0 for p in we.prices)


def highs_point(a_ub, b_ub, n, minimize=None):
    """`feasible_point` by scipy's HiGHS at 1e-10 tolerances: the oracle."""
    res = linprog(np.zeros(n) if minimize is None else minimize, A_ub=a_ub, b_ub=b_ub,
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status in (0, 2), res.message
    return res.x if res.status == 0 else None


def test_canonical_prices_match_highs_on_their_face(monkeypatch):
    # The least-max, then least-total face can hold several vertices, and
    # HiGHS picks another one than the simplex on some of these games; only
    # the max, the total and the demand check are compared, no vector.
    rng = np.random.default_rng(5)
    for _ in range(300):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 4))
        vals = [AdditiveValuation(tuple(0.25 * rng.integers(0, 9, m))) if rng.random() < 0.5
                else XosValuation(tuple(tuple(0.25 * rng.integers(0, 9, m))
                                        for _ in range(int(rng.integers(1, 4)))))
                for _ in range(n)]
        _, alloc = optimal_welfare(vals)
        prices = _support_prices(vals, alloc)
        with monkeypatch.context() as patched:
            patched.setattr(equilibrium, "feasible_point", highs_point)
            oracle = _support_prices(vals, alloc)
        assert (prices is None) == (oracle is None)
        if prices is not None:
            assert abs(prices.max() - oracle.max()) <= 1e-9
            assert abs(prices.sum() - oracle.sum()) <= 1e-9
            assert walrasian_check(vals, WalrasianEquilibrium(alloc, tuple(prices))) is None


def test_snapped_prices():
    vals = grid_game(3)  # HiGHS returned 0.9999999998 and 1.0000000001 here
    assert walrasian_search(vals).prices == (1.0,) * 9
    rng = rng_for(20260809, "correspondence", 73)  # HiGHS gave -0.0 here
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    we = walrasian_search([_random_lattice_valuation(rng, m) for _ in range(n)])
    assert all(math.copysign(1.0, p) == 1.0 for p in we.prices)


def test_walrasian_search_grid_side2_all_prices_one():
    vals = grid_game(2)
    we = walrasian_search(vals)
    assert we is not None
    assert we.prices == (1.0,) * 4
    opt = sum(v.value(we.allocation.bundle(i)) for i, v in enumerate(vals))
    assert opt == 4.0


def test_bid_bundle_reads_the_value_table():
    """The items every top-value bundle holds, or all items when none is in
    every one of them."""
    for v, bundle in ((SingleMindedValuation(3, 0b101, 1.0), 0b101),
                      (SingleMindedValuation(3, 0b111, 1.0), 0b111), (OrValuation(3, 0.5), 0b111),
                      (OrValuation(3, 0.5, 0b011), 0b111), (TableValuation(2, (0.0,) * 4), 0b11),
                      (AdditiveValuation((0.5, 0.0, 0.2)), 0b101),
                      (AdditiveValuation((0.5, 0.3, 0.2)), 0b111)):
        assert bid_bundle(v.as_table()) == bundle, v


def test_pure_nash_search_single_item():
    vals = single_item()
    grid = BidGrid(0.1, 2.0)
    favor_bob = PriorityRule(((1, 0),))
    eqs = pure_nash_search(vals, grid, favor_bob, eps=0.0)
    assert ((1.0,), (1.0,)) in [e.bids for e in eqs]
    favor_alice = PriorityRule(((0, 1),))
    eqs1 = pure_nash_search(vals, grid, favor_alice, eps=0.0)
    bids = [e.bids for e in eqs1]
    assert ((1.0,), (1.0,)) not in bids  # Bob undercut by the tie rule
    near = [b for b in bids
            if abs(b[0][0] - 1.0) <= 0.1 + 1e-12 and abs(b[1][0] - 1.0) <= 0.1 + 1e-12]
    assert near  # grid still finds equilibria within one step of (1, 1)


def test_pure_nash_search_andor_both_bid_v():
    vals = andor_game(2, 0.4)
    grid = BidGrid(0.1, 1.0)
    eqs = pure_nash_search(vals, grid, PriorityRule(), eps=0.0)
    target = ((0.4, 0.4), (0.4, 0.4))
    assert any(np.allclose(e.bids, target, atol=1e-12) for e in eqs)


def test_pure_nash_cap():
    vals = single_item((1.0, 2.0))
    with pytest.raises(CapExceeded):
        pure_nash_search(vals, BidGrid(0.0001, 2.0))  # 20001^2 profiles exceed CAP


def test_pure_nash_profiles_counted_before_allocating(monkeypatch):
    """The profile count, (m L)^n for single-item bids, is refused before
    any player's action matrix is built: here 2 x 302 MiB of them."""
    vals = andor_game(20, 1.0)
    grid = BidGrid(1.0101e-5, 1.0, "single_item")

    def zeros(*args, **kwargs):
        raise AssertionError("allocated before the profile count was checked")

    monkeypatch.setattr(np, "zeros", zeros)
    with pytest.raises(CapExceeded, match="^grid_step: past the cap of 11000000 grid profiles; "
                                          r"grid_step >= \S+ fits$") as info:
        pure_nash_search(vals, grid)  # (20 * 99001)^2 profiles
    assert grid.count(20) == 20 * 99001
    assert BidGrid(_step_that_fits(info.value), 1.0).levels() == 165  # (20 * 165)^2 <= CAP


def test_finite_support_refuses_bad_bids():
    vals, grid, zero = single_item(), BidGrid(0.5, 1.0), ([1.0], [[0.0]])
    for bad in (np.nan, np.inf, -0.3):
        with pytest.raises(ValueError, match=r"^strategies\[1\]: must be finite and nonnegative"):
            best_response_gap(vals, [zero, ([0.5, 0.5], [[0.0], [bad]])], 0, grid)
    # ragged rows raised numpy's "inhomogeneous shape" error, naming no field
    with pytest.raises(ValueError, match=r"^strategies\[1\]: must be a matrix of bid rows"):
        best_response_gap(vals, [zero, ([0.5, 0.5], [[0.0], [0.0, 0.0]])], 0, grid)


def _step_that_fits(exc) -> float:
    return float(re.search(r"grid_step >= (\S+)", str(exc)).group(1))


def test_bid_level_cap_names_the_finest_step():
    """The refusal names the finest step that fits: the grid it gives holds
    exactly GRID_CAP levels, and a step 1% finer is refused again."""
    for step, upper in ((1e-9, 2.0), (3e-7, 0.7), (1e-300, 1e300)):
        with pytest.raises(CapExceeded, match="^grid_step: ") as info:
            BidGrid(step, upper).points()
        fits = _step_that_fits(info.value)
        assert BidGrid(fits, upper).points().size == GRID_CAP
        with pytest.raises(CapExceeded):
            BidGrid(0.99 * fits, upper).points()


class PastTheCheck(Exception):
    pass


def test_common_price_scan_priced_by_its_utilities(monkeypatch):
    """The scan prices demand's (n, 2^m, L^m) bundle utilities against CAP
    before it builds the (2^m, L^m) bundle-cost table (bundle_costs is
    patched to stop it there). At m = 16 with two levels per item a count
    of the L^m price vectors alone let through a table of 32 GiB. The
    refusal names the finest step that fits: its level count L is the
    largest that fits, and a step 1% finer is refused again."""
    def costs(*args):
        raise PastTheCheck

    monkeypatch.setattr(equilibrium, "bundle_costs", costs)
    for m, n, step, upper in ((16, 2, 1.0, 1.0), (2, 2, 0.001, 2.0), (3, 1, 0.001, 2.0),
                              (19, 1, 0.001, 2.0)):
        vals = [AdditiveValuation((0.5,) * m)] * n
        with pytest.raises(CapExceeded, match="^grid_step: past the cap of 11000000 ") as info:
            common_price_scan(vals, BidGrid(step, upper))
        fits = _step_that_fits(info.value)
        fit = BidGrid(fits, upper).levels()
        assert (n << m) * fit ** m <= CAP < (n << m) * (fit + 1) ** m
        with pytest.raises(PastTheCheck):
            common_price_scan(vals, BidGrid(fits, upper))
        with pytest.raises(CapExceeded):
            common_price_scan(vals, BidGrid(0.99 * fits, upper))


def test_full_grid_cap_names_the_largest_level_count():
    """The full product grid's refusal names the most bid levels per item
    that fit and the step that gives them; at m = 21 only one level fits."""
    for m in (2, 3, 9, 21):
        with pytest.raises(CapExceeded, match="^grid_step: past the cap of 2000000 ") as info:
            BidGrid(0.001, 2.0).actions_for(m)
        fit = BidGrid(_step_that_fits(info.value), 2.0).levels()
        assert fit ** m <= GRID_CAP < (fit + 1) ** m


def test_learning_level_cap_names_the_finest_step(monkeypatch):
    """additive_dynamics_report refuses a step before building its levels
    and names the finest one that fits; np.arange is patched to stop the
    run right after the check, before any level is allocated."""
    def arange(*args, **kwargs):
        raise PastTheCheck

    monkeypatch.setattr(np, "arange", arange)
    with pytest.raises(CapExceeded, match="^grid_step: ") as info:
        xp.additive_dynamics_report(3, 3, 10, 0, 1e-9)
    fits = _step_that_fits(info.value)
    with pytest.raises(PastTheCheck):
        xp.additive_dynamics_report(3, 3, 10, 0, fits)
    with pytest.raises(CapExceeded):
        xp.additive_dynamics_report(3, 3, 10, 0, 0.99 * fits)


def test_grid_search_input_checked():
    for eps in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            pure_nash_search(single_item(), BidGrid(0.5, 1.0), eps=eps)
    for step in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^grid step"):
            BidGrid(step, 1.0)
    for upper in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^grid max"):
            BidGrid(0.1, upper)
    for probs in ((float("nan"), 1.0), (1.5, -0.5)):
        with pytest.raises(ValueError, match=r"^strategies\[0\]: probabilities must be finite"):
            best_response_gap(single_item(), [(probs, [[0.0], [0.0]])] * 2, 1, BidGrid(0.5, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        RandomizedRule(((float("nan"), PriorityRule()), (1.0, PriorityRule())))


def test_andor_gap_closes_at_the_equilibrium():
    for m in (2, 3):
        for v in (1.0 / m, 1.0):
            pair = AndOrStrategyPair(m, v)
            grid = BidGrid(1e-3, 1.0)
            for role in ("and", "or"):
                res = andor_gap(pair, role, grid)
                assert res.method == "analytic"
                assert res.gap <= 1e-9
    with pytest.raises(ValueError, match="^role: "):
        andor_gap(AndOrStrategyPair(2, 1.0), "xor", BidGrid(0.5, 1.0))


def test_andor_analytic_gap_matches_full_grid():
    # the diagonal (AND) and single-item (OR) scans against every grid vector
    for m in (2, 3):
        rows = BidGrid(0.05, 1.0).actions_for(m)
        for v in (1.0 / m, 2.0 / m, 1.0):
            pair = AndOrStrategyPair(m, v)
            bases = andor_equilibrium_utilities(pair)
            for player, role, evaluate in ((0, "and", andor_utility_and),
                                           (1, "or", andor_utility_or)):
                res = andor_gap(pair, role, BidGrid(0.05, 1.0))
                best = evaluate(pair, rows).max()
                assert res.baseline == bases[player]
                assert abs(evaluate(pair, res.best_deviation) - best) <= 1e-15
                assert abs(res.gap - max(best - bases[player], 0.0)) <= 1e-15


def test_best_response_gap_trivial_finite_support():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((1.0,))]
    zero = (np.ones(1), np.zeros((1, 1)))
    res = best_response_gap(vals, [zero, zero], 1, BidGrid(0.1, 1.0))
    assert res.method == "exact"
    assert res.gap == pytest.approx(1.0 - 0.1)


def test_best_response_gap_monotone_in_grid():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((1.0,))]
    zero = (np.ones(1), np.zeros((1, 1)))
    gaps = [best_response_gap(vals, [zero, zero], 1, BidGrid(s, 1.0)).gap
            for s in (0.2, 0.1, 0.05)]
    assert gaps[0] <= gaps[1] <= gaps[2]  # refining the grid cannot shrink the gap


class _Sampled:
    """A strategy that is not a (probabilities, bid rows) pair, as one known
    only through a sampler would be."""

    def __init__(self, strategy):
        self.strategy = strategy


def test_best_response_gap_refuses_misfit_strategies():
    # two-item bids in a one-item game failed inside numpy, naming no field
    vals, grid = single_item(), BidGrid(0.5, 1.0)
    wide, one = (np.ones(1), np.zeros((1, 2))), (np.ones(1), np.zeros((1, 1)))
    sampled, rows = "need a (probabilities, bid rows) pair, got", "need one row of 1 bids per"
    for strategies, field in (([wide, wide], f"strategies[0]: {rows} probability, got 1 x 2"),
                              ([one, wide], f"strategies[1]: {rows} probability, got 1 x 2"),
                              ([one, ([0.5, 0.5], [[0.0]])], f"strategies[1]: {rows}"),
                              ([one, ([[1.0]], [[0.0]])], f"strategies[1]: {rows}"),
                              ([_Sampled(one), wide], f"strategies[0]: {sampled} _Sampled"),
                              ([one, _Sampled(one)], f"strategies[1]: {sampled} _Sampled"),
                              ([one, (*one, 1.0)], f"strategies[1]: {sampled} tuple"),
                              ([one, np.zeros((2, 1))], f"strategies[1]: {sampled} ndarray"),
                              ([one], "strategies: "), ([one] * 3, "strategies: ")):
        with pytest.raises(ValueError, match="^" + re.escape(field)):
            best_response_gap(vals, strategies, 0, grid)



_TWO_ITEMS = [AdditiveValuation((1.0, 1.0)), AdditiveValuation((0.5, 0.5))]
_PURE_ZERO = (np.ones(1), np.zeros((1, 2)))


@pytest.mark.parametrize("call, field", [
    (lambda: best_response_gap(_TWO_ITEMS, [_PURE_ZERO] * 2, -1, BidGrid(0.5, 1.0)),
     "player: need an index in 0..1, got -1"),
    (lambda: best_response_gap(_TWO_ITEMS, [_PURE_ZERO] * 2, 5, BidGrid(0.5, 1.0)),
     "player: need an index in 0..1, got 5"),
    (lambda: best_response_gap(_TWO_ITEMS, [_PURE_ZERO] * 2, 1.0, BidGrid(0.5, 1.0)),
     "player: need an index in 0..1, got 1.0"),
    (lambda: common_price_gap(_TWO_ITEMS, [0.5, 0.5], Allocation((0, 7))),
     "allocation: need 2 winners in 0..1, got (0, 7)"),
    (lambda: walrasian_near(_TWO_ITEMS, Allocation((0,)), [0.5, 0.5], 0.1),
     "allocation: need 2 winners in 0..1, got (0,)"),
    (lambda: walrasian_check(_TWO_ITEMS, WalrasianEquilibrium(Allocation((0, 5)), (0.5, 0.5))),
     "allocation: need 2 winners in 0..1, got (0, 5)"),
    (lambda: walrasian_check(_TWO_ITEMS, WalrasianEquilibrium(Allocation((0, 1)), (0.5,))),
     "prices: need 2 finite, nonnegative item prices, got (0.5,)"),
    (lambda: common_price_gap(_TWO_ITEMS, [0.5, 0.5, 0.5], Allocation((0, 1))),
     "prices: need 2 finite, nonnegative item prices, got [0.5, 0.5, 0.5]"),
    (lambda: walrasian_near(_TWO_ITEMS, Allocation((0, 1)), [0.5], 0.1),
     "prices: need 2 finite, nonnegative item prices, got [0.5]"),
    (lambda: walrasian_near(_TWO_ITEMS, Allocation((0, 1)), [math.nan, 0.5], 0.1),
     "prices: need 2 finite, nonnegative item prices, got [nan, 0.5]"),
])
def test_malformed_player_allocation_or_prices_refused_naming_the_field(call, field):
    """A player outside 0..n-1, an allocation that is not m winners in
    0..n-1 and a price vector that is not m finite prices are refused: each
    used to score another player, fail inside numpy or answer silently."""
    with pytest.raises(ValueError, match="^" + re.escape(field) + "$"):
        call()


def test_best_response_gap_randomized_rule():
    vals = single_item((2.0, 1.0))
    rule = RandomizedRule(((0.5, PriorityRule(((0, 1),))), (0.5, PriorityRule(((1, 0),)))))
    half = ([1.0], [[0.5]])
    grid = BidGrid(0.25, 1.0)
    expected = {float(x): outcome_utilities(vals, [[x], [0.5]], rule)[0][0]
                for x in grid.points()}
    base = expected[0.5]  # the tie at 0.5 is won half the time
    res = best_response_gap(vals, [half, half], 0, grid, rule)
    assert res.method == "exact" and res.best_deviation == (0.75,)
    assert res.baseline == pytest.approx(base, abs=1e-12)
    assert res.gap == pytest.approx(max(expected.values()) - base, abs=1e-12)


def test_common_price_scan_matches_gap():
    vals = andor_game(2, 0.4)
    grid = BidGrid(0.1, 1.0)
    found = common_price_scan(vals, grid, stop_at_first=False)
    assert found
    for eq in found:
        gap = common_price_gap(vals, eq.prices, eq.allocation)
        assert gap <= 1e-12
        assert walrasian_near(vals, eq.allocation, eq.prices, grid.step + 1e-9)


WALRASIAN_GAMES = {
    "single_item": single_item(),
    "andor": andor_game(2, 0.4),
    "additive": [AdditiveValuation((0.7, 0.1)), AdditiveValuation((0.1, 0.3))],
}


def _pure(bids):
    """Each player's pure strategy as a one-row finite mixture."""
    return [(np.ones(1), np.asarray(row, dtype=np.float64)[None]) for row in bids]


def _favor_winners(alloc: Allocation, n: int) -> PriorityRule:
    return PriorityRule(tuple((w, *(k for k in range(n) if k != w)) for w in alloc.winners))


@pytest.mark.parametrize("game", WALRASIAN_GAMES)
def test_lifted_walrasian_bids_are_eps_equilibria(game):
    """The paper's Walrasian-to-Nash direction through grid deviations:
    everyone bids the Walrasian prices, and each winner lifts its own items
    by eps/m. Whatever the tie rule, no player gains more than eps, since
    any bundle it could take costs at least its Walrasian price."""
    vals = WALRASIAN_GAMES[game]
    n, m = len(vals), vals[0].m
    we = walrasian_search(vals)
    assert we is not None
    grid = BidGrid(0.01, 1.0)
    for eps in (0.1, 0.01):
        bids = np.tile(np.asarray(we.prices, dtype=np.float64), (n, 1))
        for j, w in enumerate(we.allocation.winners):
            bids[w, j] += eps / m
        for rule in (PriorityRule(), PriorityRule(tuple(tuple(range(n))[::-1] for _ in range(m)))):
            gaps = [best_response_gap(vals, _pure(bids), i, grid, rule).gap for i in range(n)]
            assert max(gaps) <= eps + 1e-9, (eps, rule, gaps)


@pytest.mark.parametrize("game", WALRASIAN_GAMES)
def test_best_response_gap_meets_common_price_gap(game):
    """Two scorers of one common-price profile (everyone bids p, ties to the
    allocated winner): the grid's best deviation gains no more than the
    sup over real bids, and at most one grid step per item less. Checked at
    the Walrasian prices, where both gaps close, and at half of them."""
    vals = WALRASIAN_GAMES[game]
    n, m = len(vals), vals[0].m
    we = walrasian_search(vals)
    step = 0.01
    grid = BidGrid(step, 1.0)
    rule = _favor_winners(we.allocation, n)
    for scale in (1.0, 0.5):
        prices = scale * np.asarray(we.prices, dtype=np.float64)
        exact = common_price_gap(vals, prices, we.allocation)
        gaps = [best_response_gap(vals, _pure([prices] * n), i, grid, rule).gap for i in range(n)]
        assert exact - m * step - 1e-9 <= max(gaps) <= exact + 1e-9, (scale, exact, gaps)
    assert common_price_gap(vals, we.prices, we.allocation) <= 1e-12


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), m=st.integers(1, 3))
def test_common_price_scan_hits_are_walrasian(seed, n, m):
    rng = rng_for(seed, "scan-oracle")
    vals = [_random_lattice_valuation(rng, m) for _ in range(n)]
    for eq in common_price_scan(vals, BidGrid(0.25, 2.0), stop_at_first=False):
        we = WalrasianEquilibrium(eq.allocation, eq.prices)
        assert walrasian_check(vals, we) is None
        assert walrasian_near(vals, eq.allocation, eq.prices, 1e-9)


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
       points=st.integers(1, 5))
def test_demand_matches_bundle_loop(seed, n, m, points):
    rng = np.random.default_rng(seed)
    tables = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=(n, 1 << m))
    prices = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, points))
    costs = bundle_costs(prices)
    best = demand(tables, costs)
    for i in range(n):
        assert (demand(tables[i], costs) == best[i]).all()
        for k in range(points):
            assert best[i, k] == max(tables[i, t] - costs[t, k] for t in range(1 << m))


def _step_priced_gap(vals, prices, alloc, step):
    """The discretised game's scorer: a rival pays one grid step above the
    shared price for each item outside its own bundle."""
    costs = bundle_costs(np.asarray(prices, dtype=np.float64))
    bits = bit_matrix(vals[0].m)
    worst = -np.inf
    for i, v in enumerate(vals):
        table, mine = v.as_table(), alloc.bundle(i)
        extra = step * (bits @ (1.0 - bits[mine]))
        worst = max(worst, float((table - costs - extra).max() - (table[mine] - costs[mine])))
    return worst


def test_discrete_game_equilibrium_without_walrasian():
    # Seed 1, instance 140 of the correspondence suite: no Walrasian
    # equilibrium, yet this common-price profile is an exact equilibrium of
    # the game discretised at step 0.05. In the paper's continuous game a
    # player gains 0.15 by deviating.
    rng = rng_for(1, "correspondence", 140)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    vals = [_random_lattice_valuation(rng, m) for _ in range(n)]
    assert (n, m) == (3, 3)
    assert walrasian_search(vals) is None
    prices, alloc = (0.1, 0.55, 0.95), Allocation((2, 1, 1))
    assert common_price_gap(vals, prices, alloc) == pytest.approx(0.15, abs=1e-12)
    assert abs(_step_priced_gap(vals, prices, alloc, 0.05)) <= 1e-12
    assert common_price_scan(vals, BidGrid(0.05, 2.0)) == []


def test_bidgrid_families():
    grid = BidGrid(0.25, 1.0)
    full = grid.actions_for(2)
    assert full.shape == (25, 2)
    uni = BidGrid(0.25, 1.0, "uniform_on_bundle").actions_for(3, bundle=0b101)
    assert uni.shape == (5, 3)
    assert np.all(uni[:, 1] == 0)
    single = BidGrid(0.25, 1.0, "single_item").actions_for(2)
    assert single.shape == (10, 2)
    for family in ("full", "uniform_on_bundle", "single_item"):
        for m in (1, 2, 3):
            grid = BidGrid(0.25, 1.0, family)
            assert grid.count(m) == len(grid.actions_for(m))


def test_correspondence_random_instances():
    for i in range(30):
        rng = rng_for(99, "corr-test", i)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        vals = [_random_lattice_valuation(rng, m) for _ in range(n)]
        case = correspondence_case(vals, walrasian_search(vals))
        assert case["agree"], (i, case)
