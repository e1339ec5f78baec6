import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfpa.auction import (TIE_TOL, CapExceeded, PriorityRule, RandomizedRule,
                          allocate, bid_utilities, optimal_allocations,
                          optimal_welfare, outcome, price_to_beat,
                          priority_ranks, rule_from_json, wins)
from sfpa.equilibrium import walrasian_search
from sfpa.valuations import (AdditiveValuation, AndValuation, OrValuation,
                             SingleMindedValuation, TableValuation, bit_matrix,
                             bundle_costs, paid)

from oracles import allocate_reference, examples, outcome_utilities


def test_allocate_strict_max():
    alloc = allocate([[1.0], [2.0]])
    assert alloc.winners == (1,)


def test_allocate_tie_priority():
    favor_second = PriorityRule(((1, 0),))
    assert allocate([[1.0], [1.0]], favor_second).winners == (1,)
    assert allocate([[1.0], [1.0]]).winners == (0,)


def test_allocate_randomized_mixture():
    rule = RandomizedRule(((0.5, PriorityRule(((0, 1),))),
                           (0.5, PriorityRule(((1, 0),)))))
    branches = allocate([[1.0], [1.0]], rule)
    assert len(branches) == 2
    assert {b.winners for _, b in branches} == {(0,), (1,)}
    assert all(p == 0.5 for p, _ in branches)


def test_outcome_single_item_overbid_by_cent():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((2.0,))]
    o = outcome(vals, [[1.0], [1.01]])
    assert o.utilities == (0.0, pytest.approx(0.99))
    assert o.welfare == 2.0
    assert o.revenue == pytest.approx(1.01)


def test_outcome_all_zero_bids_to_priority_winner():
    vals = [AndValuation(2, 1.0), OrValuation(2, 0.5)]
    o = outcome(vals, [[0.0, 0.0], [0.0, 0.0]])
    assert o.allocation.winners == (0, 0)
    assert o.utilities == (1.0, 0.0)
    assert o.revenue == 0.0


def test_outcome_andor_hand_simulated():
    # OR outbids on item 0 only; AND keeps item 1 and eats its losing cost.
    vals = [AndValuation(2, 1.0), OrValuation(2, 0.7)]
    o = outcome(vals, [[0.2, 0.2], [0.3, 0.0]])
    assert o.allocation.winners == (1, 0)
    assert o.utilities[0] == pytest.approx(-0.2)
    assert o.utilities[1] == pytest.approx(0.7 - 0.3)
    assert o.welfare == pytest.approx(0.7)


def test_outcome_randomized_expectation():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((2.0,))]
    rule = RandomizedRule(((0.25, PriorityRule(((0, 1),))),
                           (0.75, PriorityRule(((1, 0),)))))
    o = outcome(vals, [[1.0], [1.0]], rule)
    assert o.allocation is None
    assert len(o.branches) == 2
    assert o.welfare == pytest.approx(0.25 * 1.0 + 0.75 * 2.0)
    assert o.utilities[1] == pytest.approx(0.75 * 1.0)
    assert sum(p for p, _ in o.branches) == 1.0


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=examples(40), deadline=None)
def test_outcome_invariants(n, m, seed):
    rng = np.random.default_rng(seed)
    vals = [AdditiveValuation(tuple(rng.uniform(0, 2, m))) for _ in range(n)]
    bids = rng.uniform(0, 2, (n, m))
    o = outcome(vals, bids)
    # every item assigned exactly once; revenue + utilities == welfare
    bundles = o.allocation.bundles(n)
    union = 0
    for b in bundles:
        assert union & b == 0
        union |= b
    assert union == (1 << m) - 1
    assert o.revenue + sum(o.utilities) == pytest.approx(o.welfare, abs=1e-9)
    opt, _ = optimal_welfare(vals)
    assert o.welfare <= opt + 1e-9


def _monotone_table(rng, m, lattice=False):
    raw = rng.choice(np.arange(9) / 4, 1 << m) if lattice else rng.uniform(0, 1, 1 << m)
    table = np.zeros(1 << m)
    for s in range(1, 1 << m):
        table[s] = max(raw[s], max(table[s & ~(1 << j)] for j in range(m) if s >> j & 1))
    return TableValuation(m, tuple(table))


@given(st.integers(1, 4), st.integers(1, 9), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=examples(80), deadline=None)
def test_first_price_kernel_matches_reference(n, m, priority, additive, seed):
    """The batched kernel and `allocate`/`outcome` against the scalar
    reference in tests/oracles.py: winners of every profile, and every
    player's utility for unilateral deviations, bit for bit. Values are
    monotone tables or additive weights (whose table sums run in item
    order); payments too are summed in item order, which numpy's pairwise
    `sum` would not match from 8 items up. Half the bids come from a coarse
    grid, nudged by 0, 0.6 or 1.2 TIE_TOL, to force exact ties and chains of
    near ties whose ends lie more than TIE_TOL apart."""
    rng = np.random.default_rng(seed)
    order = tuple(tuple(int(i) for i in rng.permutation(n)) for _ in range(m))
    rule = PriorityRule(order) if priority else PriorityRule()
    ranks = priority_ranks(rule, n, m)

    def draw(shape):
        coarse = (rng.choice([0.0, 0.25, 0.5, 1.0], shape)
                  + rng.choice([0.0, 0.6 * TIE_TOL, 1.2 * TIE_TOL], shape))
        return np.where(rng.random(shape) < 0.5, coarse, rng.uniform(0, 1, shape))

    vals = [AdditiveValuation(tuple(rng.uniform(0, 1, m))) if additive
            else _monotone_table(rng, m) for _ in range(n)]
    profiles = draw((5, n, m))
    deviations = draw((6, m))
    beat, ahead = price_to_beat(profiles, ranks)
    for p, bids in enumerate(profiles):
        assert allocate(bids, rule).winners == allocate_reference(bids, rule).winners
        assert outcome(vals, bids, rule).utilities == tuple(outcome_utilities(vals, bids, rule))
        for i in range(n):
            got = bid_utilities(vals[i].as_table(), deviations, beat[p, i], ahead[p, i])
            for x, u in zip(deviations, got):
                deviated = bids.copy()
                deviated[i] = x
                assert u == outcome_utilities(vals, deviated, rule)[i]


def test_walrasian_outcome_welfare_is_the_optimum():
    """First welfare theorem, to the bit: everyone bids the equilibrium
    prices, ties go to the allocated winner, and the outcome's welfare is
    the welfare DP's optimum (the value tables and the DP add in one order)."""
    vals = [AdditiveValuation((0.7, 0.1, 0.2, 0.3)), AdditiveValuation((0.1, 0.05, 0.1, 0.1))]
    we = walrasian_search(vals)
    rule = PriorityRule(tuple((w, 1 - w) for w in we.allocation.winners))
    o = outcome(vals, [we.prices] * 2, rule)
    assert o.allocation == we.allocation
    assert o.welfare == optimal_welfare(vals)[0]


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=examples(100), deadline=None)
def test_price_to_beat_matches_player_loop(n, m, lead, priority, seed):
    """The rival gather against a per-player scalar loop over 0-2 leading
    axes: beat is the highest other bid, and ahead the highest bid of a
    rival of better rank (-inf if none). Bids on a coarse grid, some nudged
    by half of TIE_TOL, tie exactly and nearly."""
    rng = np.random.default_rng(seed)
    order = tuple(tuple(int(i) for i in rng.permutation(n)) for _ in range(m))
    ranks = priority_ranks(PriorityRule(order) if priority else PriorityRule(), n, m)
    shape = tuple(int(k) for k in rng.integers(1, 4, lead)) + (n, m)
    coarse = rng.choice([0.0, 0.25, 0.5], shape) + rng.choice([0.0, 0.0, TIE_TOL / 2], shape)
    bids = np.where(rng.random(shape) < 0.8, coarse, rng.uniform(0, 1, shape))
    beat, ahead = price_to_beat(bids, ranks)
    assert beat.shape == ahead.shape == shape
    for at in np.ndindex(shape[:-2]):
        for i in range(n):
            rivals = [k for k in range(n) if k != i]
            for j in range(m):
                assert beat[at][i, j] == max((bids[at][k, j] for k in rivals), default=-np.inf)
                assert ahead[at][i, j] == max((bids[at][k, j] for k in rivals
                                               if ranks[j, k] < ranks[j, i]), default=-np.inf)


def test_near_tie_chain_has_one_winner_everywhere():
    """Three bids 0.8e-12 apart: the ends are more than TIE_TOL apart, so
    only the top two tie, and the rule's favorite of those, player 2, wins.
    `allocate`, `outcome`, `wins` and `bid_utilities` all say so."""
    bids = np.array([[1.0], [1.0 + 0.8e-12], [1.0 + 1.6e-12]])
    rule = PriorityRule(((0, 2, 1),))
    vals = [AdditiveValuation((2.0,))] * 3
    beat, ahead = price_to_beat(bids, priority_ranks(rule, 3, 1))
    assert allocate(bids, rule).winners == allocate_reference(bids, rule).winners == (2,)
    assert wins(bids, beat, ahead)[:, 0].tolist() == [False, False, True]
    utilities = outcome(vals, bids, rule).utilities
    assert utilities == tuple(outcome_utilities(vals, bids, rule))
    assert utilities == tuple(float(bid_utilities(vals[i].as_table(), bids[i], beat[i], ahead[i]))
                              for i in range(3))
    assert utilities[2] == 2.0 - bids[2, 0]


@pytest.mark.parametrize("m", range(8, 13))
def test_paid_is_bundle_costs_fold(m):
    """`paid` over every bundle's bit row is `bundle_costs`, bit for bit,
    past the 8 items from which numpy's `sum` adds in pairs."""
    prices = np.random.default_rng(m).uniform(0, 1, m)
    assert paid(bit_matrix(m), prices).tobytes() == bundle_costs(prices).tobytes()


def _enumerated_optimum(vals, tol=1e-9, limit=65536):
    """Reference welfare oracle: every item->player assignment, welfare
    summed in bidder order. Returns the maximum, the lexicographically
    first maximizer (item 0 most significant) and every assignment within
    tol of the maximum, in lexicographic order."""
    n, m = len(vals), vals[0].m
    idx = np.arange(n ** m)
    digits = [(idx // n ** (m - 1 - j)) % n for j in range(m)]
    welfare = np.zeros(idx.shape)
    for i, v in enumerate(vals):
        welfare += v.as_table()[sum((d == i).astype(np.int64) << j for j, d in enumerate(digits))]
    best = float(welfare.max())
    hits = np.flatnonzero(welfare >= best - tol)
    if len(hits) > limit:
        raise CapExceeded(f"more than {limit} optimal allocations")
    first = int(np.argmax(welfare))
    return (best, tuple(int(d[first]) for d in digits),
            [tuple(int(d[h]) for d in digits) for h in hits])


def test_optimal_welfare_examples():
    v = 1 / np.sqrt(2)
    opt, alloc = optimal_welfare([AndValuation(2, 1.0), OrValuation(2, float(v))])
    assert opt == 1.0 and alloc.winners == (0, 0)
    tri = [SingleMindedValuation(3, b, 1.0) for b in (0b011, 0b110, 0b101)]
    opt_tri, _ = optimal_welfare(tri)
    assert opt_tri == 1.0
    assert _enumerated_optimum(tri)[0] == 1.0


def test_optimal_welfare_grid_game():
    side = 2
    m = side * side
    bundles = [0b0011, 0b1100, 0b0101, 0b1010]
    vals = [SingleMindedValuation(m, b, float(side)) for b in bundles]
    opt, alloc = optimal_welfare(vals)
    assert opt == 4.0
    assert _enumerated_optimum(vals)[0] == 4.0


@given(st.integers(1, 4), st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=examples(80), deadline=None)
def test_optimal_welfare_matches_dp(n, m, lattice, seed):
    """The subset DP against the enumeration, exactly: the value, the
    lexicographically first maximizer, and the ordered list of maximizers
    within the default tol. Lattice tables force exact ties."""
    rng = np.random.default_rng(seed)
    vals = [_monotone_table(rng, m, lattice) for _ in range(n)]
    best, first, within = _enumerated_optimum(vals)
    opt, alloc = optimal_welfare(vals)
    assert opt == best and alloc.winners == first
    opt, allocs = optimal_allocations(vals)
    assert opt == best and [a.winners for a in allocs] == within


def test_optimal_welfare_near_tie():
    # Within tol of each other, but only the second bidder's value is optimal.
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((1.0 + 5e-10,))]
    best, first, within = _enumerated_optimum(vals)
    opt, alloc = optimal_welfare(vals)
    assert opt == best == 1.0 + 5e-10 and alloc.winners == first == (1,)
    assert [a.winners for a in optimal_allocations(vals)[1]] == within == [(0,), (1,)]


def test_optimal_welfare_all_zero_bidders():
    # All 4^9 assignments tie, so the enumeration's first maximizer is all
    # zeros; it refuses to list them, and so must the DP.
    vals = [AdditiveValuation((0.0,) * 9)] * 4
    opt, alloc = optimal_welfare(vals)
    assert opt == 0.0 and alloc.winners == (0,) * 9
    with pytest.raises(CapExceeded):
        _enumerated_optimum(vals)
    with pytest.raises(CapExceeded, match="limit=65536"):
        optimal_allocations(vals)


def test_optimal_welfare_lexicographic_tie():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((1.0,))]
    _, alloc = optimal_welfare(vals)
    assert alloc.winners == (0,)  # tie broken toward the lex-first assignment


def test_optimal_allocations_lists_all():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((1.0,))]
    best, allocs = optimal_allocations(vals)
    assert best == 1.0 and len(allocs) == 2


def test_cap_enforced():
    vals = [AdditiveValuation(tuple([1.0] * 10))] * 6
    with pytest.raises(CapExceeded, match=r"= 237220 subset pairs exceed cap 1000"):
        optimal_welfare(vals, cap=1000)


def test_outcome_with_branch_detail():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((2.0,))]
    rule = RandomizedRule(((0.5, PriorityRule(((0, 1),))),
                           (0.5, PriorityRule(((1, 0),)))))
    out = outcome(vals, [[1.0], [1.0]], rule)
    assert out.welfare == pytest.approx(1.5) and out.allocation is None
    assert len(out.branches) == 2
    assert out.branches[0][1].allocation.winners == (0,)
    det = outcome(vals, [[1.0], [1.5]])
    assert det.allocation.winners == (1,)
    assert det.branches == ()


def test_rule_json_roundtrip():
    """Each kind of tie rule is read from its literal JSON object."""
    index, order = {"kind": "index"}, {"kind": "priority", "order": [[1, 0], [0, 1]]}
    docs = [(index, PriorityRule()), (order, PriorityRule(((1, 0), (0, 1)))),
            ({"kind": "randomized", "mixture": [{"prob": 0.5, "rule": index},
                                                {"prob": 0.5, "rule": order}]},
             RandomizedRule(((0.5, PriorityRule()), (0.5, PriorityRule(((1, 0), (0, 1)))))))]
    for doc, rule in docs:
        assert rule_from_json(doc) == rule


def test_bid_validation():
    with pytest.raises(ValueError):
        allocate([[1.0], [-0.5]])
    with pytest.raises(ValueError):
        allocate([[np.inf], [0.0]])
    with pytest.raises(ValueError):
        RandomizedRule(((0.6, PriorityRule()),))
