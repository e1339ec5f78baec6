import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfpa.auction import (CAP, TIE_TOL, Allocation, CapExceeded, PriorityRule, RandomizedRule,
                          bid_utilities, bundle_masks, check_bids, expected_utilities,
                          optimal_allocations, optimal_welfare, price_to_beat, priority_ranks,
                          rival_cells, rival_play, rule_from_json, welfare_maximizers, wins)
from sfpa.dynamics import ExplicitActions, FiniteGame
from sfpa.equilibrium import (BidGrid, WalrasianEquilibrium,
                              best_response_gap, common_price_gap, common_price_scan,
                              pure_nash_search, walrasian_check, walrasian_near, walrasian_search)
from sfpa.experiments import andor_game
from sfpa.valuations import (AdditiveValuation, SingleMindedValuation, TableValuation, bit_matrix,
                             bundle_costs, paid)

from oracles import allocate_reference, examples, outcome_utilities


def _realized(vals, bids, rule=PriorityRule()):
    """The kernel on a realized profile: who won what (`wins`), and each
    player's utility (`bid_utilities`) and value of its won bundle."""
    beat, ahead = price_to_beat(bids, rule)
    won = wins(bids, beat, ahead)
    tables = [v.as_table() for v in vals]
    utilities = [float(bid_utilities(t, bids[i], beat[i], ahead[i])) for i, t in enumerate(tables)]
    return won, utilities, [float(t[bundle_masks(won[i])]) for i, t in enumerate(tables)]


def test_first_price_strict_max():
    bids = np.array([[1.0], [2.0]])
    assert wins(bids, *price_to_beat(bids, PriorityRule())).tolist() == [[False], [True]]


def test_first_price_tie_priority():
    bids = np.array([[1.0], [1.0]])
    favor_second = PriorityRule(((1, 0),))
    assert wins(bids, *price_to_beat(bids, favor_second)).tolist() == [[False], [True]]
    assert wins(bids, *price_to_beat(bids, PriorityRule())).tolist() == [[True], [False]]


def test_first_price_randomized_mixture():
    rule = RandomizedRule(((0.5, PriorityRule(((0, 1),))),
                           (0.5, PriorityRule(((1, 0),)))))
    bids = np.array([[1.0], [1.0]])
    play = rival_play(bids, rule)
    assert [p for p, _, _ in play] == [0.5, 0.5]
    assert [wins(bids, beat, ahead)[:, 0].tolist() for _, beat, ahead in play] == \
        [[True, False], [False, True]]


def test_first_price_single_item_overbid_by_cent():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((2.0,))]
    bids = np.array([[1.0], [1.01]])
    won, utilities, values = _realized(vals, bids)
    assert utilities == [0.0, pytest.approx(0.99)]
    assert sum(values) == 2.0
    assert paid(won, bids).sum() == pytest.approx(1.01)


def test_first_price_all_zero_bids_to_priority_winner():
    vals = andor_game(2, 0.5)
    bids = np.zeros((2, 2))
    won, utilities, _ = _realized(vals, bids)
    assert won.tolist() == [[True, True], [False, False]]
    assert utilities == [1.0, 0.0]
    assert paid(won, bids).sum() == 0.0


def test_first_price_andor_hand_simulated():
    # OR outbids on item 0 only; AND keeps item 1 and eats its losing cost.
    vals = andor_game(2, 0.7)
    won, utilities, values = _realized(vals, np.array([[0.2, 0.2], [0.3, 0.0]]))
    assert won.argmax(axis=0).tolist() == [1, 0]
    assert utilities == [pytest.approx(-0.2), pytest.approx(0.7 - 0.3)]
    assert sum(values) == pytest.approx(0.7)


def test_first_price_randomized_expectation():
    """A randomized rule scored through `rival_play` and
    `expected_utilities`: each branch weighted by its probability, as the
    scalar reference weights it."""
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((2.0,))]
    bids = np.array([[1.0], [1.0]])
    for probs, welfare in (((0.25, 0.75), 0.25 * 1.0 + 0.75 * 2.0), ((0.5, 0.5), 1.5)):
        rule = RandomizedRule(((probs[0], PriorityRule(((0, 1),))),
                               (probs[1], PriorityRule(((1, 0),)))))
        play = rival_play(bids, rule)
        utilities = [float(expected_utilities(v.as_table(), bids[i], play, i))
                     for i, v in enumerate(vals)]
        assert utilities[1] == pytest.approx(probs[1] * 1.0)
        reference, reference_welfare = outcome_utilities(vals, bids, rule)
        assert utilities == pytest.approx(reference)
        assert reference_welfare == pytest.approx(welfare)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=examples(40), deadline=None)
def test_first_price_invariants(n, m, seed):
    rng = np.random.default_rng(seed)
    vals = [AdditiveValuation(tuple(rng.uniform(0, 2, m))) for _ in range(n)]
    bids = rng.uniform(0, 2, (n, m))
    won, utilities, values = _realized(vals, bids)
    # every item assigned exactly once; revenue + utilities == welfare
    assert (won.sum(axis=0) == 1).all()
    assert paid(won, bids).sum() + sum(utilities) == pytest.approx(sum(values), abs=1e-9)
    opt, _ = optimal_welfare(vals)
    assert sum(values) <= opt + 1e-9


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
    """The batched kernel against the scalar reference in tests/oracles.py:
    one winner per item of every profile, the reference's, and every
    player's utility for the profile and for unilateral deviations, bit for
    bit. Values are
    monotone tables or additive weights (whose table sums run in item
    order); payments too are summed in item order, which numpy's pairwise
    `sum` would not match from 8 items up. Half the bids come from a coarse
    grid, nudged by 0, 0.6 or 1.2 TIE_TOL, to force exact ties and chains of
    near ties whose ends lie more than TIE_TOL apart."""
    rng = np.random.default_rng(seed)
    order = tuple(tuple(int(i) for i in rng.permutation(n)) for _ in range(m))
    rule = PriorityRule(order) if priority else PriorityRule()

    def draw(shape):
        coarse = (rng.choice([0.0, 0.25, 0.5, 1.0], shape)
                  + rng.choice([0.0, 0.6 * TIE_TOL, 1.2 * TIE_TOL], shape))
        return np.where(rng.random(shape) < 0.5, coarse, rng.uniform(0, 1, shape))

    vals = [AdditiveValuation(tuple(rng.uniform(0, 1, m))) if additive
            else _monotone_table(rng, m) for _ in range(n)]
    profiles = draw((5, n, m))
    deviations = draw((6, m))
    beat, ahead = price_to_beat(profiles, rule)
    for p, bids in enumerate(profiles):
        won = wins(bids, beat[p], ahead[p])
        assert (won.sum(axis=0) == 1).all()
        assert tuple(won.argmax(axis=0).tolist()) == allocate_reference(bids, rule).winners
        assert _realized(vals, bids, rule)[1] == outcome_utilities(vals, bids, rule)[0]
        for i in range(n):
            got = bid_utilities(vals[i].as_table(), deviations, beat[p, i], ahead[p, i])
            for x, u in zip(deviations, got):
                deviated = bids.copy()
                deviated[i] = x
                assert u == outcome_utilities(vals, deviated, rule)[0][i]


def test_walrasian_welfare_is_the_optimum():
    """First welfare theorem, to the bit: everyone bids the equilibrium
    prices, ties go to the allocated winner, and the winners' values add up
    to the welfare DP's optimum (the value tables and the DP add in one order)."""
    vals = [AdditiveValuation((0.7, 0.1, 0.2, 0.3)), AdditiveValuation((0.1, 0.05, 0.1, 0.1))]
    we = walrasian_search(vals)
    rule = PriorityRule(tuple((w, 1 - w) for w in we.allocation.winners))
    won, _, values = _realized(vals, np.array([we.prices] * 2), rule)
    assert tuple(won.argmax(axis=0).tolist()) == we.allocation.winners
    assert sum(values) == optimal_welfare(vals)[0]


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=examples(100), deadline=None)
def test_price_to_beat_matches_player_loop(n, m, lead, priority, seed):
    """The rival gather against a per-player scalar loop over 0-2 leading
    axes: beat is the highest other bid, and ahead the highest bid of a
    rival of better rank (-inf if none). Bids on a coarse grid, some nudged
    by half of TIE_TOL, tie exactly and nearly. `rival_cells` gathers the
    same pairs from each flat profile, and +inf at its dead column."""
    rng = np.random.default_rng(seed)
    order = tuple(tuple(int(i) for i in rng.permutation(n)) for _ in range(m))
    rule = PriorityRule(order) if priority else PriorityRule()
    ranks = priority_ranks(rule, n, m)
    shape = tuple(int(k) for k in rng.integers(1, 4, lead)) + (n, m)
    coarse = rng.choice([0.0, 0.25, 0.5], shape) + rng.choice([0.0, 0.0, TIE_TOL / 2], shape)
    bids = np.where(rng.random(shape) < 0.8, coarse, rng.uniform(0, 1, shape))
    beat, ahead = price_to_beat(bids, rule)
    assert beat.shape == ahead.shape == shape
    cells = rival_cells(rule, n, m)
    for at in np.ndindex(shape[:-2]):
        gathered = np.concatenate([bids[at].ravel(), [-np.inf, np.inf]])[cells].max(axis=0)
        assert gathered.tolist() == [[*beat[at].ravel(), np.inf], [*ahead[at].ravel(), np.inf]]
        for i in range(n):
            rivals = [k for k in range(n) if k != i]
            for j in range(m):
                assert beat[at][i, j] == max((bids[at][k, j] for k in rivals), default=-np.inf)
                assert ahead[at][i, j] == max((bids[at][k, j] for k in rivals
                                               if ranks[j, k] < ranks[j, i]), default=-np.inf)


def test_near_tie_chain_has_one_winner_everywhere():
    """Three bids 0.8e-12 apart: the ends are more than TIE_TOL apart, so
    only the top two tie, and the rule's favorite of those, player 2, wins.
    The scalar reference, `wins` and `bid_utilities` all say so."""
    bids = np.array([[1.0], [1.0 + 0.8e-12], [1.0 + 1.6e-12]])
    rule = PriorityRule(((0, 2, 1),))
    vals = [AdditiveValuation((2.0,))] * 3
    assert allocate_reference(bids, rule).winners == (2,)
    won, utilities, _ = _realized(vals, bids, rule)
    assert won[:, 0].tolist() == [False, False, True]
    assert utilities == outcome_utilities(vals, bids, rule)[0]
    assert utilities[2] == 2.0 - bids[2, 0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 (certified, scale-free answers): "
                   "TIE_TOL is absolute, so bids far below it all tie")
def test_tiny_bids_go_to_the_higher_bidder():
    c = 2.0 ** -40
    bids = np.array([[c], [1.5 * c]])
    assert wins(bids, *price_to_beat(bids, PriorityRule())).tolist() == [[False], [True]]


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
    opt, alloc = optimal_welfare(andor_game(2, float(v)))
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


_GRID = BidGrid(0.5, 1.0)
_ITEM_0 = Allocation((0,))
# Every full-information entry point, called on a market `vals` of one-item
# valuations for two players; a structural test in test_bench_names.py holds
# this table to every public function of sfpa.auction and sfpa.equilibrium
# that takes `vals`.
ITEM_COUNT_CALLS = {
    optimal_welfare: lambda vals: optimal_welfare(vals),
    optimal_allocations: lambda vals: optimal_allocations(vals),
    welfare_maximizers: lambda vals: welfare_maximizers(vals, CAP, 0.0),
    walrasian_search: lambda vals: walrasian_search(vals),
    walrasian_check: lambda vals: walrasian_check(vals, WalrasianEquilibrium(_ITEM_0, (0.5,))),
    walrasian_near: lambda vals: walrasian_near(vals, _ITEM_0, [0.5], 0.1),
    pure_nash_search: lambda vals: pure_nash_search(vals, _GRID),
    best_response_gap: lambda vals: best_response_gap(
        vals, [(np.ones(1), np.zeros((1, 1)))] * 2, 0, _GRID),
    common_price_scan: lambda vals: common_price_scan(vals, _GRID),
    common_price_gap: lambda vals: common_price_gap(vals, [0.5], _ITEM_0),
    FiniteGame: lambda vals: FiniteGame(vals, [ExplicitActions([[0.0], [0.5]])] * 2),
}


def test_mismatched_item_counts_refused_naming_the_field():
    """Every full-information entry point (`ITEM_COUNT_CALLS`) reads its
    value tables through `value_tables`: it refuses valuations over
    different item counts, naming the first that differs, before numpy
    meets them and before any answer is returned. Each call runs on a
    market whose valuations agree, so the refusal is the item count's."""
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((1.0, 2.0))]
    message = r"^vals\[1\]: covers m=2 items, vals\[0\] has m=1$"
    for fn, call in ITEM_COUNT_CALLS.items():
        call([vals[0], vals[0]])
        with pytest.raises(ValueError, match=message):
            call(vals)
            pytest.fail(f"{fn.__name__} answered a mismatched market")
    with pytest.raises(ValueError, match=r"^vals\[2\]: covers m=1 items, vals\[0\] has m=2$"):
        optimal_welfare([vals[1], vals[1], vals[0]])


def test_randomized_rule_holds_only_index_or_priority_rules():
    """A mixture of mixtures is refused where it is built. A branch that
    does not suit the game is refused by `priority_ranks` when
    `rival_play` scores it."""
    inner = RandomizedRule(((1.0, PriorityRule()),))
    with pytest.raises(ValueError, match=r"^tie_rule\.mixture\[1\]\.rule: need an index or "
                                         r"priority rule, got RandomizedRule$"):
        RandomizedRule(((0.5, PriorityRule()), (0.5, inner)))
    two_lists = RandomizedRule(((0.5, PriorityRule()), (0.5, PriorityRule(((0, 1), (1, 0))))))
    with pytest.raises(ValueError, match=r"^tie_rule: need one priority list per item "
                                         r"\(1\), got 2$"):
        rival_play(np.ones((2, 1)), two_lists)


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
    for bids in ([[1.0], [-0.5]], [[np.inf], [0.0]]):
        with pytest.raises(ValueError, match="^bids: must be finite and nonnegative$"):
            check_bids(bids)
    with pytest.raises(ValueError):
        RandomizedRule(((0.6, PriorityRule()),))
