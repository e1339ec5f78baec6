"""The rival-play kernel against the scalar loops it replaced.

`pure_nash_search`, the exact best-response gap and the Bayesian
conditional utilities score blocks of profiles through
`auction.rival_play` / `expected_utilities`. The reference loops below are
the per-profile versions they replaced: one `price_to_beat` per profile
(the welfare loop allocates by the scalar `allocate_reference`), visited
with `itertools.product`. The comparisons are exact, bit for bit, on small
random games with coarse bids that force ties.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

from sfpa import auction
from sfpa.auction import (BLOCK, PriorityRule, RandomizedRule, bid_utilities,
                          expected_utilities, price_to_beat, product_play,
                          rival_play, weighted_sum)
from sfpa.bayes import FiniteBayesianGame, _conditional_utilities, expected_welfare
from sfpa.equilibrium import BidGrid, best_response_gap, pure_nash_search
from sfpa.valuations import TableValuation

from oracles import allocate_reference, examples


def _branches(rule):
    return [(1.0, rule)] if isinstance(rule, PriorityRule) else list(rule.mixture)


def _expected_utilities(table, rows, against, player):
    return sum(prob * bid_utilities(table, rows, beat[..., player, :], ahead[..., player, :])
               for prob, beat, ahead in against)


def pure_nash_loop(vals, grid, rule, eps):
    n, m = len(vals), vals[0].m
    actions = [grid.actions_for(m) for _ in range(n)]
    branches = _branches(rule)
    tables = [v.as_table() for v in vals]
    found = []
    for combo in itertools.product(*(range(a.shape[0]) for a in actions)):
        bids = np.stack([actions[i][combo[i]] for i in range(n)])
        against = [(prob, *price_to_beat(bids, det)) for prob, det in branches]
        worst = 0.0
        for i in range(n):
            dev = _expected_utilities(tables[i], actions[i], against, i)
            cur = float(_expected_utilities(tables[i], bids[i], against, i))
            worst = max(worst, float(dev.max()) - cur)
            if worst > eps + 1e-12:
                break
        if worst <= eps + 1e-12:
            found.append((tuple(tuple(float(x) for x in row) for row in bids), worst))
    return found


def exact_gap_loop(vals, strategies, player, grid, rule):
    n, m = len(vals), vals[0].m
    branches = _branches(rule)
    opp_index = [k for k in range(n) if k != player]
    actions = grid.actions_for(m)
    table = vals[player].as_table()
    dev = np.zeros(actions.shape[0])
    base = 0.0
    own = strategies[player]
    bids = np.zeros((n, m))
    for combo in itertools.product(*(range(len(strategies[k][0])) for k in opp_index)):
        prob = math.prod(strategies[opp_index[t]][0][c] for t, c in enumerate(combo))
        for t, c in enumerate(combo):
            bids[opp_index[t]] = strategies[opp_index[t]][1][c]
        against = [(prob, *price_to_beat(bids, det)) for prob, det in branches]
        dev += prob * _expected_utilities(table, actions, against, player)
        payoff = _expected_utilities(table, own[1], against, player)
        base += prob * float(np.dot(own[0], payoff))
    k = int(np.argmax(dev))
    return float(dev[k]) - base, base, tuple(actions[k])


def _joint_play_loop(bg, strategies, types):
    supports = [[(p, bg.actions[k][a]) for a, p in enumerate(strategies[k][t]) if p > 0]
                for k, t in types.items()]
    bids = np.zeros((bg.n, bg.m))
    for combo in itertools.product(*supports):
        for k, (_, b) in zip(types, combo):
            bids[k] = b
        yield math.prod(p for p, _ in combo), bids


def conditional_utilities_loop(bg, strategies):
    for i in range(bg.n):
        opp = [k for k in range(bg.n) if k != i]
        marg = bg.type_marginal(i)
        for t in range(len(bg.type_vals[i])):
            if marg[t] <= 1e-12:
                continue
            table = bg.type_vals[i][t].as_table()
            cond = np.moveaxis(bg.prior, i, 0)[t] / marg[t]
            eu = np.zeros(bg.actions[i].shape[0])
            for opp_types in itertools.product(*(range(len(bg.type_vals[k])) for k in opp)):
                q = float(cond[opp_types] if opp_types else cond)
                if q <= 1e-12:
                    continue
                for prob, bids in _joint_play_loop(bg, strategies, dict(zip(opp, opp_types))):
                    beat, ahead = price_to_beat(bids, bg.rule)
                    eu += q * prob * bid_utilities(table, bg.actions[i], beat[i], ahead[i])
            yield i, t, eu


def expected_welfare_loop(bg, strategies):
    total = 0.0
    for types in itertools.product(*(range(len(ts)) for ts in bg.type_vals)):
        q = float(bg.prior[types])
        if q <= 1e-12:
            continue
        vals = [bg.type_vals[i][t] for i, t in enumerate(types)]
        for prob, bids in _joint_play_loop(bg, strategies, dict(enumerate(types))):
            alloc = allocate_reference(bids, bg.rule)
            total += q * prob * sum(v.value(alloc.bundle(i)) for i, v in enumerate(vals))
    return total


def bits(x) -> str:
    return float(x).hex()


def random_table(rng, m):
    """Monotone value table: on the 0.25 lattice (ties) or on 0.1 steps
    (inexact sums), with value 0 for the empty bundle."""
    step = 0.25 if rng.random() < 0.5 else 0.1
    raw = step * rng.integers(0, 9, 1 << m)
    table = np.zeros(1 << m)
    for s in range(1, 1 << m):
        table[s] = max(raw[s], max(table[s & ~(1 << j)] for j in range(m) if s >> j & 1))
    return TableValuation(m, tuple(float(x) for x in table))


def random_rule(rng, n, m, randomized):
    def priority():
        return PriorityRule(tuple(tuple(int(i) for i in rng.permutation(n)) for _ in range(m)))
    if not randomized:
        return priority() if rng.random() < 0.7 else PriorityRule()
    p = float(rng.choice([0.25, 0.5, 1.0 / 3.0]))
    return RandomizedRule(((p, priority()), (1.0 - p, priority())))


def random_mixture(rng, m, step):
    """1-3 bid rows on a coarse grid, as a (probabilities, rows) pair;
    probabilities sum to 1 and may be 0."""
    k = int(rng.integers(1, 4))
    probs = rng.choice([0.0, 1.0, 2.0, 3.0], k)
    probs[0] += 1.0
    probs = probs / probs.sum()
    bids = step * rng.integers(0, 4, (k, m))
    return probs, bids


small_games = st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
block_entries = st.sampled_from([1, 5, 64, BLOCK])  # small blocks split the scans


@contextmanager
def block_size(entries):
    saved, auction.BLOCK = auction.BLOCK, entries
    try:
        yield
    finally:
        auction.BLOCK = saved


@settings(max_examples=examples(60), deadline=None)
@given(game=small_games, randomized=st.booleans(), eps=st.sampled_from([0.0, 0.05, 0.2]),
       grid=st.sampled_from([(0.5, 1.0), (0.3, 0.6), (0.25, 0.5), (0.1, 0.2)]),
       block=block_entries)
def test_pure_nash_search_matches_profile_loop(game, randomized, eps, grid, block):
    n, m, seed = game
    rng = np.random.default_rng(seed)
    vals = [random_table(rng, m) for _ in range(n)]
    rule = random_rule(rng, n, m, randomized)
    grid = BidGrid(*grid)
    with block_size(block):
        got = [(e.bids, bits(e.gap)) for e in pure_nash_search(vals, grid, rule, eps)]
    assert got == [(b, bits(g)) for b, g in pure_nash_loop(vals, grid, rule, eps)]


@settings(max_examples=examples(80), deadline=None)
@given(game=small_games, randomized=st.booleans(),
       grid=st.sampled_from([(0.5, 1.5), (0.3, 0.9), (0.1, 0.6)]), block=block_entries)
def test_exact_gap_matches_atom_loop(game, randomized, grid, block):
    n, m, seed = game
    rng = np.random.default_rng(seed)
    vals = [random_table(rng, m) for _ in range(n)]
    rule = random_rule(rng, n, m, randomized)
    step = float(rng.choice([0.25, 0.3]))
    strategies = [random_mixture(rng, m, step) for _ in range(n)]
    grid = BidGrid(*grid)
    for player in range(n):
        with block_size(block):
            res = best_response_gap(vals, strategies, player, grid, rule)
        gap, base, dev = exact_gap_loop(vals, strategies, player, grid, rule)
        assert res.method == "exact"
        assert (bits(res.gap), bits(res.baseline), res.best_deviation) == \
            (bits(gap), bits(base), dev)


@settings(max_examples=examples(60), deadline=None)
@given(game=small_games, types=st.lists(st.integers(1, 2), min_size=3, max_size=3),
       correlated=st.booleans(), block=block_entries)
def test_bayesian_utilities_match_joint_play_loop(game, types, correlated, block):
    n, m, seed = game
    rng = np.random.default_rng(seed)
    counts = types[:n]
    type_vals = [[random_table(rng, m) for _ in range(c)] for c in counts]
    prior = rng.choice([0.0, 1.0, 2.0, 3.0], counts) if correlated else np.ones(counts)
    prior.flat[0] += 1.0
    prior = prior / prior.sum()
    actions = [0.25 * np.unique(rng.integers(0, 5, (int(rng.integers(1, 5)), m)), axis=0)
               for _ in range(n)]
    bg = FiniteBayesianGame(type_vals, prior, actions, random_rule(rng, n, m, False))
    strategies = []
    for i in range(n):
        s = rng.choice([0.0, 1.0, 1.0, 2.0, 3.0], (counts[i], len(actions[i])))
        s[:, 0] += 1.0
        strategies.append(s / s.sum(axis=1, keepdims=True))
    with block_size(block):
        got = [(i, t, eu.tobytes())
               for i, t, eu in _conditional_utilities(bg, strategies, range(n))]
        welfare = expected_welfare(bg, strategies)
    assert got == [(i, t, eu.tobytes()) for i, t, eu in conditional_utilities_loop(bg, strategies)]
    assert bits(welfare) == bits(expected_welfare_loop(bg, strategies))


def test_product_play_is_lexicographic():
    mixed = {0: (np.array([0.25, 0.75]), np.array([[3.0], [4.0]])),
             2: (np.array([0.5, 0.0, 0.5]), np.array([[1.0], [9.0], [2.0]]))}
    blocks = list(product_play(3, 1, mixed, BLOCK // 2))  # two profiles per block
    assert [len(w) for w, _ in blocks] == [2, 2]
    weights = np.concatenate([w for w, _ in blocks])
    bids = np.concatenate([b for _, b in blocks])
    # player 2's atoms vary fastest; its zero-probability atom is skipped
    assert bids[:, :, 0].tolist() == [[3.0, 0.0, 1.0], [3.0, 0.0, 2.0],
                                      [4.0, 0.0, 1.0], [4.0, 0.0, 2.0]]
    assert weights.tolist() == [0.125, 0.125, 0.375, 0.375]
    weights, bids = next(product_play(2, 2, {}, 4))
    assert weights.tolist() == [1.0] and bids.tolist() == [[[0.0, 0.0], [0.0, 0.0]]]


def test_weighted_sum_adds_in_order():
    # a running total loses each 1.0 against 1e16; a pairwise sum would keep them
    values = np.array([[1.0], [1.0], [1.0]])
    assert weighted_sum(np.array([1e16]), np.ones(3), values)[0] == 1e16
    assert weighted_sum(0.0, np.array([0.5, 0.25]), np.array([2.0, 4.0])) == 2.0


def test_expected_utilities_weights_tie_branches():
    bids = np.array([[[0.5], [0.5]]])  # one profile, both bid 0.5
    rule = RandomizedRule(((0.25, PriorityRule(((0, 1),))), (0.75, PriorityRule(((1, 0),)))))
    play = rival_play(bids, rule)
    table = np.array([0.0, 1.0])
    rows = np.array([[[0.5]], [[0.75]]])  # (K, 1, m) rows against the (1,) profiles
    assert expected_utilities(table, rows, play, 0).tolist() == [[0.25 * 0.5], [0.25]]
