from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfpa import auction, dynamics
from sfpa.dynamics import (ExplicitActions, FiniteGame, SeparableGrid,
                           ccqe_welfare_ratio, ks_distance, run_no_regret,
                           verify_cce)
from sfpa.equilibrium import BidGrid, pure_nash_search
from sfpa.experiments import additive_dynamics_report, andor_dynamics_report
from sfpa.auction import PriorityRule, RandomizedRule
from sfpa.rng import rng_for
from sfpa.sets import full_set
from sfpa.valuations import AdditiveValuation, OrValuation, SingleMindedValuation, TableValuation

from oracles import examples, outcome_utilities, run_no_regret_dense, triangle_cdf


def single_item_game(values=(1.0, 2.0), step=0.1):
    vals = [AdditiveValuation((float(x),)) for x in values]
    grid = BidGrid(step, float(max(values)))
    spaces = [ExplicitActions(grid.actions_for(1)) for _ in values]
    return FiniteGame(vals, spaces, grid_step=step)


def test_zero_rounds_rejected():
    with pytest.raises(ValueError, match="^rounds: must be an integer >= 1"):
        run_no_regret(single_item_game(), 0, seed=1)


def test_rounds_over_the_byte_limit_refused_before_allocating(monkeypatch):
    """Records past MC_BYTE_LIMIT are refused by their size, on every machine,
    before np.empty is asked for them: 8 (n m + 3 n F + n) bytes a round,
    here 8 (2 + 6 + 2) = 80 for two one-item players, so 26,843,545 rounds
    fit and one more does not."""
    game = single_item_game()

    def empty(*args, **kwargs):
        raise AssertionError("allocated before the size was checked")

    monkeypatch.setattr(np, "empty", empty)
    with pytest.raises(auction.CapExceeded, match="^rounds: past the cap of 2147483648 bytes; "
                                                  "rounds <= 26843545 fits$"):
        run_no_regret(game, 2 ** 31 // 80 + 1, seed=1)
    with pytest.raises(AssertionError, match="allocated"):
        run_no_regret(game, 2 ** 31 // 80, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.3])
def test_explicit_actions_refuse_bad_bids(bad):
    with pytest.raises(ValueError, match="^actions: must be finite and nonnegative"):
        ExplicitActions([[0.0], [bad]])


@pytest.mark.parametrize("bad", [np.nan, -np.inf, -0.5])
def test_separable_levels_refuse_bad_bids(bad):
    with pytest.raises(ValueError, match="^levels: must be finite and nonnegative"):
        SeparableGrid([[0.0, 0.1], [0.0, bad]])


def test_determinism():
    game = single_item_game()
    a = run_no_regret(game, 500, seed=42)
    b = run_no_regret(game, 500, seed=42)
    assert np.array_equal(a.bids, b.bids)
    assert np.array_equal(a.regret, b.regret)
    c = run_no_regret(game, 500, seed=43)
    assert not np.array_equal(a.bids, c.bids)


def test_regret_envelope_explicit():
    for seed in (0, 1, 2):
        trace = run_no_regret(single_item_game(), 5000, seed=seed)
        assert (trace.regret[-1] <= trace.regret_envelope()).all()
        assert verify_cce(trace) <= 1e-6


def test_single_item_converges_to_walrasian_price():
    # independent oracle: the grid game's exact equilibria sit at price ~1
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((2.0,))]
    eqs = pure_nash_search(vals, BidGrid(0.1, 2.0), PriorityRule(((1, 0),)), eps=0.0)
    prices = {max(b[0][0], b[1][0]) for b in (e.bids for e in eqs)}
    trace = run_no_regret(single_item_game(), 20_000, seed=11)
    tail = trace.bids[-2000:].max(axis=1).mean()
    assert min(abs(tail - p) for p in prices) <= 0.15
    assert float(trace.welfare.mean()) >= 1.8  # welfare approaches 2


def test_dominant_action_takes_over():
    game = FiniteGame([AdditiveValuation((1.0,))],
                      [ExplicitActions([[0.0], [0.5]])], grid_step=0.5)
    trace = run_no_regret(game, 3000, seed=5)
    assert (trace.bids[:, 0, 0] == 0.0).mean() >= 0.95


def test_cce_inequality_from_counterfactuals():
    trace = run_no_regret(single_item_game(), 3000, seed=7)
    # no fixed action beats following the empirical play by more than regret/T
    for i, cum in enumerate(trace.cum_counterfactual):
        best = cum.max()
        realized = trace.utilities[:, i].sum()
        assert best - realized <= trace.regret[-1][i] + 1e-9


def test_separable_equals_additive_semantics():
    w = (0.4, 0.8)
    vals = [AdditiveValuation(w), AdditiveValuation((0.6, 0.2))]
    spaces = [SeparableGrid([np.arange(0, wi + 1e-12, 0.2) for wi in v.weights])
              for v in vals]
    game = FiniteGame(vals, spaces, grid_step=0.2)
    trace = run_no_regret(game, 2000, seed=3)
    assert (trace.regret[-1] <= trace.regret_envelope()).all()
    assert verify_cce(trace) <= 1e-6
    # realized utilities match an independent recomputation from the bids
    for t in (0, 100, 1999):
        bids = trace.bids[t]
        win = bids >= bids.max(axis=0) - 1e-12
        winner = np.argmax(win, axis=0)  # lowest index among tied = default rule
        for i, v in enumerate(vals):
            got = sum((winner[j] == i) * (v.weights[j] - bids[i, j])
                      for j in range(2))
            assert trace.utilities[t, i] == pytest.approx(got, abs=1e-12)


class _TopUniform:
    """Generator stand-in whose every uniform is 1 - 2**-53, the largest
    value Generator.random returns."""

    def random(self, size=None):
        return np.full(size, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("n", [1, 2])  # alone, and against a rival
def test_level_draw_clamped_to_last_valid_level(monkeypatch, n):
    # uniform weights over 13 (or 7) levels sum to 0.9999999999999998 < u,
    # and the second item's levels are padded up to the first item's width
    monkeypatch.setattr(dynamics, "rng_for", lambda *path: _TopUniform())
    levels = [np.arange(13) * 0.05, np.arange(7) * 0.1]
    game = FiniteGame([AdditiveValuation((1.0, 1.0))] * n,
                      [SeparableGrid(levels) for _ in range(n)])
    trace = run_no_regret(game, 1, seed=0)
    assert (trace.bids[0] == [levels[0][-1], levels[1][-1]]).all()


def test_separable_grid_count_is_exact():
    # 21^16 overflows int64; a wrapped count made ln K NaN (or a log error)
    assert SeparableGrid([np.arange(21) * 0.05] * 16).count == 21 ** 16


def test_game_input_checked():
    with pytest.raises(ValueError, match="^n must be >= 1"):
        FiniteGame([], [])
    rule = RandomizedRule(((0.5, PriorityRule()), (0.5, PriorityRule(((1, 0),)))))
    game = single_item_game()
    with pytest.raises(ValueError, match="^tie_rule:"):
        FiniteGame(game.vals, game.spaces, rule)
    with pytest.raises(FrozenInstanceError):  # checked once: no field changes after
        game.rule = rule
    vals = [AdditiveValuation((1.0, 0.5)), AdditiveValuation((0.5, 1.0))]
    two = ExplicitActions([[0.0, 0.0], [0.5, 0.5]])
    for short in (SeparableGrid([[0.0, 0.5]]), ExplicitActions([[0.0], [0.5]])):
        with pytest.raises(ValueError, match=r"^spaces\[1\]: bids on 1 items, the game has 2"):
            FiniteGame(vals, [two, short])


def test_separable_grid_requires_additive():
    with pytest.raises(ValueError):
        FiniteGame([SingleMindedValuation(2, 0b11, 1.0)], [SeparableGrid([[0.0], [0.0]])])


def test_mixed_action_spaces():
    # additive bidder on a separable grid against an AND bidder on uniform
    # bundle bids: separable and explicit factors in one game
    vals = [AdditiveValuation((0.4, 0.4)), SingleMindedValuation(2, 0b11, 1.0)]
    sep = SeparableGrid([np.arange(0, 0.4 + 1e-12, 0.1)] * 2)
    uni = ExplicitActions(BidGrid(0.1, 0.5, "uniform_on_bundle").actions_for(2, full_set(2)))
    game = FiniteGame(vals, [sep, uni], grid_step=0.1)
    trace = run_no_regret(game, 4000, seed=8)
    assert (trace.regret[-1] <= trace.regret_envelope()).all()
    assert verify_cce(trace) <= 1e-6
    rep = ccqe_welfare_ratio(trace)
    assert rep.bound_general_ok


@pytest.mark.parametrize("family", ["separable", "explicit", "mixed"])
def test_verify_cce_catches_a_corrupted_sum(family):
    vals = [AdditiveValuation((0.4, 0.4)), SingleMindedValuation(2, 0b11, 1.0)]
    sep = SeparableGrid([np.arange(0, 0.4 + 1e-12, 0.1)] * 2)
    uni = ExplicitActions(BidGrid(0.1, 0.5, "uniform_on_bundle").actions_for(2))
    spaces = {"separable": [sep, sep], "explicit": [uni, uni], "mixed": [sep, uni]}[family]
    if family == "separable":
        vals = [vals[0], AdditiveValuation((0.6, 0.2))]
    trace = run_no_regret(FiniteGame(vals, spaces, grid_step=0.1), 200, seed=4)
    assert verify_cce(trace) == 0.0
    cum = trace.cum_counterfactual[-1].copy()  # the trace's own arrays are read-only
    cum[np.unravel_index(np.flatnonzero(np.isfinite(cum))[-1], cum.shape)] += 1e-3
    corrupt = replace(trace, cum_counterfactual=(*trace.cum_counterfactual[:-1], cum))
    with pytest.raises(RuntimeError, match="drifted"):
        verify_cce(corrupt)


@pytest.mark.parametrize("family", ["explicit", "mixed"])  # 2 and 3 uniforms a round
@pytest.mark.parametrize("block", [1, 5, 64])
def test_uniform_blocks_leave_the_trace_unchanged(monkeypatch, family, block):
    """Uniforms drawn `BLOCK // draws` rounds at a time, split unevenly over
    70 rounds, give the bits of one block for the whole run."""
    vals = [AdditiveValuation((0.4, 0.4)), SingleMindedValuation(2, 0b11, 1.0)]
    sep = SeparableGrid([np.arange(0, 0.4 + 1e-12, 0.1)] * 2)
    uni = ExplicitActions(BidGrid(0.1, 0.5, "uniform_on_bundle").actions_for(2))
    game = FiniteGame(vals, {"explicit": [uni, uni], "mixed": [sep, uni]}[family], grid_step=0.1)
    ref = run_no_regret(game, 70, seed=5)
    monkeypatch.setattr(auction, "BLOCK", block)
    got = run_no_regret(game, 70, seed=5)
    for a, b in zip((ref.bids, ref.utilities, ref.welfare, ref.regret, *ref.cum_counterfactual),
                    (got.bids, got.utilities, got.welfare, got.regret, *got.cum_counterfactual)):
        assert a.tobytes() == b.tobytes()


def test_welfare_report_fields():
    game = single_item_game()
    trace = run_no_regret(game, 2000, seed=1)
    rep = ccqe_welfare_ratio(trace, beta=1.0)
    assert rep.opt == 2.0
    assert rep.bound_general_ok
    assert rep.bound_beta_ok
    assert rep.ratio >= 1.0 - 1e-9
    dec = rep.decomposition
    # o_i from the optimum, e/u/r from play: values = utilities + payments
    assert dec["o"] == [0.0, 2.0]
    assert sum(dec["e"]) == pytest.approx(rep.welfare, abs=1e-9)
    assert sum(dec["item_prices"]) <= 2.0 + 1e-9
    assert dec["r"][1] == pytest.approx(dec["item_prices"][0])


def test_ks_distance_on_true_samples():
    cdf = triangle_cdf()
    rng = rng_for(4, "ks")
    x = cdf.sample(rng, 50_000)
    assert ks_distance(x, cdf) <= 0.01
    assert ks_distance(np.full(1000, 0.5), cdf) >= 0.9


def test_additive_report_bounds():
    rep = additive_dynamics_report(2, 2, 3000, seed=9)
    assert rep["regret_within_envelope"]
    assert rep["welfare"]["bound_beta_ok"]
    assert rep["cce_recompute_drift"] <= 1e-6


def test_andor_report_fields():
    rep = andor_dynamics_report(2, 1.0, 2000, seed=1, levels=21)
    assert 0.0 <= rep["ks_and_vs_F"] <= 1.0
    assert 0.0 <= rep["ks_or_vs_G"] <= 1.0
    assert rep["and_support_ok"]
    assert rep["welfare"]["bound_general_ok"]
    assert all(r <= e for r, e in zip(rep["regret"], rep["regret_envelope"]))


def _random_player(rng, m, kind=None, step=0.25):
    """An additive bidder on a separable grid whose items have 1-4 levels
    (kind 0), or an AND, OR, monotone-table or additive bidder (kinds 1-4)
    on 1-5 explicit bid vectors; kind 0-3 at random if not given. Bids sit
    on a lattice of `step`, so they tie exactly; values sit on a 0.1
    lattice, so sums of utilities round and their order shows (and so do
    sums of bids, at step 0.1)."""
    kind = rng.integers(4) if kind is None else kind
    if kind in (0, 4):
        val = AdditiveValuation(tuple(0.1 * rng.integers(3, 13, m)))
        if kind == 0:
            return val, SeparableGrid([step * np.arange(rng.integers(1, 5)) for _ in range(m)])
    if kind == 3:
        table = 0.1 * rng.integers(0, 13, 1 << m)
        table[0] = 0.0
        s = np.arange(1 << m)
        for j in range(m):  # max over subsets: monotone
            has = s[s >> j & 1 == 1]
            table[has] = np.maximum(table[has], table[has ^ 1 << j])
        table[-1] += 0.1  # a positive full-bundle value, as normalization needs
        val = TableValuation(m, tuple(table))
    elif kind in (1, 2):
        amount = 0.1 * rng.integers(3, 13)  # an AND bidder is single-minded on every item
        val = (SingleMindedValuation(m, full_set(m), amount) if kind == 1
               else OrValuation(m, amount))
    return val, ExplicitActions(step * rng.integers(0, 5, (rng.integers(1, 6), m)))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([1, 5, 64, auction.BLOCK]))
@settings(max_examples=examples(60), deadline=None)
def test_factored_loop_matches_reference(n, m, seed, block):
    """Any mix of the action families, n = 1 included, under a random
    priority rule: the counterfactuals recompute exactly (verify_cce, in
    blocks small enough to split the rounds), every round's utilities and
    welfare equal the scalar reference outcome, and every recorded bid row is an
    action of its player's family."""
    rng = np.random.default_rng(seed)
    vals, spaces = zip(*(_random_player(rng, m) for _ in range(n)))
    rule = PriorityRule(tuple(tuple(int(i) for i in rng.permutation(n)) for _ in range(m)))
    trace = run_no_regret(FiniteGame(list(vals), list(spaces), rule), 30, seed)
    saved, auction.BLOCK = auction.BLOCK, block
    try:
        assert verify_cce(trace) == 0.0
    finally:
        auction.BLOCK = saved
    for t in range(30):
        utilities, welfare = outcome_utilities(vals, trace.bids[t], rule)
        assert trace.utilities[t] == pytest.approx(utilities, abs=1e-12)
        assert trace.welfare[t] == pytest.approx(welfare, abs=1e-12)
        for i, sp in enumerate(spaces):
            bid = trace.bids[t, i]
            if isinstance(sp, SeparableGrid):  # each item's bid is one of its levels
                assert all((lv == b).any() for lv, b in zip(sp.levels, bid))
            else:
                assert (sp.factors[0][0] == bid).all(axis=1).any()


@given(st.integers(1, 4), st.integers(1, 5), st.sampled_from(["separable", "explicit", "mixed"]),
       st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 5, 64, auction.BLOCK]))
@settings(max_examples=examples(100), deadline=None, derandomize=True)
def test_slot_major_round_matches_dense_oracle(n, m, family, seed, block):
    """The slot-major round gives every byte of the dense (entry, item)
    round of tests/oracles.py: separable, explicit (additive, AND, OR and
    table bidders) and mixed families under a random priority rule, with
    the uniforms drawn in blocks of any size. Bids on a 0.1 lattice make
    the order in which a payment adds its items show."""
    rng = np.random.default_rng(seed)
    kinds = {"separable": [0] * n, "explicit": rng.integers(1, 5, n),
             "mixed": rng.permutation([0, *rng.integers(1, 5, n - 1)])}[family]
    vals, spaces = zip(*(_random_player(rng, m, kind, 0.1) for kind in kinds))
    rule = PriorityRule(tuple(tuple(int(i) for i in rng.permutation(n)) for _ in range(m)))
    game = FiniteGame(list(vals), list(spaces), rule)
    ref = run_no_regret_dense(game, 40, seed)
    saved, auction.BLOCK = auction.BLOCK, block
    try:
        got = run_no_regret(game, 40, seed)
    finally:
        auction.BLOCK = saved
    def arrays(tr):
        return [tr.bids, tr.utilities, tr.welfare, tr.regret, *tr.cum_counterfactual, tr.ln_k,
                tr.payoff_range]

    assert [a.tobytes() for a in arrays(got)] == [a.tobytes() for a in arrays(ref)]


def test_zero_welfare_ratio_is_null():
    # player 0 always outbids player 1 for the one item and values it at 0
    game = FiniteGame([AdditiveValuation((0.0,)), AdditiveValuation((1.0,))],
                      [ExplicitActions([[0.5]]), ExplicitActions([[0.0]])])
    rep = ccqe_welfare_ratio(run_no_regret(game, 5, seed=0))
    assert rep.welfare == 0.0 and rep.ratio is None
