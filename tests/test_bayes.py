import json

import numpy as np
import pytest

from sfpa.auction import PriorityRule, RandomizedRule
from sfpa.bayes import (FiniteBayesianGame, bayes_deviation_gap, bayes_welfare_bounds,
                        bayesian_game_from_json, best_response_strategies,
                        expected_welfare)
from sfpa.equilibrium import BidGrid, FiniteSupportStrategy, best_response_gap
from sfpa.experiments import bayes_report, exact_two_type_bne, two_type_bne_game
from sfpa.valuations import AdditiveValuation, AndValuation, OrValuation


def pure(strategy_shape, picks):
    s = np.zeros(strategy_shape)
    for t, a in enumerate(picks):
        s[t, a] = 1.0
    return s


def test_degenerate_prior_reproduces_full_information_gaps():
    grid = BidGrid(0.1, 1.0)
    acts = grid.actions_for(1)
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((1.0,))]
    bg = FiniteBayesianGame([[vals[0]], [vals[1]]], np.array([[1.0]]), [acts, acts])
    strat = [pure((1, acts.shape[0]), [0]), pure((1, acts.shape[0]), [0])]
    gaps = bayes_deviation_gap(bg, strat)
    fs = FiniteSupportStrategy(((1.0, (0.0,)),))
    for i in range(2):
        full = best_response_gap(vals, [fs, fs], i, grid)
        assert gaps[i][0] == full.gap  # exact equality, both exact enumerations


def test_two_or_values_vs_fixed_and():
    # two equally likely OR targets vs a known AND bidder; gaps are reported,
    # no equilibrium claim is made
    grid = BidGrid(0.25, 1.0)
    acts2 = grid.actions_for(2)
    types = [[AndValuation(2, 1.0)],
             [OrValuation(2, 0.5), OrValuation(2, 1.0)]]
    prior = np.array([[0.5, 0.5]])
    bg = FiniteBayesianGame(types, prior, [acts2, acts2])
    k = acts2.shape[0]
    and_idx = int(np.flatnonzero((acts2 == [0.25, 0.25]).all(axis=1))[0])
    or_low = int(np.flatnonzero((acts2 == [0.25, 0.0]).all(axis=1))[0])
    or_high = int(np.flatnonzero((acts2 == [0.5, 0.0]).all(axis=1))[0])
    strat = [pure((1, k), [and_idx]), pure((2, k), [or_low, or_high])]
    gaps = bayes_deviation_gap(bg, strat)
    assert all(np.isfinite(g).all() for g in gaps)
    assert all((g >= -1e-12).all() for g in gaps)


def test_exact_best_response_has_zero_gap():
    bg, acts = two_type_bne_game(0.05)
    k = acts.shape[0]
    arbitrary = [pure((2, k), [2, 5]), pure((2, k), [1, 3])]
    # replace player 0's rows by exact best responses to player 1's strategy
    improved, _ = best_response_strategies(bg, arbitrary, sweeps=1, players=[0])
    gaps = bayes_deviation_gap(bg, improved)
    assert gaps[0].max() <= 1e-12  # fixed point of the check for player 0


def test_two_type_bne_gap_zero_and_bounds():
    bg, acts = two_type_bne_game(0.05)
    strategies = exact_two_type_bne(bg, acts)
    assert strategies is not None
    gaps = bayes_deviation_gap(bg, strategies)
    assert max(g.max() for g in gaps) == 0.0
    rep = bayes_welfare_bounds(bg, strategies, beta=1.0)
    assert rep.product_prior
    assert rep.bound_beta_ok and rep.bound_general_ok
    assert rep.ratio <= 4.0 + 2.0 * (rep.grid_step * bg.n * bg.m) / rep.expected_welfare


def test_adversarial_strategies_flag_gap_precondition():
    bg, acts = two_type_bne_game(0.05)
    k = acts.shape[0]
    # everyone bids 0: player 1's high type forgoes an easy win
    strat = [pure((2, k), [0, 0]), pure((2, k), [0, 0])]
    rep = bayes_welfare_bounds(bg, strat, beta=1.0)
    assert not rep.gap_precondition_ok
    assert rep.max_gap > 0.1
    good = exact_two_type_bne(bg, acts)
    assert bayes_welfare_bounds(bg, good, beta=1.0).gap_precondition_ok


def test_non_product_prior_skips_beta_check():
    grid = BidGrid(0.5, 1.0)
    acts = grid.actions_for(1)
    types = [[AdditiveValuation((0.5,)), AdditiveValuation((1.0,))],
             [AdditiveValuation((0.5,)), AdditiveValuation((1.0,))]]
    prior = np.array([[0.5, 0.0], [0.0, 0.5]])  # perfectly correlated
    bg = FiniteBayesianGame(types, prior, [acts, acts])
    k = acts.shape[0]
    strat = [pure((2, k), [0, 0]), pure((2, k), [0, 0])]
    rep = bayes_welfare_bounds(bg, strat, beta=1.0)
    assert not rep.product_prior
    assert rep.bound_beta is None
    assert rep.beta_check_skipped == "prior is not a product distribution"
    assert rep.bound_general_ok


def test_infinite_beta_skips():
    grid = BidGrid(0.5, 1.0)
    acts = grid.actions_for(2)
    types = [[AndValuation(2, 1.0)], [OrValuation(2, 0.5)]]
    bg = FiniteBayesianGame(types, np.array([[1.0]]), [acts, acts])
    k = acts.shape[0]
    strat = [pure((1, k), [0]), pure((1, k), [0])]
    rep = bayes_welfare_bounds(bg, strat, beta=float("inf"))
    assert rep.bound_beta is None
    assert "beta" in rep.beta_check_skipped


def test_expected_welfare_exact():
    bg, acts = two_type_bne_game(0.05)
    k = acts.shape[0]
    strat = [pure((2, k), [0, 0]), pure((2, k), [0, 0])]  # everyone bids 0
    # player 0 wins all ties at 0; its expected type value is 0.9
    assert expected_welfare(bg, strat) == pytest.approx(0.9)


def test_prior_validation():
    with pytest.raises(ValueError):
        FiniteBayesianGame([[AdditiveValuation((1.0,))]], np.array([0.5]),
                           [np.zeros((1, 1))])
    types = [[AdditiveValuation((1.0,)), AdditiveValuation((0.5,))]]
    with pytest.raises(ValueError, match="^prior:"):  # NaN fails every comparison
        FiniteBayesianGame(types, np.array([np.nan, 1.0]), [np.zeros((1, 1))])


def test_game_input_checked_where_it_enters():
    types = [[AndValuation(2, 1.0)], [OrValuation(2, 0.5)]]
    acts = BidGrid(0.5, 1.0).actions_for(2)
    with pytest.raises(ValueError, match=r"^actions\[1\]: need 2 bids"):
        FiniteBayesianGame(types, np.array([[1.0]]), [acts, acts[:, :1]])
    rule = RandomizedRule(((0.5, PriorityRule()), (0.5, PriorityRule(((1, 0), (1, 0))))))
    with pytest.raises(ValueError, match="^tie_rule:"):
        FiniteBayesianGame(types, np.array([[1.0]]), [acts, acts], rule)
    bg = FiniteBayesianGame(types, np.array([[1.0]]), [acts, acts])
    k = acts.shape[0]
    bg.rule = rule  # reassigned after construction: refused where it is used
    for use in (bayes_deviation_gap, expected_welfare):
        with pytest.raises(ValueError, match="^tie_rule:"):
            use(bg, [pure((1, k), [0])] * 2)
    bg.rule = PriorityRule()
    bad = pure((1, k), [0])
    bad[0, 1] = np.nan
    for strategies in ([pure((1, k), [0]), bad], [pure((1, k), [0]), pure((2, k), [0, 0])]):
        with pytest.raises(ValueError, match=r"^strategies\[1\]:"):
            bayes_deviation_gap(bg, strategies)


def test_json_ingestion():
    doc = {
        "types": [[{"kind": "additive", "m": 1, "weights": [1.0]}],
                  [{"kind": "additive", "m": 1, "weights": [0.5]}]],
        "prior": {"kind": "product", "marginals": [[1.0], [1.0]]},
        "actions": [[[0.0], [0.5]], [[0.0], [0.5]]],
        "strategies": [[[1.0, 0.0]], [[0.0, 1.0]]],
    }
    bg, strategies = bayesian_game_from_json(doc)
    assert bg.n == 2 and bg.m == 1
    gaps = bayes_deviation_gap(bg, strategies)
    assert len(gaps) == 2


def test_bayes_report_payload():
    rep = bayes_report(0.05)
    assert rep["degenerate"]["exactly_equal"]
    assert rep["two_type"]["bne_found"]
    assert rep["two_type"]["max_gap"] == 0.0
    assert rep["two_type"]["welfare"]["bound_beta_ok"]
