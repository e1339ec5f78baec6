"""Checked objects are read-only data: a write into a checked game,
rule, action family or trace raises at the write, and a write
into the caller's own array after the check does not reach the object."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from sfpa.auction import PriorityRule, RandomizedRule, check_bids, rival_play
from sfpa.bayes import expected_welfare
from sfpa.dynamics import ExplicitActions, FiniteGame, SeparableGrid, run_no_regret
from sfpa.experiments import exact_two_type_bne, two_type_bne_game
from sfpa.valuations import AdditiveValuation, check_probs

READ_ONLY = "read-only"


def test_checks_return_read_only_copies():
    bids, probs = np.zeros((2, 2)), np.full(4, 0.25)
    checked_bids, checked_probs = check_bids(bids), check_probs(probs, "probs")
    bids[0], probs[0] = 1.0, 1.0
    assert (checked_bids == 0.0).all() and (checked_probs == 0.25).all()
    for checked in (checked_bids, checked_probs):
        with pytest.raises(ValueError, match=READ_ONLY):
            checked[0] = 1.0


def test_bayesian_prior_and_actions_are_read_only():
    bg, acts = two_type_bne_game(0.05)
    strategies = exact_two_type_bne(bg, acts)
    with pytest.raises(ValueError, match=READ_ONLY):
        bg.prior[:] *= 2
    with pytest.raises(ValueError, match=READ_ONLY):
        bg.actions[0][3, 0] = -1.0
    assert bg.actions[0] is not acts
    acts[3, 0] = -1.0  # the builder's own array: the game holds a copy
    assert (bg.actions[0] >= 0).all()
    assert expected_welfare(bg, strategies) == pytest.approx(0.9)
    with pytest.raises(TypeError):
        bg.actions[0] = np.zeros((1, 1))
    with pytest.raises(TypeError):
        bg.type_vals[0][0] = AdditiveValuation((5.0,))


def test_action_families_hold_read_only_copies():
    a = np.array([[0.0], [0.5]])
    family = ExplicitActions(a)
    a[1, 0] = -5.0
    rows, support = family.factors[0]
    assert rows[1, 0] == 0.5 and family.max_spend() == 0.5
    levels = [np.array([0.0, 0.25]), np.array([0.0, 0.5, 1.0])]
    grid = SeparableGrid(levels)
    levels[0][1] = -5.0
    assert grid.levels[0][1] == 0.25 and grid.count == 6 and grid.max_spend() == 1.25
    for arr in (rows, support, *grid.levels, *(x for f in grid.factors for x in f)):
        with pytest.raises(ValueError, match=READ_ONLY):
            arr[0] = 1
    with pytest.raises(FrozenInstanceError):
        family.factors = ()
    with pytest.raises(FrozenInstanceError):
        grid.levels = ()


def test_tie_rules_are_tuples():
    r = RandomizedRule([(0.5, PriorityRule()), (0.5, PriorityRule([[1, 0]]))])
    assert r.mixture[1][1].order == ((1, 0),)
    with pytest.raises(TypeError):
        r.mixture[0] = (5.0, PriorityRule())
    with pytest.raises(TypeError):
        r.mixture[1][1].order[0] = (0, 1)
    assert [p for p, _, _ in rival_play(np.ones((2, 1)), r)] == [0.5, 0.5]


def test_game_and_trace_are_read_only():
    vals = [AdditiveValuation((1.0,)), AdditiveValuation((2.0,))]
    game = FiniteGame(vals, [ExplicitActions([[0.0], [0.5], [1.0]])] * 2, grid_step=0.5)
    with pytest.raises(AttributeError):
        game.vals.append(AdditiveValuation((3.0,)))
    with pytest.raises(TypeError):
        game.spaces[0] = ExplicitActions([[2.0]])
    trace = run_no_regret(game, 20, seed=1)
    envelope = trace.regret_envelope()
    with pytest.raises(FrozenInstanceError):
        trace.rounds = 10 ** 6
    for arr in (trace.bids, trace.utilities, trace.welfare, trace.regret, trace.ln_k,
                trace.payoff_range, *trace.cum_counterfactual):
        with pytest.raises(ValueError, match=READ_ONLY):
            arr.flat[0] = 1.0
    assert (trace.regret_envelope() == envelope).all()
