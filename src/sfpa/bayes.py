"""Finite-type Bayesian verification harness.

Players have finitely many types (one valuation each), a joint prior over
type profiles, and per-type mixed strategies over finite action lists.
Everything here is exact enumeration over type profiles and action
combinations, hence deterministic given inputs: the harness verifies
supplied strategies, it does not compute equilibria.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .auction import (PriorityRule, bundle_masks, check_bids, expected_utilities,
                      optimal_welfare, price_to_beat, priority_ranks, product_play, rival_play,
                      rule_from_json, weighted_sum, wins)
from .valuations import (PROB_TOL, SCHEMA, check_probs, entries, fields, numbers,
                         valuations_from_json)


@dataclass
class FiniteBayesianGame:
    """Per-player type lists (a valuation per type), a prior over type
    profiles, and per-player finite action lists."""

    type_vals: list          # type_vals[i][t] is a Valuation
    prior: np.ndarray        # shape (T_1, ..., T_n), sums to 1
    actions: list            # actions[i] is a (K_i, m) bid matrix
    rule: PriorityRule = PriorityRule()

    def __post_init__(self):
        if not self.type_vals:
            raise ValueError("types: need at least one player")
        self.prior = np.asarray(self.prior, dtype=np.float64)
        shape = tuple(len(ts) for ts in self.type_vals)
        if self.prior.shape != shape:
            raise ValueError(f"prior: shape {self.prior.shape} != type counts {shape}")
        check_probs(self.prior.ravel(), "prior")
        for i, vs in enumerate(self.type_vals):
            if any(v.m != self.m for v in vs):
                raise ValueError(f"types[{i}]: every type must cover m={self.m} items")
        if len(self.actions) != self.n:
            raise ValueError(f"actions: need one action list per player ({self.n})")
        self.actions = [check_bids(a, f"actions[{i}]") for i, a in enumerate(self.actions)]
        for i, a in enumerate(self.actions):
            if a.shape[1] != self.m:
                raise ValueError(f"actions[{i}]: need {self.m} bids per vector, got {a.shape[1]}")
        priority_ranks(self.rule, self.n, self.m)  # a deterministic rule, valid for n and m

    @property
    def n(self) -> int:
        return len(self.type_vals)

    @property
    def m(self) -> int:
        return self.type_vals[0][0].m

    def type_marginal(self, player: int) -> np.ndarray:
        axes = tuple(k for k in range(self.n) if k != player)
        return self.prior.sum(axis=axes)

    def is_product(self) -> bool:
        """Does the prior factor into its per-player marginals, within PROB_TOL?"""
        outer = np.ones(())
        for i in range(self.n):
            outer = np.multiply.outer(outer, self.type_marginal(i))
        return bool(np.abs(outer - self.prior).max() <= PROB_TOL)

    def grid_step(self) -> float:
        """Largest spacing between adjacent per-item bid levels on offer."""
        step = 0.0
        for acts in self.actions:
            for j in range(self.m):
                pts = np.unique(acts[:, j])
                if pts.size > 1:
                    step = max(step, float(np.diff(pts).max()))
        return step


def check_strategies(bg: FiniteBayesianGame, strategies: list) -> list:
    """Normalize/validate strategies[i] as a (T_i, K_i) row-stochastic matrix,
    and the tie rule again, as it may be reassigned after construction."""
    priority_ranks(bg.rule, bg.n, bg.m)
    if len(strategies) != bg.n:
        raise ValueError(f"strategies: need one per player ({bg.n}), got {len(strategies)}")
    out = []
    for i, s in enumerate(strategies):
        s = np.asarray(s, dtype=np.float64)
        want = (len(bg.type_vals[i]), bg.actions[i].shape[0])
        if s.shape != want:
            raise ValueError(f"strategies[{i}]: shape {s.shape}, want {want}")
        out.append(check_probs(s, f"strategies[{i}]"))
    return out


def _type_profiles(bg: FiniteBayesianGame):
    """Iterator of (prior probability, type profile) over positive-mass profiles."""
    for types in itertools.product(*(range(len(ts)) for ts in bg.type_vals)):
        q = float(bg.prior[types])
        if q > PROB_TOL:
            yield q, types


def _conditional_utilities(bg: FiniteBayesianGame, strategies: list, players):
    """Iterator of (player i, type t, E[u_i(a) | type t] for every action a)
    over the positive-mass types of `players`. The expectation runs over the
    conditional prior on the opponents' types and their mixed actions, as
    `strategies` stand when (i, t) is reached: the opponents' supports
    as one `product_play`, scored in blocks."""
    for i in players:
        opp = [k for k in range(bg.n) if k != i]
        marg = bg.type_marginal(i)
        for t in range(len(bg.type_vals[i])):
            if marg[t] <= PROB_TOL:
                continue
            table = bg.type_vals[i][t].as_table()
            cond = np.moveaxis(bg.prior, i, 0)[t] / marg[t]
            eu = np.zeros(bg.actions[i].shape[0])
            for opp_types in itertools.product(*(range(len(bg.type_vals[k])) for k in opp)):
                q = float(cond[opp_types] if opp_types else cond)
                if q <= PROB_TOL:
                    continue
                supports = {k: (strategies[k][tk], bg.actions[k]) for k, tk in zip(opp, opp_types)}
                for weights, bids in product_play(bg.n, bg.m, supports, bg.actions[i].size):
                    play = rival_play(bids[:, None], bg.rule)  # (S, 1) profiles: (S, K) utilities
                    eu = weighted_sum(eu, q * weights,
                                      expected_utilities(table, bg.actions[i], play, i))
            yield i, t, eu


def bayes_deviation_gap(bg: FiniteBayesianGame, strategies: list) -> list:
    """Exact per-(player, type) best-deviation gaps.

    gap[i][t] = max_a E[u_i(a) | type t] - E[u_i(strategy) | type t], the
    expectation running over the conditional prior on opponents' types and
    everyone's mixed actions. All gaps <= eps certifies a Bayesian
    eps-equilibrium.
    """
    strategies = check_strategies(bg, strategies)
    gaps = [np.zeros(len(ts)) for ts in bg.type_vals]
    for i, t, eu in _conditional_utilities(bg, strategies, range(bg.n)):
        gaps[i][t] = float(eu.max() - eu @ strategies[i][t])
    return gaps


@dataclass(frozen=True)
class BayesWelfareReport:
    """Expected-welfare ratio against the two Bayesian price-of-anarchy bounds.

    The bounds hold for Bayesian eps-equilibria up to explicit slack from
    the measured gaps and the bid grid spacing: general
    E[OPT] <= (4mn+2) E[SW] + 2(sum_i avg_gap_i + n m step), and for a
    product prior over beta-XOS valuations
    E[OPT] <= 4 beta E[SW] + 2 beta (sum_i avg_gap_i + n m step).
    `gap_precondition_ok` flags strategies whose measured deviation gaps
    exceed the claimed eps: the bounds then say nothing beyond their slack.
    """

    expected_opt: float
    expected_welfare: float
    ratio: float | None  # None when the strategies have zero expected welfare
    avg_gaps: tuple
    max_gap: float
    eps: float
    gap_precondition_ok: bool
    grid_step: float
    bound_general: float
    bound_general_ok: bool
    beta: float | None
    product_prior: bool
    bound_beta: float | None
    bound_beta_ok: bool | None
    beta_check_skipped: str | None


def expected_welfare(bg: FiniteBayesianGame, strategies: list) -> float:
    """E over types and mixed actions of the realized social welfare, one
    stacked joint play per type profile."""
    strategies = check_strategies(bg, strategies)
    ranks = priority_ranks(bg.rule, bg.n, bg.m)
    total = 0.0
    for q, types in _type_profiles(bg):
        tables = [bg.type_vals[i][t].as_table() for i, t in enumerate(types)]
        supports = {k: (strategies[k][t], bg.actions[k]) for k, t in enumerate(types)}
        for weights, bids in product_play(bg.n, bg.m, supports, bg.n * bg.m):
            bundles = bundle_masks(wins(bids, *price_to_beat(bids, ranks)))  # (B, n)
            welfare = sum(table[bundles[:, i]] for i, table in enumerate(tables))
            total = weighted_sum(total, q * weights, welfare)
    return float(total)


def bayes_welfare_bounds(bg: FiniteBayesianGame, strategies: list,
                         beta: float | None = None,
                         eps: float = PROB_TOL) -> BayesWelfareReport:
    """Expected optimal vs equilibrium welfare with slack-aware bound checks.

    `eps` is the claimed equilibrium quality; measured gaps above it flag
    the report's gap precondition."""
    e_sw = expected_welfare(bg, strategies)  # it and bayes_deviation_gap check the strategies
    gaps = bayes_deviation_gap(bg, strategies)
    e_opt = 0.0
    for q, types in _type_profiles(bg):
        e_opt += q * optimal_welfare([bg.type_vals[i][t] for i, t in enumerate(types)])[0]
    avg_gaps = tuple(float(np.dot(bg.type_marginal(i), np.maximum(gaps[i], 0.0)))
                     for i in range(bg.n))
    max_gap = max(float(g.max()) for g in gaps)
    step = bg.grid_step()
    n, m = bg.n, bg.m
    slack = 2.0 * (sum(avg_gaps) + n * m * step)
    bound_general = (4 * m * n + 2) * e_sw + slack
    general_ok = e_opt <= bound_general + 1e-12
    product = bg.is_product()
    skipped = None
    bound_beta = beta_ok = None
    if beta is None:
        skipped = "no beta supplied"
    elif not math.isfinite(beta):
        skipped = "valuations are not beta-XOS for finite beta"
    elif not product:
        skipped = "prior is not a product distribution"
    else:
        bound_beta = 4.0 * beta * e_sw + 2.0 * beta * (sum(avg_gaps) + n * m * step)
        beta_ok = e_opt <= bound_beta + 1e-12
    return BayesWelfareReport(e_opt, e_sw, e_opt / e_sw if e_sw > 0 else None,
                              avg_gaps, max_gap, eps, max_gap <= eps + PROB_TOL,
                              step, bound_general, general_ok,
                              beta, product, bound_beta, beta_ok, skipped)


def bayesian_game_from_json(d) -> tuple[FiniteBayesianGame, list]:
    """A game and strategies from a file keyed as SCHEMA says: per player,
    valuation objects per type, bid vectors, and rows of action probabilities
    per type; the prior is a nested table or a product prior object."""
    fields(d, "Bayesian game file", SCHEMA["Bayesian game file"])
    type_vals = [valuations_from_json(ts, key) for key, ts in entries(d["types"], "types")]
    if isinstance(d["prior"], dict):
        table = np.ones(())
        for key, marg in entries(fields(d["prior"], "prior", SCHEMA["product prior"])["marginals"],
                                 "prior.marginals"):
            table = np.multiply.outer(table, numbers(marg, key, 1))
    else:
        table = numbers(d["prior"], "prior")
    rule = rule_from_json(d.get("tie_rule", {"kind": "index"}))
    actions = [numbers(a, key, 2) for key, a in entries(d["actions"], "actions")]
    strategies = [numbers(s, key, 2) for key, s in entries(d["strategies"], "strategies")]
    return FiniteBayesianGame(type_vals, table, actions, rule), strategies
