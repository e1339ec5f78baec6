"""The in-library simplex of `sfpa.lp` against scipy's HiGHS, the oracle.

scipy is imported here, by the tests, and never by `sfpa`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from sfpa.lp import LpError, feasible_point

from oracles import examples


def highs(a, b, c):
    """"infeasible", "unbounded" or the optimal value of min c.x subject to
    a x <= b, x >= 0. Feasibility is decided with c = 0, because HiGHS may
    report an unbounded LP as infeasible, or as infeasible-or-unbounded."""
    def solve(cost):
        return linprog(cost, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    first = solve(np.zeros(len(c)))
    assert first.status in (0, 2), first.message
    if first.status == 2:
        return "infeasible"
    res = solve(c)
    return res.fun if res.status == 0 else "unbounded"


@st.composite
def lps(draw):
    """A in {-1, 0, 1}^(rows x d), b on the 0.25 lattice, and c >= 0, c = 0 or c <= 0."""
    d, rows = draw(st.integers(1, 6)), draw(st.integers(0, 30))
    a = draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=rows * d, max_size=rows * d))
    b = draw(st.lists(st.integers(-8, 8), min_size=rows, max_size=rows))
    sign = draw(st.sampled_from((1.0, 0.0, -1.0)))
    c = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d))
    return (np.array(a).reshape(rows, d), 0.25 * np.array(b, dtype=np.float64),
            sign * 0.25 * np.array(c, dtype=np.float64))


@settings(max_examples=examples(200), derandomize=True, deadline=None)
@given(lp=lps())
# primal and dual both infeasible: x1 - x2 <= -1 and x2 - x1 <= -1
@example(lp=(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, -1.0]), np.array([-1.0, -1.0])))
# unbounded: x1 - x2 <= 0 lets x1 = x2 grow without limit
@example(lp=(np.array([[1.0, -1.0]]), np.array([0.0]), np.array([-1.0, 0.0])))
def test_feasible_point_matches_highs(lp):
    a, b, c = lp
    want = highs(a, b, c)
    try:
        x = feasible_point(a, b, len(c), minimize=c)
    except LpError:
        assert want == "unbounded"
        return
    if x is None:
        assert want == "infeasible"
        return
    assert not isinstance(want, str), want
    assert abs(float(c @ x) - want) <= 1e-9
    assert (x >= -1e-9).all() and (a @ x <= b + 1e-9).all()


def test_feasible_point_without_objective():
    # the one-item price range [1, 2]: any point of it, and None once it is empty
    a = np.array([[1.0], [-1.0]])
    x = feasible_point(a, [2.0, -1.0], 1)
    assert 1.0 - 1e-9 <= x[0] <= 2.0 + 1e-9
    assert feasible_point(a, [0.5, -1.0], 1) is None
    with pytest.raises(LpError, match="unbounded"):
        feasible_point(np.zeros((0, 2)), [], 2, minimize=[-1.0, 0.0])
