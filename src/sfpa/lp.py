"""Thin linear-programming helpers over scipy's HiGHS backend.

HiGHS solves these small problems (thousands of rows at most) to simplex
accuracy, ample for the 1e-9 money tolerance used throughout. scipy.optimize
loads on the first solve: learning, closed forms and Monte Carlo never load it.
"""

from __future__ import annotations

import numpy as np


class LpError(RuntimeError):
    pass


# Tighter than HiGHS defaults so solutions respect the 1e-9 money tolerance
# (1e-10 is the smallest value HiGHS accepts).
_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10}


def feasible_point(a_ub, b_ub, n: int, minimize=None):
    """A point with a_ub @ x <= b_ub and x >= 0, or None if infeasible.

    With `minimize` set, returns the minimizer of that linear objective
    over the feasible region (used to pick canonical solutions).
    """
    from scipy.optimize import linprog  # here, so that only LP users pay its import
    c = np.zeros(n) if minimize is None else np.asarray(minimize)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None),
                  method="highs", options=_OPTIONS)
    if res.status == 2:  # infeasible
        return None
    if not res.success:
        raise LpError(f"LP solve failed: {res.message}")
    return res.x
