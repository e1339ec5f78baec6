"""Small linear programs, solved in-library by an exact dense simplex.

Every LP here has few columns (a price vector and one bound: d <= 21) and up
to thousands of rows, so `feasible_point` runs the simplex on the dual, whose
tableau is (d + 1) x (rows + d + 1): the transpose of the dense `a_ub` the
callers build. Bland's rule keeps the highly degenerate lattice instances
from cycling. Pivots are elementwise numpy (`np.outer` and in-place
subtraction, no BLAS), so the bits do not depend on the BLAS build or its
thread count. No solver library is imported; the tests hold this one to
HiGHS as the oracle.
"""

from __future__ import annotations

import numpy as np


class LpError(RuntimeError):
    pass


# Pivot, ratio-tie and optimality tolerance. Optimality bounds the returned
# point's infeasibility, so it sits well below the 1e-9 money tolerance.
_TOL = 1e-11


def _pivot(t: np.ndarray, basis: np.ndarray, r: int, j: int):
    t[r] /= t[r, j]
    col = t[:, j].copy()
    col[r] = 0.0
    t -= np.outer(col, t[r])
    basis[r] = j


def _bland(t: np.ndarray, basis: np.ndarray, ncols: int) -> bool:
    """Minimize the last row of tableau `t` over its first `ncols` columns
    by Bland's rule; rows [:len(basis)] are the constraints. False if
    unbounded."""
    rows = len(basis)
    for _ in range(100 * t.shape[1]):  # Bland's rule cannot cycle; this only bounds roundoff
        enter = np.flatnonzero(t[-1, :ncols] < -_TOL)
        if enter.size == 0:
            return True
        j = enter[0]
        col = t[:rows, j]
        cand = np.flatnonzero(col > _TOL)
        if cand.size == 0:
            return False
        ratio = t[cand, -1] / col[cand]
        tied = cand[ratio <= ratio.min() + _TOL]
        _pivot(t, basis, int(tied[np.argmin(basis[tied])]), int(j))
    raise LpError("simplex pivot limit reached")


def _solve_dual(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Minimize b.z subject to -a.T z + s = c, z, s >= 0: the dual of
    min c.x subject to a x <= b, x >= 0. Returns ("optimal", x) with x the
    reduced costs of the s columns, ("unbounded", None) or ("infeasible", None).
    """
    rows, d = a.shape
    neg = np.flatnonzero(c < 0)  # rows whose slack basis is infeasible
    k = neg.size
    # columns z, s, artificials, rhs; rows constraints, phase-2 cost, phase-1 cost
    t = np.zeros((d + 2, rows + d + k + 1))
    t[:d, :rows] = -a.T
    t[:d, rows:rows + d] = np.eye(d)
    t[:d, -1] = c
    t[neg] *= -1.0
    t[neg, rows + d + np.arange(k)] = 1.0
    t[d, :rows] = b
    basis = np.arange(rows, rows + d)
    basis[neg] = rows + d + np.arange(k)
    if k:
        t[-1] = -t[neg].sum(axis=0)
        t[-1, rows + d:-1] = 0.0
        _bland(t, basis, rows + d)
        if -t[-1, -1] > _TOL:
            return "infeasible", None
        for r in np.flatnonzero(basis >= rows + d):  # artificials left at level 0
            j = int(np.argmax(np.abs(t[r, :rows + d])))
            if abs(t[r, j]) <= _TOL:
                raise LpError("degenerate constraint rows in phase 1")
            _pivot(t, basis, int(r), j)
    t = np.delete(t[:-1], np.s_[rows + d:rows + d + k], axis=1)
    if not _bland(t, basis, rows + d):
        return "unbounded", None
    return "optimal", t[-1, rows:rows + d].copy()


def feasible_point(a_ub, b_ub, n: int, minimize=None):
    """A point with a_ub @ x <= b_ub and x >= 0, or None if infeasible.

    With `minimize` set, returns the minimizer of that linear objective
    over the feasible region (used to pick canonical solutions). Raises
    LpError if that objective is unbounded below, or on a solver fault.
    """
    a = np.asarray(a_ub, dtype=np.float64).reshape(-1, n)
    b = np.asarray(b_ub, dtype=np.float64)
    c = np.zeros(n) if minimize is None else np.asarray(minimize, dtype=np.float64)
    status, x = _solve_dual(a, b, c)
    if status == "optimal":
        return x
    if status == "unbounded":  # an unbounded dual means an infeasible primal
        return None
    # An infeasible dual leaves the primal infeasible or unbounded; with
    # c = 0 the dual is feasible at 0 and is unbounded iff the primal is infeasible.
    if _solve_dual(a, b, np.zeros(n))[0] == "unbounded":
        return None
    raise LpError("LP objective is unbounded below")
