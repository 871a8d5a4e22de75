"""Thin wrappers around scipy's HiGHS linear programming for H-polytopes.

Every polytope here is the feasible set {x : W x + b >= 0} with W an
(m, n) array of facet normals and b the matching offsets. These are the
two cell facts with no closed form on a general polytope, called only by
`ConvexCell.normal_combination` and `ConvexCell.chebyshev` for cells
that are not simplices; every other cell question reads the vertex set.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def positive_combination(W: np.ndarray):
    """lambda >= 1 with W^T lambda = 0 minimizing sum(lambda), or None.

    Solutions form a cone, so `lambda >= 1` pins a representative; the LP
    is infeasible exactly when some direction d has W d >= 0, W d != 0
    (Stiemke's alternative).
    """
    m, n = W.shape
    res = linprog(np.ones(m), A_eq=W.T, b_eq=np.zeros(n),
                  bounds=[(1.0, None)] * m, method="highs")
    return res.x if res.success else None


def chebyshev_center(W: np.ndarray, b: np.ndarray):
    """Largest inscribed ball of {W x + b >= 0}.

    Returns (center, radius); radius <= 0 means the interior is empty and
    None is returned when even the relaxed LP is infeasible/unbounded.
    """
    m, n = W.shape
    norms = np.linalg.norm(W, axis=1)
    # maximize r  s.t.  w_i . x + b_i >= r |w_i|
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    A_ub = np.hstack([-W, norms[:, None]])
    res = linprog(cost, A_ub=A_ub, b_ub=b,
                  bounds=[(None, None)] * n + [(None, None)], method="highs")
    if not res.success:
        return None
    return res.x[:n], res.x[-1]
