"""The one linear program of the package: the two cell facts with no
closed form on a general polytope, for many cells at once.

Every polytope here is the feasible set {x : W x + b >= 0} with W an
(m, n) array of facet normals and b the matching offsets. Its two facts
are a strictly positive zero-sum combination lambda of the facet normals
and its largest inscribed (Chebyshev) ball. The LPs of different cells
share no variable, so all of them form one block-diagonal LP solved by
one HiGHS call (`cell_facts`). `PolytopeMesh.solve_facts` makes that
call for every non-simplex cell of a mesh, and its domain hull, at the
first question that needs a fact. Simplices have closed forms, and every
other cell question reads the vertex set.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix


def _stack(Ws):
    """The normal arrays stacked, the block of each row, and the nonzero
    entries (row, column) of the stack."""
    W = np.vstack(Ws)
    i, j = np.nonzero(W)
    return W, np.repeat(np.arange(len(Ws)), [len(w) for w in Ws]), i, j


def cell_facts(combinations, balls):
    """The facts of many cells from one block-diagonal HiGHS LP.

    `combinations` lists normal arrays W_c. For each, the LP finds
    lambda_c >= 1 with W_c^T lambda_c = 0 minimizing sum(lambda_c).
    Solutions form a cone, so `lambda >= 1` pins a representative. A
    block is infeasible exactly when some direction d has W d >= 0,
    W d != 0 (Stiemke's alternative).

    `balls` lists halfspaces (W_c, b_c). For each, the LP maximizes r_c
    subject to (w_i / |w_i|) . x_c + b_i / |w_i| >= r_c: the largest
    inscribed ball, with r_c <= 0 when the interior is empty. HiGHS meets
    each row to an absolute tolerance, which unit rows make a distance.

    The blocks share no variable, so the summed objective is optimal
    exactly when every block's is. Returns (lambdas, [(centre, r), ...])
    in input order, or None when the LP fails because some block has no
    combination or an unbounded ball.
    """
    n = (combinations or [w for w, _ in balls])[0].shape[1]
    sizes = [len(w) for w in combinations]
    # columns: (x_c, r_c) per ball, then the lambdas. HiGHS's choice among
    # tied optimal lambdas depends on the column order; with this one it is,
    # on the test meshes, the lambda of the cell's own LP (oracles.py).
    L0 = len(balls) * (n + 1)
    width = L0 + sum(sizes)
    cost = np.zeros(width)
    cost[n:L0:n + 1] = -1.0
    cost[L0:] = 1.0
    bounds = np.tile([-np.inf, np.inf], (width, 1))
    bounds[L0:, 0] = 1.0
    A_eq = b_eq = A_ub = b_ub = None
    if balls:  # -(w_i / |w_i|) . x_c + r_c <= b_i / |w_i|
        W, block, i, j = _stack([w for w, _ in balls])
        norms = np.linalg.norm(W, axis=1)
        rows = np.concatenate([i, np.arange(len(W))])
        cols = np.concatenate([block[i] * (n + 1) + j, block * (n + 1) + n])
        data = np.concatenate([-W[i, j] / norms[i], np.ones(len(W))])
        A_ub = coo_matrix((data, (rows, cols)), shape=(len(W), width))
        b_ub = np.concatenate([b for _, b in balls]) / norms
    if combinations:  # block c's n rows of W_c^T
        W, block, i, j = _stack(combinations)
        A_eq = coo_matrix((W[i, j], (block[i] * n + j, L0 + i)),
                          shape=(n * len(combinations), width))
        b_eq = np.zeros(A_eq.shape[0])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        return None
    X = res.x[:L0].reshape(len(balls), n + 1)
    lams = np.split(res.x[L0:], np.cumsum(sizes)[:-1]) if sizes else []
    return lams, [(x[:n], x[n]) for x in X]
