"""Reference implementations that tests compare the program against.

Each is the plain, loop-by-loop form of something the program computes
with arrays: they are slow on purpose and must stay independent of the
code they check.
"""

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial import Delaunay
from scipy.spatial.distance import cdist

from relufem.compiler import T0_SAFETY, WEIGHT_GUARD
from relufem.errors import (CompileError, ConditioningWarning, DocumentError,
                            MeshError)
from relufem.mesh import ConvexCell, PolytopeMesh
from relufem.meshgen import polygon_halfspaces
from relufem.networks import relu
from relufem.tensorfe import CPFactors


def linear_minimum_raw(W, b, cost):
    """Minimize cost @ x over {x : W x + b >= 0}; returns the OptimizeResult."""
    return linprog(cost, A_ub=-W, b_ub=b, bounds=[(None, None)] * W.shape[1],
                   method="highs")


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


def prune_redundant_lp(cell, tol=1e-9):
    """Row indices of the halfspaces that support a facet, by linear
    programs: first, of rows whose unit normals agree within tol, the one
    with the tighter unit offset stays (the earlier on a tie); then a row
    goes when the others already keep its value >= -tol, until no row
    goes. An unbounded test LP means the row is essential for
    boundedness, hence stays."""
    keep = list(range(cell.m))
    i = 0
    while i < len(keep):
        j = i + 1
        while j < len(keep):
            a, c = keep[i], keep[j]
            ua = cell.W[a] / cell.norms[a]
            uc = cell.W[c] / cell.norms[c]
            if np.max(np.abs(ua - uc)) <= tol:
                if cell.b[a] / cell.norms[a] <= cell.b[c] / cell.norms[c]:
                    keep.pop(j)
                    continue
                keep.pop(i)
                j = i + 1
                continue
            j += 1
        i += 1
    changed = True
    while changed:
        changed = False
        for idx in list(keep):
            others = [k for k in keep if k != idx]
            if len(others) < cell.dim + 1:
                continue
            res = linear_minimum_raw(cell.W[others], cell.b[others], cell.W[idx])
            if res.success and res.fun + cell.b[idx] >= -tol:
                keep.remove(idx)
                changed = True
    return keep


def positive_combination_bruteforce(cell):
    """Independent oracle for the positive normal combination (small facet
    counts).

    Enumerates basic solutions of {W^T lam = 0, lam >= 1}: every vertex of
    that (pointed) feasible set fixes m - n coordinates at 1 and solves the
    square remainder. Returns a feasible lambda or None.
    """
    m, n = cell.W.shape
    if m - n < 0:
        return None
    A = cell.W.T  # (n, m)
    for ones in itertools.combinations(range(m), m - n):
        free = [i for i in range(m) if i not in ones]
        M = A[:, free]
        if np.linalg.matrix_rank(M) < n:
            continue
        rhs = -A[:, ones] @ np.ones(len(ones)) if ones else np.zeros(n)
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.linalg.norm(M @ sol - rhs) > 1e-9 * (1.0 + np.linalg.norm(rhs)):
            continue
        lam = np.ones(m)
        lam[free] = sol
        if lam.min() >= 1.0 - 1e-9 and \
                np.linalg.norm(A @ lam) <= 1e-9 * float(lam @ cell.norms):
            return lam
    return None


# --- cell geometry: one cell at a time --------------------------------------

VERTEX_RTOL = 1e-12


def feasible_intersections(W, b):
    """Feasible solutions of the nonsingular n-facet subsystems of
    {W x + b >= 0} and their magnitudes max_j |x_j|; feasibility allows
    VERTEX_RTOL of the magnitude, the scale of a solved point's rounding."""
    m, n = W.shape
    norms = np.linalg.norm(W, axis=1)
    subsets = np.array(list(itertools.combinations(range(m), n)), dtype=int)
    A = W[subsets]
    regular = np.abs(np.linalg.det(A)) >= 1e-12 * np.prod(norms[subsets], axis=1)
    X = np.linalg.solve(A[regular], -b[subsets[regular]][..., None])[..., 0]
    size = np.max(np.abs(X), axis=1, initial=0.0)
    feasible = np.min((X @ W.T + b) / norms, axis=1) >= -VERTEX_RTOL * size
    return X[feasible], size[feasible]


def halfspace_vertices(W, b):
    """Vertices of a bounded {W x + b >= 0}, shape (0, n) when empty: the
    feasible intersections not within VERTEX_RTOL of an earlier one."""
    X, size = feasible_intersections(W, b)
    first = np.ones(len(X), dtype=bool)
    step = max(1, 2 ** 18 // max(len(X), 1))
    for lo in range(0, len(X), step):
        hi = lo + step
        close = (cdist(X[lo:hi], X[:hi], "chebyshev")
                 <= VERTEX_RTOL * np.maximum.outer(size[lo:hi], size[:hi]))
        first[lo:hi] = ~np.tril(close, lo - 1).any(axis=1)
    return X[first]


def is_bounded(cell) -> bool:
    """Bounded iff the normals have full rank and no d != 0 has
    W d >= 0: {d : W d >= 0, |d|_inf <= 1} has no vertex but the origin
    (any other has some |d_j| = 1)."""
    _, size = feasible_intersections(
        np.vstack([cell.W, np.eye(cell.dim), -np.eye(cell.dim)]),
        np.append(np.zeros(cell.m), np.ones(2 * cell.dim)))
    return bool(np.linalg.matrix_rank(cell.W) == cell.dim and np.all(size < 0.5))


def vertex_set(cell) -> np.ndarray:
    """The cell's vertices from its own enumeration; MeshError as
    ConvexCell.vertex_set raises it."""
    if not is_bounded(cell):
        raise MeshError("cell is unbounded")
    V = halfspace_vertices(cell.W, cell.b)
    if len(V) == 0:
        raise MeshError("cell has no vertices (empty interior)")
    return V


def shrunk_tiles(cell, epsilon):
    """Simplices tiling the epsilon-shrunk non-simplex cell: a Delaunay
    tiling of its shrunk vertex set, empty when the vertex mean is not
    strictly inside (epsilon = 0: of its vertex set)."""
    n = cell.dim
    V = vertex_set(cell)
    if epsilon > 0:
        shrunk = cell.shrink(epsilon)
        V = halfspace_vertices(shrunk.W, shrunk.b)
        if len(V) <= n or np.min(shrunk.facet_values(V.mean(axis=0))) <= 0.0:
            return np.zeros((0, n + 1, n))
    if len(V) == n + 1:
        return V[None]
    P = V - V.mean(axis=0)
    return V[Delaunay(P / np.max(np.abs(P))).simplices]


def prune_rows(cell, tol=1e-9):
    """Rows of the halfspaces that support a facet of the bounded cell:
    those whose tight vertices span an (n-1)-flat. Of supporting rows
    whose unit normals agree within tol only the one with the smallest
    unit offset is kept (the first on a tie); a row that supports no
    facet shadows none."""
    V = vertex_set(cell)
    size = np.max(np.abs(V), axis=1)
    tight = (np.abs(cell.facet_values(V) / cell.norms)
             <= VERTEX_RTOL * size[:, None])
    supports = np.array([len(T) >= cell.dim and np.linalg.matrix_rank(
        T[1:] - T[0], tol=VERTEX_RTOL * np.max(size)) == cell.dim - 1
        for T in (V[t] for t in tight.T)], dtype=bool)
    U = cell.W / cell.norms[:, None]
    same = np.max(np.abs(U[:, None] - U[None]), axis=2) <= tol
    place = np.argsort(np.argsort(cell.b / cell.norms, kind="stable"))
    keep = supports & ~(same & supports[None]
                        & (place[None] < place[:, None])).any(axis=1)
    return np.flatnonzero(keep)


# --- simplex facets: one cell and one facet at a time ------------------------

def _facet_normal(points: np.ndarray) -> np.ndarray:
    """Vector orthogonal to the affine hull of n points in R^n.

    Uses closed forms for n <= 3 so that exact zero coordinates in the
    input propagate exactly (important for facets lying on box faces);
    higher dimensions fall back to an SVD nullspace.
    """
    n = points.shape[1]
    if n == 1:
        return np.array([1.0])
    edges = points[1:] - points[0]
    if n == 2:
        d = edges[0]
        return np.array([-d[1], d[0]])
    if n == 3:
        return np.cross(edges[0], edges[1])
    _, _, vt = np.linalg.svd(edges)
    return vt[-1]


def simplex_halfspaces(vertices: np.ndarray):
    """Inward facet halfspaces of a nondegenerate simplex."""
    n = vertices.shape[1]
    if vertices.shape[0] != n + 1:
        raise MeshError(f"simplex in R^{n} needs {n + 1} vertices, got {len(vertices)}")
    W = np.zeros((n + 1, n))
    b = np.zeros(n + 1)
    for k in range(n + 1):
        facet = np.delete(vertices, k, axis=0)
        # sort facet points so both cells sharing this facet see identical input
        order = np.lexsort(facet.T[::-1])
        facet = facet[order]
        w = _facet_normal(facet)
        if np.linalg.norm(w) <= 0.0:
            raise MeshError("degenerate simplex facet")
        off = -float(w @ facet[0])
        # orient inward: the omitted vertex must be strictly on the >= side
        side = float(w @ vertices[k] + off)
        if side < 0.0:
            w, off, side = -w, -off, -side
        if side == 0.0:
            raise MeshError("degenerate simplex (flat)")
        W[k] = w
        b[k] = off
    return W, b


def simplex_facts(cell: ConvexCell):
    """(lambda, (incentre, inradius)) of one simplex cell in closed form.
    h_i, facet i's largest value over the vertices, is its value at the
    opposite vertex v_i, and the barycentric coordinates h_i(x) / h_i sum
    to 1. So lambda = max(h) / h (min 1, as the LP pins it),
    r = 1 / sum_i |w_i| / h_i, and the incentre is
    r sum_i (|w_i| / h_i) v_i."""
    H = cell.facet_values(cell.vertices)  # (vertex, facet)
    opposite = np.argmax(H, axis=0)
    h = H[opposite, np.arange(cell.m)]
    if not np.all(h > 0.0):
        raise MeshError("degenerate simplex (flat)")
    g = cell.norms / h
    r = 1.0 / np.sum(g)
    return np.max(h) / h, (r * (g @ cell.vertices[opposite]), r)


class ScanRegistry:
    """The directed-hyperplane registry as a linear scan: facets are
    inserted one at a time, in cell order and then the hull's, and each
    maps to the first entry whose first-inserted key (unit normal, unit
    offset) is within `tol` in every coordinate, else founds a new entry.
    Facets are numbered by insertion order, as in the stacked facet table.
    """

    def __init__(self, mesh, tol=1e-9, hull=None):
        self.tol = tol
        self.keys = []       # (unit normal, unit offset) of each entry
        self.rep = []        # insertion number of each entry's first facet
        self.rep_wb = []     # raw (w, b) of each entry's first facet
        self.entry = []
        self.scale = []
        cells = list(mesh.cells) + ([hull] if hull is not None else [])
        for cell in cells:
            for w, b in zip(cell.W, cell.b):
                self._insert(w, float(b))
        self._classify()

    def _find(self, u, beta):
        """First entry within tol of (u, beta), or -1."""
        if not self.keys:
            return -1
        units = np.array([ue for ue, _ in self.keys])
        offsets = np.array([be for _, be in self.keys])
        hits = np.flatnonzero((np.max(np.abs(units - u), axis=1) <= self.tol)
                              & (np.abs(offsets - beta) <= self.tol))
        return int(hits[0]) if hits.size else -1

    def _insert(self, w, b):
        nw = float(np.linalg.norm(w))
        u, beta = w / nw, b / nw
        e = self._find(u, beta)
        if e < 0:
            e = len(self.keys)
            self.keys.append((u, beta))
            self.rep.append(len(self.entry))
            self.rep_wb.append((w.copy(), b))
            scale = 1.0
        else:
            rw, rb = self.rep_wb[e]
            scale = 1.0 if np.array_equal(w, rw) and b == rb \
                else nw / float(np.linalg.norm(rw))
        self.entry.append(e)
        self.scale.append(scale)

    def _classify(self):
        self.undirected = [-1] * len(self.keys)
        self.interior = [False] * len(self.keys)
        next_id = 0
        for i, (u, beta) in enumerate(self.keys):
            if self.undirected[i] >= 0:
                continue
            self.undirected[i] = next_id
            j = self._find(-u, -beta)
            if j >= 0 and j != i and self.undirected[j] < 0:
                self.undirected[j] = next_id
                self.interior[i] = self.interior[j] = True
            next_id += 1
        pairs = sum(self.interior) // 2
        self.interior_count = pairs
        self.boundary_count = next_id - pairs

    @property
    def size(self):
        return len(self.keys)


def dict_merge(rows, cols, vals, entry, scale):
    """Merged second-layer triplets: each term (r, c, v) becomes
    (r, entry[c], v * scale[c]), and terms landing on one (row, column)
    are summed in storage order, starting from 0.0, in a dict kept in
    first-occurrence order."""
    merged = {}
    for r, c, v in zip(rows, cols, vals):
        key = (int(r), int(entry[c]))
        merged[key] = merged.get(key, 0.0) + v * scale[c]
    return [(r, c, v) for (r, c), v in merged.items()]


@dataclass
class AffinePiece:
    """One affine piece x -> gradient @ x + constant."""

    gradient: np.ndarray
    constant: float

    def value(self, x):
        return float(np.asarray(self.gradient) @ np.asarray(x, dtype=float)
                     + self.constant)


# --- the one-cell bump: the compiler's arrays, one cell at a time ------------

def positive_normal_combination(cell: ConvexCell) -> np.ndarray:
    """Strictly positive lambda with sum_i lambda_i w_i = 0 and lambda >= 1.

    This is the cell's cached combination, checked; its absence means the
    cell is unbounded or degenerate.
    """
    lam = cell.normal_combination()
    if lam is None:
        raise CompileError(
            "no positive zero-sum combination of facet normals exists "
            "(cell unbounded or degenerate)")
    combo = cell.W.T @ lam
    if np.linalg.norm(combo) > 1e-10 * float(lam @ cell.norms):
        raise CompileError("facet-normal combination residual too large")
    if lam.min() < 1.0 - 1e-9:
        raise CompileError("LP returned lambda below 1")
    return lam


def solve_mu(cell: ConvexCell, gradient) -> np.ndarray:
    """Least-norm mu with (w_1^T ... w_m^T) mu = -gradient^T."""
    a = np.asarray(gradient, dtype=float).reshape(-1)
    A = cell.W.T  # (n, m)
    mu, _, rank, _ = np.linalg.lstsq(A, -a, rcond=None)
    if rank < cell.dim:
        raise CompileError(
            f"facet normal matrix is rank deficient ({rank} < {cell.dim})")
    if np.linalg.norm(A @ mu + a) > 1e-10 * (1.0 + np.linalg.norm(a)):
        raise CompileError("mu residual too large")
    return mu


def shift_t0(cell: ConvexCell, mu, lam, c: float, R: float, epsilon: float):
    """(s, t0): s makes mu + s*lam positive, t0 kills the bump outside.

    t0 is the closed-form value
    max((|sum (mu_i + s lam_i) b_i + c + R| + sum eps |mu_i||w_i|)
        / min_i eps lam_i |w_i|, s + 1).
    """
    if epsilon <= 0:
        raise CompileError("epsilon must be > 0 (t0 divides by eps*lam*|w|)")
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    s = float(np.max(np.abs(mu / lam))) + 1.0
    numerator = abs(float((mu + s * lam) @ cell.b) + c + R) \
        + epsilon * float(np.abs(mu) @ cell.norms)
    denominator = epsilon * float(np.min(lam * cell.norms))
    t0 = max(numerator / denominator, s + 1.0)
    return s, t0


@dataclass
class CellBump:
    """One-cell subnetwork x -> relu(w_II @ relu(W_I x + b_I) + b_II)."""

    W_I: np.ndarray
    b_I: np.ndarray
    w_II: np.ndarray
    b_II: float
    provenance: dict = field(default_factory=dict)

    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return relu(relu(X @ self.W_I.T + self.b_I) @ self.w_II + self.b_II)


def compile_cell_bump(cell: ConvexCell, piece: AffinePiece, R: float,
                      epsilon: float, cell_index: int = 0) -> CellBump:
    """Bump equal to v + R on the shrunk cell, in [0, 2R] on the collar,
    zero outside the cell."""
    lam = positive_normal_combination(cell)
    mu = solve_mu(cell, piece.gradient)
    c = float(piece.constant)
    s, t0 = shift_t0(cell, mu, lam, c, R, epsilon)
    t_used = t0 * T0_SAFETY
    coeff = mu + t_used * lam
    if coeff.min() <= 0.0:
        raise CompileError(f"cell {cell_index}: shifted weights not positive")
    b_I = cell.b - epsilon * cell.norms
    w_II = -coeff
    with np.errstate(over="ignore", invalid="ignore"):
        b_II = float(coeff @ b_I) + c + R
    if not (np.all(np.isfinite(w_II)) and np.isfinite(b_II)):
        raise CompileError(
            f"cell {cell_index}: weights overflow the float range for "
            f"R = sup|v| = {R:.3e}")
    if np.max(np.abs(w_II)) > WEIGHT_GUARD:
        warnings.warn(
            f"cell {cell_index}: second-layer weight magnitude "
            f"{np.max(np.abs(w_II)):.3e} exceeds {WEIGHT_GUARD:.0e}; tiny "
            f"epsilon relative to the cell makes the construction "
            f"ill-conditioned", ConditioningWarning)
    return CellBump(
        W_I=cell.W.copy(),
        b_I=b_I,
        w_II=w_II,
        b_II=b_II,
        provenance={"cell_index": cell_index, "t0": t_used, "t0_formula": t0,
                    "s": s, "mu": mu, "lam": lam, "epsilon": epsilon,
                    "R": R, "c": c},
    )


def voronoi_polygon_mesh(sites, boundary_polygon) -> PolytopeMesh:
    """Voronoi cells of the sites clipped to a convex polygon, each the
    polygon cut by the bisector halfspaces against all other sites,
    pruned to its supporting facets, all cells in one call."""
    sites = np.asarray(sites, dtype=float)
    hull_W, hull_b = polygon_halfspaces(boundary_polygon)
    cells = []
    for i, p in enumerate(sites):
        rows = [hull_W]
        offs = [hull_b]
        for j, q in enumerate(sites):
            if j == i:
                continue
            rows.append((2.0 * (p - q))[None, :])
            offs.append([float(q @ q - p @ p)])
        cells.append(ConvexCell(np.vstack(rows), np.concatenate(offs)))
    hull = ConvexCell(hull_W, hull_b)
    return PolytopeMesh(2, ConvexCell.prune_all(cells), domain_hull=hull)


def tensor_eval_batch(u, X):
    """Multilinear interpolant of TensorFE u at the rows of X, one grid
    corner at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = u.mesh.n
    idx = []
    loc = []
    for k, g in enumerate(u.mesh.grids):
        x = X[:, k]
        i = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
        idx.append(i)
        loc.append((x - g[i]) / (g[i + 1] - g[i]))
    out = np.zeros(X.shape[0])
    for corner in itertools.product((0, 1), repeat=n):
        w = np.ones(X.shape[0])
        pos = []
        for k, c in enumerate(corner):
            w *= loc[k] if c else (1.0 - loc[k])
            pos.append(idx[k] + c)
        out += w * u.coefficients[tuple(pos)]
    return out


def foreign_tensor_net(rng, n):
    """A tensor net of n branches that compile_tnn would not write: widths
    1-6 and rank 1-3, W drawn from negative, zero, power-of-two and other
    values, some -0.0 entries in b and some zero weights, kinks in and
    around [0, 1]."""
    from relufem.networks import TensorNet
    rank = int(rng.integers(1, 4))
    branches = []
    for _ in range(n):
        width = int(rng.integers(1, 7))
        W = rng.choice([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 1.0 / 3.0, 0.7], width)
        b = -W * rng.uniform(-0.2, 1.2, width)
        b[rng.random(width) < 0.2] = -0.0
        weights = rng.standard_normal((rank, width))
        weights[rng.random((rank, width)) < 0.2] = 0.0
        branches.append((W, b, weights))
    return TensorNet(branches)


def tnn_branch_values(net, k, t):
    """TensorNet.branch_values by the full-width contraction: every unit's
    relu(W t + b) at every point, times the weights as a CSR matrix, whose
    product sums each rank row's terms in storage order."""
    W, b, weights = net.branches[k]
    Z = W * np.asarray(t, dtype=float).reshape(-1)
    Z += b[:, None]
    np.maximum(Z, 0.0, out=Z)
    return sparse.csr_matrix(weights) @ Z


def tnn_forward_batch(net, X):
    """TensorNet.forward_batch over tnn_branch_values, in its point chunks:
    the branches multiplied in axis order from ones, the rank terms summed
    in order, every NaN written as the default quiet NaN. (A sum of NaNs
    of both signs in scipy's product keeps one sign or the other depending
    on the batch length.)"""
    from relufem import networks
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(X.shape[0])
    step = max(1, networks.CHUNK_ELEMENTS // net.rank)
    total = sparse.csr_matrix(np.ones((1, net.rank)))
    for lo in range(0, X.shape[0], step):
        Xc = X[lo:lo + step]
        prod = np.ones((net.rank, Xc.shape[0]))
        for k in range(net.n):
            prod *= tnn_branch_values(net, k, Xc[:, k])
        out[lo:lo + step] = (total @ prod)[0]
    out[np.isnan(out)] = np.nan
    return out


def tnn_forward_grid(net, axes):
    """TensorNet.forward_grid over tnn_branch_values: each axis's branch
    contracted on its coordinates, then grid_rank_sum with unit weights,
    every NaN written as the default quiet NaN."""
    from relufem.networks import grid_rank_sum
    out = grid_rank_sum([tnn_branch_values(net, k, t) for k, t in enumerate(axes)],
                        np.ones(net.rank))
    out[np.isnan(out)] = np.nan
    return out


def tnn_exact(net, x):
    """The tensor net at the point x in exact rational arithmetic: every
    float weight and coordinate as a Fraction, nothing rounded."""
    total = Fraction(0)
    for p in range(net.rank):
        term = Fraction(1)
        for (W, b, weights), t in zip(net.branches, x):
            t = Fraction(float(t))
            term *= sum(Fraction(float(w)) * max(Fraction(float(Wj)) * t
                                                 + Fraction(float(bj)), 0)
                        for w, Wj, bj in zip(weights[p], W[:, 0], b))
        total += term
    return total


def tensor_fe_exact(u, x):
    """The tensor FE function at the point x in exact rational arithmetic:
    its cell's corner coefficients weighted by products of exact (1 - loc,
    loc)."""
    idx, loc = [], []
    for g, t in zip(u.mesh.grids, x):
        i = min(max(int(np.searchsorted(g, t, side="right")) - 1, 0), g.size - 2)
        idx.append(i)
        loc.append((Fraction(float(t)) - Fraction(float(g[i])))
                   / (Fraction(float(g[i + 1])) - Fraction(float(g[i]))))
    total = Fraction(0)
    for corner in itertools.product((0, 1), repeat=u.mesh.n):
        w = Fraction(1)
        for c, lam in zip(corner, loc):
            w *= lam if c else 1 - lam
        total += w * Fraction(float(u.coefficients[tuple(
            i + c for i, c in zip(idx, corner))]))
    return total


def tnn_rounding_majorant(net, x):
    """The running-error majorant of relufem.verify.check_tensor_net at the
    point x, neuron by neuron, without its inflation and underflow terms.

    Per branch k and rank row p, in float: phi = sum of |partial sums|,
    one per neuron in column order + 2 sum |w_J r_J| + sum |w_J W_J t| over
    the rows whose W_J is not 0 or a power of two. Then exactly, with mu =
    u phi and a = |G| + mu (in float, mu is below half an ulp of |G| as
    often as not, and |G| + mu would round it away): sum_p (1 + c_p) prod_k
    (a + mu) - prod_k a with c_p = (n - 1 + rank - p) u.
    """
    u = 2.0 ** -53
    n = len(net.branches)
    total = Fraction(0)
    for p in range(net.rank):
        upper, lower = Fraction(1), Fraction(1)
        for (W, b, weights), t in zip(net.branches, x):
            s, phi = 0.0, 0.0
            for w, Wj, bj in zip(weights[p], W[:, 0], b):
                a = float(Wj) * float(t)
                r = max(a + float(bj), 0.0)
                if math.frexp(float(Wj))[0] not in (0.0, 0.5, -0.5):
                    phi += abs(float(w)) * abs(a)
                q = float(w) * r
                s += q
                phi += abs(s) + 2.0 * abs(q)
            mu = Fraction(u) * Fraction(phi)
            upper *= Fraction(abs(s)) + 2 * mu
            lower *= Fraction(abs(s)) + mu
        c = Fraction(n - 1 + net.rank - p) * Fraction(u)
        total += (1 + c) * upper - lower
    return total


def tnn_verify_report(u, net):
    """(max_deviation, rounding_bound, tolerance) that tnn-verify reports for
    a net whose kinks are all grid nodes: forward_batch on the nodes against
    the coefficients, and the largest tnn_rounding_majorant over the nodes
    (as a float, without check_tensor_net's relative inflation of about
    1e-13 and its underflow term)."""
    nodes = np.array(np.meshgrid(*u.mesh.grids, indexing="ij"))
    nodes = nodes.reshape(u.mesh.n, -1).T
    dev = float(np.max(np.abs(net.forward_batch(nodes) - u.coefficients.ravel())))
    rho = float(max(tnn_rounding_majorant(net, x) for x in nodes))
    tol = 1e-9 * (1.0 + float(np.max(np.abs(u.coefficients))))
    return dev, rho, tol


def cp_decompose_svd(T):
    """Order-2 CP factors from the full SVD of T, keeping the singular
    values above 1e-12 of the largest; residual by np.linalg.norm."""
    U, S, Vt = np.linalg.svd(T, full_matrices=False)
    r = int(np.sum(S > 1e-12 * S[0]))
    r = max(r, 1)
    factors = [(U[:, :r] * S[:r]).T, Vt[:r]]
    cp = CPFactors(r, factors, 0.0)
    cp.residual = float(np.linalg.norm(T - cp.reconstruct()))
    return cp


def jsonable(obj: Any) -> Any:
    """Convert numpy containers/scalars into plain Python structures."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dumps(doc: dict) -> str:
    """Document text through the stdlib writer, which takes its
    pure-Python encoder whenever an indent is set."""
    return json.dumps(jsonable(doc), sort_keys=True, indent=1) + "\n"


def loads(text: str) -> dict:
    """A document through the stdlib reader alone, a JSON error as
    DocumentError."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top-level JSON value must be an object")
    return doc


def load(path) -> dict:
    """A document file read by text-mode open (UTF-8, universal newlines)
    and the stdlib reader."""
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
