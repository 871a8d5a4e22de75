"""Reference implementations that tests compare the program against.

Each is the plain, loop-by-loop form of something the program computes
with arrays: they are slow on purpose and must stay independent of the
code they check.
"""

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from relufem.compiler import T0_SAFETY, WEIGHT_GUARD
from relufem.errors import CompileError, ConditioningWarning, MeshError
from relufem.mesh import ConvexCell
from relufem.networks import relu


def linear_minimum_raw(W, b, cost):
    """Minimize cost @ x over {x : W x + b >= 0}; returns the OptimizeResult."""
    return linprog(cost, A_ub=-W, b_ub=b, bounds=[(None, None)] * W.shape[1],
                   method="highs")


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
