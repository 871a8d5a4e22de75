"""Convex polytope meshes in halfspace representation.

A cell is the intersection of finitely many halfspaces {x : w @ x + b >= 0};
a mesh is a list of such cells with pairwise disjoint interiors. Simplex
cells may instead be given by their vertex lists, from which inward facet
halfspaces are derived. The directed-hyperplane registry canonicalizes all
facets of a mesh, merges the ones that are positive multiples of each other,
and classifies the underlying hyperplanes as interior or boundary.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree
from scipy.spatial.distance import cdist

from . import docio, lp
from ._chunks import CHUNK_ELEMENTS
from .errors import DocumentError, MeshError

DEDUP_TOL = 1e-9
VERTEX_RTOL = 1e-12  # feasibility and coincidence, relative to max|x_j|
# point location: deepest Morton level, and the candidate count at which a
# box stops splitting
TREE_LEVELS = 16
LEAF_CANDIDATES = 4

_UNSET = object()


@dataclass
class Halfspace:
    """One closed halfspace {x : normal @ x + offset >= 0}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=float).reshape(-1)
        self.offset = float(self.offset)
        if not np.all(np.isfinite(self.normal)) or not np.isfinite(self.offset):
            raise MeshError("halfspace data must be finite")
        if np.linalg.norm(self.normal) <= 0.0:
            raise MeshError("halfspace normal must have positive length")

    def value(self, x):
        return float(self.normal @ np.asarray(x, dtype=float) + self.offset)


def _affine(X, W, b):
    """X @ W.T + b over any leading stack axes, summed coordinate by
    coordinate, so an entry has the same bits in whatever stack it is."""
    out = X[..., :, None, 0] * W[..., None, :, 0]
    for d in range(1, W.shape[-1]):
        out += X[..., :, None, d] * W[..., None, :, d]
    out += b[..., None, :]
    return out


def _corner_values(lo, hi, W, b):
    """Each facet's value at the corner of its box [lo, hi] that maximises
    it, hi_d where w_d > 0 and lo_d elsewhere, by _affine's operations in
    _affine's order: fl(...fl(fl(c_0 w_0) + fl(c_1 w_1)) ... + b). lo, hi
    and W put the coordinate first and broadcast over the rest.

    Every rounded product c_d w_d is monotone in c_d and every rounded sum
    is nondecreasing in both terms (Higham 2002, ch. 2), so the corner value
    bounds the value at any point of the box from above: a point whose
    value is not NaN or -inf has a value <= the corner's, which is not NaN.
    """
    C = lo if hi is lo else np.where(W > 0, hi, lo)
    out = C[0] * W[0]
    for d in range(1, len(W)):
        out += C[d] * W[d]
    return out + b


def _pairs_pass(lo, hi, box, cell, W, b, tol):
    """Per pair i, whether every facet of cell[i] is >= -tol at the corners
    of the box lo[:, box[i]], hi[:, box[i]]. W (n, m, cells) and b (m,
    cells) hold each cell's facets, padded with copies; boxes are (n,
    boxes). On a point (lo = hi = x) this is ConvexCell.contains, with the
    same bits."""
    passed = np.empty(box.size, dtype=bool)
    step = max(1, CHUNK_ELEMENTS // (W.shape[0] * W.shape[1]))
    for s in range(0, box.size, step):
        i, c = box[s:s + step], cell[s:s + step]
        # take keeps the gathered blocks contiguous, unlike fancy indexing
        lo_i = np.take(lo, i, axis=1)[:, None]
        hi_i = lo_i if hi is lo else np.take(hi, i, axis=1)[:, None]
        values = _corner_values(lo_i, hi_i, np.take(W, c, axis=2), np.take(b, c, axis=1))
        passed[s:s + step] = np.min(values, axis=0) >= -tol
    return passed


def _morton_order(X, levels):
    """Order of the points X (n, P) by a Morton key (Morton 1966) on a
    2^levels grid over their bounding box, and the sorted keys: each grid
    box at each level holds a contiguous run of the sorted points."""
    n = X.shape[0]
    lo, hi = X.min(axis=1, keepdims=True), X.max(axis=1, keepdims=True)
    with np.errstate(all="ignore"):
        t = np.nan_to_num((X - lo) / (hi - lo), nan=0.0, posinf=0.0)
    q = np.minimum(t * 2.0 ** levels, 2 ** levels - 1).astype(np.uint64)
    # spread a byte's bits n apart by table lookup, one byte of q at a time
    bits = np.arange(8, dtype=np.uint64)
    spread = np.sum((np.arange(256, dtype=np.uint64)[:, None] >> bits & np.uint64(1))
                    << (bits * np.uint64(n)), axis=1, dtype=np.uint64)
    key = np.zeros(X.shape[1], dtype=np.uint64)
    for d in range(n):
        for byte in range(0, levels, 8):
            key |= spread[q[d] >> np.uint64(byte) & np.uint64(255)] \
                << np.uint64(byte * n + n - 1 - d)
    order = np.argsort(key)
    return order, key[order]


def _box_tree_leaves(X, W, b, tol):
    """The (point range, cell) pairs that may pass ConvexCell.contains(tol)
    for finite points X (n, P); W and b as for _pairs_pass.

    A tree of Morton boxes over the points, walked level by level from the
    root with every cell a candidate: a (box, cell) pair is dropped when a
    facet's corner value fails the test, so no point of the box can pass,
    and a box's children inherit its survivors. A box stops splitting with
    at most LEAF_CANDIDATES survivors, when it is one point, or at the last
    level. Returns the Morton order of the points and one (start, end,
    cell) per leaf and survivor: points order[start:end] may lie in cell.
    """
    n, P = X.shape
    levels = min(TREE_LEVELS, 63 // n)
    order = np.arange(P)  # sorted when the root splits
    leaves = []
    # the nodes holding pairs, as ranges of the sorted points
    start, end = np.zeros(1, dtype=int), np.full(1, P)
    box, cell = np.zeros(b.shape[1], dtype=int), np.arange(b.shape[1])
    for level in range(levels + 1):
        cuts = np.column_stack([start, end]).ravel()
        cuts = cuts[:-1] if cuts[-1] == P else cuts
        lo = np.minimum.reduceat(X, cuts, axis=1)[:, ::2]
        hi = np.maximum.reduceat(X, cuts, axis=1)[:, ::2]
        with np.errstate(over="ignore", invalid="ignore"):
            keep = _pairs_pass(lo, hi, box, cell, W, b, tol)
        box, cell = box[keep], cell[keep]
        leaf = ((np.bincount(box, minlength=start.size) <= LEAF_CANDIDATES)
                | np.all(lo == hi, axis=0) | (level == levels))[box]
        leaves.append((start[box[leaf]], end[box[leaf]], cell[leaf]))
        box, cell = box[~leaf], cell[~leaf]
        if not box.size:
            break
        if level == 0:
            order, key = _morton_order(X, levels)
            X = np.take(X, order, axis=1)
        # split each node that keeps pairs at the next level's key bits
        split = np.zeros(start.size, dtype=bool)
        split[box] = True
        prefix = key >> np.uint64(n * (levels - level - 1))
        child_starts = np.concatenate([[0], np.flatnonzero(np.diff(prefix)) + 1])
        child_ends = np.append(child_starts[1:], P)
        first = np.searchsorted(child_starts, start[split])
        children = np.searchsorted(child_starts, end[split]) - first
        offsets = np.cumsum(children) - children
        kids = np.repeat(first - offsets, children) + np.arange(children.sum())
        start, end = child_starts[kids], child_ends[kids]
        parent = (np.cumsum(split) - 1)[box]
        per_pair = children[parent]
        cell = np.repeat(cell, per_pair)
        box = (np.repeat(offsets[parent] - np.cumsum(per_pair) + per_pair, per_pair)
               + np.arange(cell.size))
    start, end, cell = (np.concatenate(a) for a in zip(*leaves))
    return order, start, end, cell


def _simplex_volumes(T):
    """Volumes of simplices given as vertex arrays, shape (k, n+1, n)."""
    n = T.shape[2]
    return np.abs(np.linalg.det(T[:, 1:] - T[:, :1])) / float(math.factorial(n))


def _simplex_halfspaces(V, names=None):
    """Inward facet halfspaces (W, b) of a stack of simplices V, shape
    (k, n+1, n), with facet j opposite vertex j: W (k, n+1, n), b (k, n+1).

    Each facet's points are sorted lexicographically (the facet id is the
    last lexsort key), so two cells sharing a facet derive it from the same
    input. Normals have closed forms for n <= 3, so exact zero coordinates
    stay exact on box faces, and come from a stacked SVD nullspace above.
    A flat simplex raises MeshError naming it by names[i] (default
    "cell i").
    """
    k, m, n = V.shape
    if m != n + 1:
        raise MeshError(f"simplex in R^{n} needs {n + 1} vertices, got {m}")
    omit = np.array([np.delete(np.arange(m), j) for j in range(m)])
    F = V[:, omit].reshape(-1, n)
    F = F[np.lexsort((*F.T[::-1], np.arange(F.shape[0]) // n))].reshape(k, m, n, n)
    E = F[:, :, 1:] - F[:, :, :1]
    if n == 1:
        W = np.ones((k, m, 1))
    elif n == 2:
        W = np.stack([-E[:, :, 0, 1], E[:, :, 0, 0]], axis=-1)
    elif n == 3:
        W = np.cross(E[:, :, 0], E[:, :, 1])
    else:
        W = np.ascontiguousarray(np.linalg.svd(E)[2][:, :, -1])
    # stacked matmul: the same dot kernel as one facet's w @ x
    b = -(W[..., None, :] @ F[:, :, 0, :, None])[..., 0, 0]
    # orient inward: the opposite vertex must be strictly on the >= side
    side = (W[..., None, :] @ V[..., None])[..., 0, 0] + b
    flip = side < 0.0
    W[flip] = -W[flip]
    b[flip] = -b[flip]
    # a zero normal gives side 0 too
    flat = np.flatnonzero((side == 0.0).any(axis=1))
    if flat.size:
        name = f"cell {flat[0]}" if names is None else names[flat[0]]
        raise MeshError(f"{name}: degenerate simplex (flat)")
    return W, b


def _simplex_facts(V, W, b, names=None):
    """(lambda (k, n+1), incentres (k, n), inradii (k,)) of simplices V
    (k, n+1, n) with facets W, b. h_i, facet i's largest vertex value, is
    its value at the opposite vertex v_i, and the barycentric coordinates
    h_i(x) / h_i sum to 1: lambda = max(h) / h (min 1, as the LP pins it),
    r = 1 / sum_i |w_i| / h_i, incentre r sum_i (|w_i| / h_i) v_i. A flat
    simplex raises MeshError naming it by names[i] (default "cell i")."""
    H = _affine(V, W, b)  # (cell, vertex, facet)
    opposite = np.argmax(H, axis=1)
    h = np.take_along_axis(H, opposite[:, None], axis=1)[:, 0]
    flat = np.flatnonzero(~np.all(h > 0.0, axis=1))
    if flat.size:
        name = f"cell {flat[0]}" if names is None else names[flat[0]]
        raise MeshError(f"{name}: degenerate simplex (flat)")
    g = np.linalg.norm(W, axis=-1) / h
    r = 1.0 / np.sum(g, axis=-1)
    centre = (g[:, None] @ np.take_along_axis(V, opposite[..., None], axis=1))[:, 0]
    return np.max(h, axis=-1, keepdims=True) / h, r[:, None] * centre, r


def _feasible_intersections(W, b):
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


def _halfspace_vertices(W, b):
    """Vertices of a bounded {W x + b >= 0}, shape (0, n) when empty: the
    feasible intersections not within VERTEX_RTOL of an earlier one."""
    X, size = _feasible_intersections(W, b)
    first = np.ones(len(X), dtype=bool)
    step = max(1, CHUNK_ELEMENTS // max(len(X), 1))
    for lo in range(0, len(X), step):
        hi = lo + step
        close = (cdist(X[lo:hi], X[:hi], "chebyshev")
                 <= VERTEX_RTOL * np.maximum.outer(size[lo:hi], size[:hi]))
        first[lo:hi] = ~np.tril(close, lo - 1).any(axis=1)
    return X[first]


def _facet_norms(W, b):
    """|w_i| of halfspaces W (..., m, n), b (..., m), which must be finite
    with nonzero normals; one check for a whole stack of cells."""
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
        raise MeshError("cell halfspace data must be finite")
    norms = np.linalg.norm(W, axis=-1)
    if np.any(norms <= 0.0):
        raise MeshError("cell has a zero facet normal")
    return norms


class ConvexCell:
    """Closed convex polytope given by facet normals W and offsets b.

    The cell is {x : W @ x + b >= 0}. Simplex cells keep their vertex
    array as well, which enables nodal interpolation.

    A cell caches three facts: the Chebyshev ball, a strictly positive
    combination of the facet normals summing to zero, and the vertex set.
    On a simplex (`is_simplex`) the first two have closed forms, set at
    birth by from_simplices; every other cell gets both from its blocks
    of one LP, shared by all the cells of a mesh (PolytopeMesh.solve_facts)
    or solved alone for a lone cell. The vertex set (given for a simplex,
    else from n-facet intersections) answers every other question,
    boundedness and pruning included.
    Volumes and samples come from a tiling of the (shrunk) cell.
    """

    def __init__(self, W, b, vertices=None):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        if W.shape[0] != b.shape[0]:
            raise MeshError("normal/offset count mismatch")
        self._set(W, b, _facet_norms(W, b),
                  None if vertices is None else np.asarray(vertices, dtype=float))

    def _set(self, W, b, norms, vertices):
        self.W, self.b, self.norms, self.vertices = W, b, norms, vertices
        self._cheb = self._lam = _UNSET  # both set together, None on failure
        self._bounded = None
        self._vertex_set = None

    @classmethod
    def from_simplex(cls, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        return cls.from_simplices(V[None])[0]

    @classmethod
    def from_simplices(cls, V, names=None):
        """One simplex cell per (n+1, n) vertex array of the stack V, all
        from one derivation and one check of the halfspaces; errors name
        simplex i names[i] (default "cell i")."""
        V = np.asarray(V, dtype=float)
        W, b = _simplex_halfspaces(V, names)
        norms = _facet_norms(W, b)
        cells = []
        for i, facts in enumerate(zip(*_simplex_facts(V, W, b, names))):
            cell = cls.__new__(cls)
            cell._set(W[i], b[i], norms[i], V[i])
            cell._take_simplex_facts(facts)
            cells.append(cell)
        return cells

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    @property
    def is_simplex(self) -> bool:
        """The cell carries its n+1 vertices, one opposite each facet."""
        return (self.vertices is not None and self.m == self.dim + 1
                and self.vertices.shape[0] == self.dim + 1)

    def facet_values(self, X):
        """h_i(x) for every facet, shape (S, m)."""
        return _affine(np.atleast_2d(np.asarray(X, dtype=float)), self.W, self.b)

    def contains(self, X, tol=1e-12):
        return np.min(self.facet_values(X), axis=1) >= -tol

    def boundary_distance(self, X):
        """min_i (w_i @ x + b_i)/|w_i|; equals d(x, boundary) inside the cell."""
        return np.min(self.facet_values(X) / self.norms, axis=1)

    def shrink(self, epsilon: float) -> "ConvexCell":
        if epsilon < 0:
            raise MeshError("epsilon must be >= 0")
        return ConvexCell(self.W.copy(), self.b - epsilon * self.norms)

    def chebyshev(self):
        """(incenter, inradius); inradius <= 0 flags an empty interior.

        The eps-shrunk cell has the same incenter and inradius minus eps,
        so its interior is non-empty exactly when inradius > eps.
        """
        _solve_facts([self])
        if self._cheb is None:
            raise MeshError("Chebyshev LP failed (cell unbounded or malformed)")
        return self._cheb

    def inradius(self) -> float:
        return float(self.chebyshev()[1])

    def normal_combination(self):
        """lambda >= 1 with sum_i lambda_i w_i = 0, or None when none exists."""
        _solve_facts([self])
        return self._lam

    def _take_simplex_facts(self, facts=None):
        """Store (lambda, incentre, inradius) from _simplex_facts, derived
        alone (k = 1) unless the cell's stack gave them."""
        lam, c, r = facts or [a[0] for a in _simplex_facts(
            self.vertices[None], self.W[None], self.b[None])]
        self._lam, self._cheb, self._bounded = lam, (c, r), True

    def is_bounded(self) -> bool:
        """Bounded iff the normals have full rank and no d != 0 has
        W d >= 0: {d : W d >= 0, |d|_inf <= 1} has no vertex but the origin
        (any other has some |d_j| = 1). A simplex whose closed-form facts
        exist is not flat, so it is bounded."""
        if self._bounded is None and self.is_simplex:
            self._take_simplex_facts()
        elif self._bounded is None:
            _, size = _feasible_intersections(
                np.vstack([self.W, np.eye(self.dim), -np.eye(self.dim)]),
                np.append(np.zeros(self.m), np.ones(2 * self.dim)))
            self._bounded = bool(np.linalg.matrix_rank(self.W) == self.dim
                                 and np.all(size < 0.5))
        return self._bounded

    def vertex_set(self) -> np.ndarray:
        """Vertices of the cell, shape (k, n): the given ones for simplices,
        else n-facet intersections; MeshError when the cell is unbounded."""
        if self.vertices is not None:
            return self.vertices
        if self._vertex_set is None:
            if not self.is_bounded():
                raise MeshError("cell is unbounded")
            V = _halfspace_vertices(self.W, self.b)
            if len(V) == 0:
                raise MeshError("cell has no vertices (empty interior)")
            self._vertex_set = V
        return self._vertex_set

    def bounding_box(self):
        V = self.vertex_set()
        return V.min(axis=0), V.max(axis=0)

    def simplices(self, epsilon: float = 0.0) -> np.ndarray:
        """Simplices tiling the epsilon-shrunk cell, shape (k, n+1, n).

        A simplex cell shrinks to its homothety about the incentre c, ratio
        (r - eps) / r, empty (k = 0) unless r > eps as the compiler rules.
        Any other cell is a Delaunay tiling of its shrunk vertex set (or its
        own tile with n+1 vertices), empty when the vertex mean is not
        strictly inside.
        """
        V = self.vertex_set()
        n = self.dim
        if epsilon > 0 and self.is_simplex:
            c, r = self.chebyshev()
            if not r > epsilon:
                return np.zeros((0, n + 1, n))
            return (c + ((r - epsilon) / r) * (V - c))[None]
        if epsilon > 0:
            b = self.b - epsilon * self.norms
            V = _halfspace_vertices(self.W, b)
            if len(V) <= n or np.min(_affine(V.mean(axis=0)[None], self.W, b)) <= 0.0:
                return np.zeros((0, n + 1, n))
        if len(V) == n + 1:
            return V[None]
        P = V - V.mean(axis=0)
        return V[Delaunay(P / np.max(np.abs(P))).simplices]

    def volume(self) -> float:
        return float(np.sum(_simplex_volumes(self.simplices())))

    def prune_redundant(self, tol=1e-9) -> "ConvexCell":
        """Keep the halfspaces that support a facet of the bounded cell:
        those whose tight vertices span an (n-1)-flat. Of supporting rows
        whose unit normals agree within tol only the one with the smallest
        unit offset is kept (the first on a tie); a row that supports no
        facet shadows none."""
        V = self.vertex_set()
        size = np.max(np.abs(V), axis=1)
        tight = (np.abs(self.facet_values(V) / self.norms)
                 <= VERTEX_RTOL * size[:, None])
        supports = np.array([len(T) >= self.dim and np.linalg.matrix_rank(
            T[1:] - T[0], tol=VERTEX_RTOL * np.max(size)) == self.dim - 1
            for T in (V[t] for t in tight.T)], dtype=bool)
        U = self.W / self.norms[:, None]
        same = np.max(np.abs(U[:, None] - U[None]), axis=2) <= tol
        place = np.argsort(np.argsort(self.b / self.norms, kind="stable"))
        keep = supports & ~(same & supports[None]
                            & (place[None] < place[:, None])).any(axis=1)
        return ConvexCell(self.W[keep], self.b[keep], vertices=self.vertices)

    def to_doc(self) -> dict:
        if self.is_simplex:
            return {"vertices": self.vertices}
        return {"halfspaces": [{"w": self.W[i], "b": self.b[i]} for i in range(self.m)]}

    @classmethod
    def from_docs(cls, docs, dimension: int, names=None) -> list:
        """Cells from their documents, errors naming doc i names[i]
        (default "cell i"). Shapes are checked per cell; every simplex
        goes through one derivation."""
        names = names or [f"cell {i}" for i in range(len(docs))]
        cells = [None] * len(docs)
        simplex = []
        for i, doc in enumerate(docs):
            if not isinstance(doc, dict):
                raise DocumentError(f"{names[i]} must be an object")
            if "vertices" in doc:
                verts = docio.as_float_array(doc["vertices"], "vertices")
                if verts.ndim != 2 or verts.shape[1] != dimension:
                    raise DocumentError(f"{names[i]} vertices have wrong shape")
                if len(verts) != dimension + 1:
                    raise MeshError(f"{names[i]}: simplex in R^{dimension} needs "
                                    f"{dimension + 1} vertices, got {len(verts)}")
                simplex.append((i, verts))
            elif "halfspaces" in doc:
                hs = doc["halfspaces"]
                if not isinstance(hs, list) or not hs:
                    raise DocumentError("field 'halfspaces' must be a non-empty list")
                W = np.zeros((len(hs), dimension))
                b = np.zeros(len(hs))
                for r, h in enumerate(hs):
                    W[r] = docio.as_float_array(docio.get(h, "w"), "w", (dimension,))
                    b[r] = docio.as_float(docio.get(h, "b"), "b")
                cells[i] = cls(W, b)
            else:
                raise DocumentError(f"{names[i]} needs 'vertices' or 'halfspaces'")
        if simplex:
            ids, V = zip(*simplex)
            made = cls.from_simplices(np.array(V), [names[i] for i in ids])
            for i, cell in zip(ids, made):
                cells[i] = cell
        return cells


def _solve_facts(cells, hull=None):
    """Give each cell lacking them its normal combination and Chebyshev
    ball: a simplex its closed forms, every other cell its blocks of one
    LP (lp.cell_facts), which a hull joins when some cell needs the LP.
    When that LP fails, each of its cells' two LPs is solved alone, so
    that every cell gets what it would get if asked alone: None for no
    combination, None for no ball (which `chebyshev` refuses)."""
    todo = []
    for cell in cells:
        if cell._cheb is not _UNSET:
            continue
        if cell.is_simplex:
            cell._take_simplex_facts()
        else:
            todo.append(cell)
    if not todo:
        return
    if hull is not None and hull._cheb is _UNSET and not hull.is_simplex:
        todo.append(hull)
    facts = lp.cell_facts([c.W for c in todo], [(c.W, c.b) for c in todo])
    if facts is None:  # some cell fails a fact: find which, cell by cell
        lams = [lp.cell_facts([c.W], []) for c in todo]
        balls = [lp.cell_facts([], [(c.W, c.b)]) for c in todo]
        facts = ([None if f is None else f[0][0] for f in lams],
                 [None if f is None else f[1][0] for f in balls])
    for cell, lam, ball in zip(todo, *facts):
        cell._lam, cell._cheb = lam, ball


def shrink_cell(cell: ConvexCell, epsilon: float) -> ConvexCell:
    """Offsets b_i -> b_i - epsilon * |w_i|; normals unchanged."""
    return cell.shrink(epsilon)


class DirectedHyperplaneRegistry:
    """Canonical list of the directed hyperplanes supporting mesh facets.

    The facets are the rows of a stacked facet table (W, b, starts, tags;
    see PolytopeMesh.facets), keyed by (unit normal, unit offset). Facet by
    facet in table order, each maps to the first entry whose representative
    (first-inserted) key is within `tol` of its own in every coordinate, or
    else founds a new entry. All state is arrays:

    - per facet: `entry`, and `scale` = |w| / |w_rep| (1.0 for a
      bit-identical copy of the representative), and `norms` = |w|;
    - per entry: `rep`, the table row of its representative, and
      `undirected` and `interior` from pairing each entry with the first
      entry within `tol` of its reversed key.
    """

    def __init__(self, tol=DEDUP_TOL):
        self.tol = tol

    @property
    def size(self) -> int:
        return len(self.rep)

    @classmethod
    def build(cls, mesh: "PolytopeMesh", tol=DEDUP_TOL,
              hull: "ConvexCell | None" = None) -> "DirectedHyperplaneRegistry":
        reg = cls(tol=tol)
        reg.W, reg.b, reg.starts, reg.tags = mesh.facets(hull)
        W, b = reg.W, reg.b
        # one norm per vector: the row-wise norm can round differently in
        # the last ulp, which would move the merged first-layer biases
        reg.norms = norms = np.array([np.linalg.norm(w) for w in W])
        keys = np.column_stack([W, b]) / norms[:, None]
        # equal keys share an entry, so only distinct keys enter the search,
        # in order of first appearance: a Freudenthal grid has few
        # hyperplanes, each shared by many facets
        distinct, first, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        # one max-norm ball query (Bentley 1975), hits in increasing order
        hits = cKDTree(distinct[order]).query_ball_point(
            distinct[order], r=tol, p=np.inf, return_sorted=True)
        # a key joins the first earlier founder within tol, as the first
        # match of a scan over the entries would, or founds an entry
        founder = np.zeros(order.size, dtype=bool)
        root = np.arange(order.size)
        for f, near in enumerate(hits):
            root[f] = next(g for g in near if founder[g] or g == f)
            founder[f] = root[f] == f
        entry_of_key = (np.cumsum(founder) - 1)[root]
        reg.entry = entry_of_key[np.argsort(order)][inverse.reshape(-1)]
        reg.rep = first[order[founder]]
        rep = reg.rep[reg.entry]
        same = np.all(W == W[rep], axis=1) & (b == b[rep])
        reg.scale = np.where(same, 1.0, norms / norms[rep])
        reg.classify()
        return reg

    def classify(self):
        """Pair each entry with the first entry within tol of its reversed
        key when neither is paired yet; set `undirected`, `interior` and
        the interior and boundary hyperplane counts."""
        keys = np.column_stack([self.W, self.b])[self.rep] \
            / self.norms[self.rep, None]
        opposite = cKDTree(keys).query_ball_point(
            -keys, r=self.tol, p=np.inf, return_sorted=True)
        self.undirected = np.full(self.size, -1)
        self.interior = np.zeros(self.size, dtype=bool)
        next_id = 0
        for i, near in enumerate(opposite):
            if self.undirected[i] >= 0:
                continue
            self.undirected[i] = next_id
            j = near[0] if near else i
            if j != i and self.undirected[j] < 0:
                self.undirected[j] = next_id
                self.interior[[i, j]] = True
            next_id += 1
        self.interior_count = int(self.interior.sum()) // 2
        self.boundary_count = next_id - self.interior_count


def build_registry(mesh: "PolytopeMesh", tol=DEDUP_TOL,
                   hull: "ConvexCell | None" = None) -> DirectedHyperplaneRegistry:
    """Canonicalize and dedup all mesh facets; size equals 2*H_i + H_b.

    With a hull, its facets join as the table's last block (tagged -1);
    hull facets that are not already mesh facets enlarge the registry.
    """
    return DirectedHyperplaneRegistry.build(mesh, tol=tol, hull=hull)


class PolytopeMesh:
    """A list of convex cells with disjoint interiors covering the domain."""

    def __init__(self, dimension: int, cells, domain_hull: ConvexCell | None = None):
        if dimension < 1:
            raise MeshError("dimension must be >= 1")
        cells = list(cells)
        if not cells:
            raise MeshError("mesh needs at least one cell")
        for i, c in enumerate(cells):
            if c.dim != dimension:
                raise MeshError(f"cell {i} has dimension {c.dim}, expected {dimension}")
        self.dimension = dimension
        self.cells = cells
        self.domain_hull = domain_hull
        self._registry = None
        self._vertex_table = None
        self._facets = None
        self._blocks = None
        self._hash = None

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def registry(self) -> DirectedHyperplaneRegistry:
        if self._registry is None:
            self._registry = build_registry(self)
        return self._registry

    def counts(self):
        """(H_interior, H_boundary, N_cells)."""
        reg = self.registry()
        return reg.interior_count, reg.boundary_count, self.n_cells

    def solve_facts(self, upto: int | None = None):
        """The normal combination and Chebyshev ball of every non-simplex
        cell below `upto` (by default of every cell, and then of the domain
        hull too unless no cell needs an LP) from one block LP; cells that
        have them already are skipped."""
        _solve_facts(self.cells[:upto], self.domain_hull if upto is None else None)

    def is_simplicial(self) -> bool:
        return all(c.is_simplex for c in self.cells)

    def vertex_table(self):
        """Global vertex array plus per-cell vertex indices (simplicial
        meshes), by vertex_table_of."""
        if self._vertex_table is None:
            simplex, V = self._simplex_stack()
            if not simplex.all():
                raise MeshError("vertex table requires a simplicial mesh")
            self._vertex_table = vertex_table_of(V)
        return self._vertex_table

    def _simplex_stack(self):
        """Which cells are simplices, and their vertices (k, n+1, n)."""
        simplex = np.array([c.is_simplex for c in self.cells])
        V = np.array([c.vertices for c, s in zip(self.cells, simplex) if s])
        return simplex, V.reshape(-1, self.dimension + 1, self.dimension)

    def bounding_box(self):
        """Min and max vertex coordinates: one reduction over the simplex
        cells' vertices, a vertex set per other cell."""
        simplex, V = self._simplex_stack()
        V = V.reshape(-1, self.dimension)
        boxes = [c.bounding_box() for c, s in zip(self.cells, simplex) if not s]
        boxes.append((V.min(axis=0, initial=np.inf), V.max(axis=0, initial=-np.inf)))
        los, his = zip(*boxes)
        return np.min(los, axis=0), np.max(his, axis=0)

    def volume(self) -> float:
        """Sum of the cell volumes in cell order; the simplex cells' come
        from one stacked determinant."""
        simplex, V = self._simplex_stack()
        vols = np.zeros(self.n_cells)
        vols[simplex] = _simplex_volumes(V)
        vols[~simplex] = [c.volume() for c, s in zip(self.cells, simplex) if not s]
        return float(sum(vols.tolist()))

    def facets(self, hull: ConvexCell | None = None):
        """The stacked facet table (W, b, starts, tags) by whose rows every
        module numbers the mesh's facets: each cell's facets in cell order,
        cell c's from row starts[c], then the hull's as one last block when
        a hull is given. tags[r] is the (cell, facet) of row r, with cell
        -1 for the hull."""
        if self._facets is None:
            sizes = [c.m for c in self.cells]
            cell = np.repeat(np.arange(self.n_cells), sizes)
            starts = np.cumsum([0] + sizes[:-1])
            facet = np.arange(cell.size) - starts[cell]
            self._facets = (np.vstack([c.W for c in self.cells]),
                            np.concatenate([c.b for c in self.cells]),
                            starts, np.column_stack([cell, facet]))
            for a in self._facets:
                a.flags.writeable = False
        if hull is None:
            return self._facets
        W, b, starts, tags = self._facets
        hull_tags = np.column_stack([np.full(hull.m, -1), np.arange(hull.m)])
        return (np.vstack([W, hull.W]), np.concatenate([b, hull.b]),
                np.append(starts, b.size), np.vstack([tags, hull_tags]))

    def containing(self, X, tol=1e-12):
        """(first containing cell or -1, number of containing cells) per
        point; cell c contains x when ConvexCell.contains(x, tol) holds.

        A Morton box tree over the finite points prunes candidate cells by
        exact corner bounds (_box_tree_leaves); only the surviving (point,
        cell) pairs, and every cell for a non-finite point, are tested.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._blocks is None:  # each cell's facets, padded with its first
            W, b, starts, _ = self.facets()
            ends = np.append(starts[1:], b.size)
            k = np.arange(np.max(ends - starts))[:, None]
            pad = np.where(starts + k < ends, starts + k, starts)
            self._blocks = np.ascontiguousarray(W[pad].transpose(2, 0, 1)), b[pad]
        W, b = self._blocks
        X = np.ascontiguousarray(X.T)  # (n, P): coordinates first, as W
        finite = np.isfinite(X).all(axis=0)
        rows, rest = np.flatnonzero(finite), np.flatnonzero(~finite)
        start = end = cell = np.zeros(0, dtype=int)
        if rows.size:
            order, start, end, cell = _box_tree_leaves(
                np.take(X, rows, axis=1), W, b, tol)
            rows = rows[order]
        if rest.size:  # one leaf, every cell a candidate
            start = np.append(start, np.full(self.n_cells, rows.size))
            end = np.append(end, np.full(self.n_cells, X.shape[1]))
            cell = np.append(cell, np.arange(self.n_cells))
        rows = np.concatenate([rows, rest])
        X = np.take(X, rows, axis=1)
        span = end - start
        offsets = np.cumsum(span) - span
        total = int(span.sum())
        first = np.full(rows.size, self.n_cells)
        count = np.zeros(rows.size, dtype=int)
        step = max(1, CHUNK_ELEMENTS // (W.shape[0] * W.shape[1]))
        for lo in range(0, total, step):
            t = np.arange(lo, min(lo + step, total))
            leaf = np.searchsorted(offsets, t, side="right") - 1
            point, c = start[leaf] + t - offsets[leaf], cell[leaf]
            inside = _pairs_pass(X, X, point, c, W, b, tol)
            count += np.bincount(point[inside], minlength=rows.size)
            np.minimum.at(first, point[inside], c[inside])
        out_first = np.empty_like(first)
        out_count = np.empty_like(count)
        out_first[rows] = np.where(first < self.n_cells, first, -1)
        out_count[rows] = count
        return out_first, out_count

    def locate(self, X, tol=1e-12):
        """First containing cell index per point, -1 when outside the mesh."""
        return self.containing(X, tol)[0]

    def to_doc(self) -> dict:
        doc = {
            "dimension": self.dimension,
            "cells": [c.to_doc() for c in self.cells],
        }
        hull = self.domain_hull
        if hull is not None:  # always as halfspaces
            doc["domain_hull"] = {"halfspaces": [{"w": hull.W[i], "b": hull.b[i]}
                                                 for i in range(hull.m)]}
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "PolytopeMesh":
        dim = docio.get(doc, "dimension", int)
        if dim < 1:
            raise DocumentError("field 'dimension' must be >= 1")
        cell_docs = docio.get(doc, "cells", list)
        if not cell_docs:
            raise DocumentError("field 'cells' must be non-empty")
        cells = ConvexCell.from_docs(cell_docs, dim)
        hull = None
        if doc.get("domain_hull") is not None:
            hull = ConvexCell.from_docs([doc["domain_hull"]], dim, ["domain hull"])[0]
        return cls(dim, cells, domain_hull=hull)

    def save(self, path):
        docio.save(self.to_doc(), path)

    @classmethod
    def load(cls, path) -> "PolytopeMesh":
        return cls.from_doc(docio.load(path))

    def content_hash(self) -> str:
        if self._hash is None:
            self._hash = hashlib.sha256(docio.dumps(self.to_doc()).encode()).hexdigest()
        return self._hash


def vertex_table_of(V):
    """(vertices, indices) of a simplex stack V (k, n+1, n): the distinct
    vertices in order of first appearance and each simplex's rows of them.
    Vertices are matched by bit pattern (so -0.0 is not 0.0); generators
    and the file round trip produce identical floats for shared vertices."""
    flat = V.reshape(-1, V.shape[2])
    bits = flat.view(np.dtype((np.void, flat.itemsize * V.shape[2])))
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return flat[first[order]], np.argsort(order)[inverse].reshape(V.shape[:2])


def freudenthal_simplices(n: int, N: int) -> np.ndarray:
    """Vertex stack (N^n n!, n+1, n) of the Freudenthal mesh of [0,1]^n.

    Every grid subcube is split into n! simplices, one per coordinate
    ordering sigma: the walk from its corner that steps +1/N along
    sigma[0], ..., sigma[n-1].
    """
    if n < 1 or N < 1:
        raise MeshError("freudenthal_mesh requires n >= 1 and N >= 1")
    corners = np.array(list(itertools.product(range(N), repeat=n)), dtype=int)
    steps = np.eye(n, dtype=int)[list(itertools.permutations(range(n)))]
    walks = np.cumsum(np.pad(steps, ((0, 0), (1, 0), (0, 0))), axis=1)
    return (corners[:, None, None] + walks[None]).reshape(-1, n + 1, n) / N


def unit_cube_hull(n: int) -> ConvexCell:
    """[0,1]^n as the halfspaces x_j >= 0, then 1 - x_j >= 0."""
    return ConvexCell(np.vstack([np.eye(n), -np.eye(n)]),
                      np.concatenate([np.zeros(n), np.ones(n)]))


def freudenthal_mesh(n: int, N: int) -> PolytopeMesh:
    """Standard simplicial mesh of [0,1]^n with grid step 1/N: N^n n!
    cells (freudenthal_simplices), hull the unit cube."""
    return PolytopeMesh(n, ConvexCell.from_simplices(freudenthal_simplices(n, N)),
                        domain_hull=unit_cube_hull(n))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in stream))
    return np.random.Generator(np.random.Philox(ss))


def _sample(tiles, quotas, rng: np.random.Generator):
    """quotas[c] uniform points of each cell c, tagged by cell, from the
    tiling tiles[c] (k_c, n+1, n) of its (shrunk) interior.

    Exact, with no rejection: each point picks a tile of its cell with
    probability proportional to the tile's volume, then barycentric weights
    from normalised exponentials, which are uniform on a simplex (Devroye
    1986, ch. XI). A cell with no tiles or no quota gets no points.
    """
    tiles = [t if q else t[:0] for t, q in zip(tiles, quotas)]
    n = tiles[0].shape[2]
    k = np.array([len(t) for t in tiles], dtype=int)
    tags = np.repeat(np.arange(len(tiles)), np.where(k > 0, quotas, 0))
    T = np.concatenate(tiles)
    vol = _simplex_volumes(T)
    cum = np.cumsum(vol)
    last = np.cumsum(k)[tags] - 1
    first = last - k[tags] + 1
    # inverse CDF over the cell's tiles; the clip keeps rounding in the cell
    target = cum[last] - rng.random(tags.size) * (cum[last] - cum[first] + vol[first])
    pick = np.clip(np.searchsorted(cum, target), first, last)
    E = rng.standard_exponential((tags.size, n + 1))
    X = np.einsum("pk,pkd->pd", E / E.sum(axis=1, keepdims=True), T[pick])
    return X, tags


def sample_shrunk_domain(mesh: PolytopeMesh, epsilon: float, count: int, seed: int):
    """Uniform samples of the union of epsilon-shrunk cells, tagged by cell.

    Returns (points, cell_indices). The count is split evenly over the
    cells whose shrunk interior is non-empty; if every cell is empty the
    epsilon is too large.
    """
    if epsilon <= 0:
        raise MeshError("epsilon must be > 0")
    if count < 1:
        raise MeshError("count must be >= 1")
    tiles = [c.simplices(epsilon) for c in mesh.cells]
    alive = np.flatnonzero([len(t) for t in tiles])
    if not alive.size:
        raise MeshError("epsilon too large: every shrunk cell is empty")
    base, extra = divmod(count, alive.size)
    quotas = np.zeros(mesh.n_cells, dtype=int)
    quotas[alive] = base + (np.arange(alive.size) < extra)
    return _sample(tiles, quotas, _rng(seed, 0))


def sample_cells(mesh: PolytopeMesh, per_cell: int, seed: int, epsilon: float = 0.0):
    """Per-cell uniform samples (optionally of the shrunk cells), tagged;
    per_cell points in every cell whose shrunk interior is non-empty."""
    return _sample([c.simplices(epsilon) for c in mesh.cells],
                   [per_cell] * mesh.n_cells, _rng(seed, 0))


def sample_mesh(mesh: PolytopeMesh, count: int, seed: int) -> np.ndarray:
    """count uniform points of the whole mesh: cell counts drawn
    multinomially by cell volume, then sampled cell by cell."""
    rng = _rng(seed, 77)
    tiles = [c.simplices() for c in mesh.cells]
    vols = np.array([np.sum(_simplex_volumes(t)) for t in tiles])
    return _sample(tiles, rng.multinomial(count, vols / vols.sum()), rng)[0]


def sample_exterior(mesh: PolytopeMesh, count: int, seed: int,
                    inflate: float = 3.0, far_points: int = 100,
                    region=None):
    """Points safely outside the mesh (or outside `region` when given):
    rejection samples from the inflated bounding box plus a far ring at
    ten diameters. MeshError when the box yields fewer than count."""
    lo, hi = mesh.bounding_box()
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * inflate
    diam = float(np.linalg.norm(hi - lo))
    rng = _rng(seed, 90)
    batches = []
    got = 0
    for _ in range(400):
        X = rng.uniform(center - half, center + half,
                        size=(max(2 * count, 128), mesh.dimension))
        if region is None:
            X = X[mesh.containing(X, tol=1e-9)[1] == 0]
        else:
            X = X[~region.contains(X, tol=1e-9)]
        batches.append(X)
        got += X.shape[0]
        if got >= count:
            break
    if got < count:
        raise MeshError(f"exterior sampling found {got} of {count} points "
                        f"outside the {'mesh' if region is None else 'region'}")
    dirs = rng.standard_normal((far_points, mesh.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.vstack([np.vstack(batches)[:count], center + dirs * (10.0 * diam)])


@dataclass
class ValidationReport:
    """Outcome of the structural and Monte-Carlo mesh checks."""

    bounded: list[bool]
    inradius: list[float]
    overlap_fraction: float
    union_volume_estimate: float
    cell_volume_sum: float
    hull_uncovered_fraction: float | None
    samples: int
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def _hull_volume(hull: ConvexCell) -> float:
    """Volume of a domain hull, inf when it is unbounded. A box (every row
    bounds one coordinate, as the generators' hulls do) is the product of
    its sides, so a simplex mesh enumerates no vertices; any other hull
    sums its tiles."""
    W, b = hull.W, hull.b
    if not np.all(np.count_nonzero(W, axis=1) == 1):
        return hull.volume() if hull.is_bounded() else math.inf
    axis = np.argmax(W != 0, axis=1)
    w = W[np.arange(hull.m), axis]
    lo = np.full(hull.dim, -np.inf)
    hi = np.full(hull.dim, np.inf)
    np.maximum.at(lo, axis[w > 0], -b[w > 0] / w[w > 0])
    np.minimum.at(hi, axis[w < 0], -b[w < 0] / w[w < 0])
    sides = hi - lo
    return 0.0 if np.any(sides <= 0) else float(np.prod(sides))


def validate_mesh(mesh: PolytopeMesh, samples: int = 100_000, seed: int = 0
                  ) -> ValidationReport:
    """Check boundedness, nonempty interiors, disjointness and coverage.

    Unbounded or empty-interior cells raise MeshError naming the cell;
    overlap/coverage findings are reported for the caller to judge: by
    sampling, and, when the mesh has a domain hull, exactly, as summed cell
    volumes more than 1e-9 relative away from the hull's volume.
    """
    if samples < 1:
        raise MeshError("samples must be >= 1")
    # cell by cell, the first unbounded or empty cell is refused; the
    # facts of the cells before the first unbounded one come from one LP
    unbounded = next((ci for ci, cell in enumerate(mesh.cells)
                      if not cell.is_bounded()), None)
    mesh.solve_facts(unbounded)
    inradius = []
    for ci, cell in enumerate(mesh.cells[:unbounded]):
        r = cell.inradius()
        if not r > 1e-10:
            raise MeshError(f"cell {ci} has empty interior (inradius {r:.3e})")
        inradius.append(r)
    if unbounded is not None:
        raise MeshError(f"cell {unbounded} is unbounded")
    bounded = [True] * mesh.n_cells

    lo, hi = mesh.bounding_box()
    X = _rng(seed).uniform(lo, hi, size=(samples, mesh.dimension))
    _, inside_count = mesh.containing(X, tol=-1e-12)
    box_vol = float(np.prod(hi - lo))
    overlap_fraction = float(np.mean(inside_count >= 2))
    union_vol = float(np.mean(inside_count >= 1)) * box_vol
    vol_sum = mesh.volume()

    hull_uncovered = None
    if mesh.domain_hull is not None:
        in_hull = mesh.domain_hull.contains(X, tol=-1e-9)
        n_hull = int(np.sum(in_hull))
        if n_hull:
            hull_uncovered = float(np.mean(inside_count[in_hull] == 0))

    issues = []
    mc_sigma = 1.0 / np.sqrt(samples)
    if overlap_fraction > 3 * mc_sigma + 1e-4:
        issues.append(f"cell interiors overlap on ~{overlap_fraction:.2%} of the box")
    if box_vol > 0:
        rel = abs(union_vol - vol_sum) / max(vol_sum, 1e-300)
        if rel > 5 * mc_sigma * box_vol / max(vol_sum, 1e-300) + 1e-3:
            issues.append(
                f"union volume {union_vol:.6g} vs summed cell volumes {vol_sum:.6g}"
            )
    if hull_uncovered is not None and hull_uncovered > 3 * mc_sigma + 1e-3:
        issues.append(f"domain hull not covered on ~{hull_uncovered:.2%} of its samples")
    # the exact test sampling cannot make: tiled cells fill the hull
    # exactly when their volumes add up to its volume
    if mesh.domain_hull is not None:
        hull_vol = _hull_volume(mesh.domain_hull)
        if hull_vol == math.inf or abs(vol_sum - hull_vol) > 1e-9 * hull_vol:
            issues.append(f"summed cell volumes {vol_sum:.12g} vs domain hull "
                          f"volume {hull_vol:.12g}")

    return ValidationReport(
        bounded=bounded,
        inradius=inradius,
        overlap_fraction=overlap_fraction,
        union_volume_estimate=union_vol,
        cell_volume_sum=vol_sum,
        hull_uncovered_fraction=hull_uncovered,
        samples=samples,
        issues=issues,
    )


def min_inradius(mesh: PolytopeMesh) -> float:
    mesh.solve_facts()
    return min(cell.inradius() for cell in mesh.cells)
