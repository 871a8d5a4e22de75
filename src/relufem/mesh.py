"""Convex polytope meshes in halfspace representation.

A cell is the intersection of finitely many halfspaces {x : w @ x + b >= 0};
a mesh is a list of such cells with pairwise disjoint interiors. Simplex
cells may instead be given by their vertex lists, from which inward facet
halfspaces are derived. The directed-hyperplane registry canonicalizes all
facets of a mesh, merges the ones that are positive multiples of each other,
and classifies the underlying hyperplanes as interior or boundary. Point
location is relufem._boxtree's and the samplers are relufem.sampling's.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import (ConvexHull, Delaunay, HalfspaceIntersection, QhullError,
                           cKDTree)

from . import _boxtree, docio, lp
from ._chunks import CHUNK_ELEMENTS
from .errors import DocumentError, MeshError
# the samplers live in relufem.sampling; relufem.mesh keeps their names
from .sampling import (_rng, _simplex_volumes, sample_cells, sample_exterior,
                       sample_mesh, sample_shrunk_domain)

DEDUP_TOL = 1e-9  # registry keys (unit normal, unit offset) that agree
PRUNE_TOL = 1e-9  # unit normals of one cell that shadow each other
VERTEX_RTOL = 1e-12  # feasibility and coincidence, relative to max|x_j|

_UNSET = object()


def _affine(X, W, b):
    """X @ W.T + b over any leading stack axes, summed coordinate by
    coordinate (_boxtree._corner_values on points), so an entry has the
    same bits in whatever stack it is."""
    X = np.moveaxis(X[..., :, None, :], -1, 0)
    return _boxtree._corner_values(X, X, np.moveaxis(W[..., None, :, :], -1, 0),
                                   b[..., None, :])


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
    (k, n+1, n) with facets W, b (_simplex_halfspaces: facet i opposite
    v_i). h_i = h_i(v_i), and the barycentric coordinates h_i(x) / h_i sum
    to 1: lambda = max(h) / h (min 1, as the LP pins it), r = 1 / sum_i
    |w_i| / h_i, incentre r sum_i (|w_i| / h_i) v_i. A flat simplex
    raises MeshError naming it by names[i] (default "cell i")."""
    h = np.diagonal(_affine(V, W, b), axis1=1, axis2=2)  # h_i(v_i)
    flat = np.flatnonzero(~np.all(h > 0.0, axis=1))
    if flat.size:
        name = f"cell {flat[0]}" if names is None else names[flat[0]]
        raise MeshError(f"{name}: degenerate simplex (flat)")
    g = np.linalg.norm(W, axis=-1) / h
    r = 1.0 / np.sum(g, axis=-1)
    centre = (g[:, None] @ V)[:, 0]
    return np.max(h, axis=-1, keepdims=True) / h, r[:, None] * centre, r


def _stacks(cells, V):
    """Index lists that cut the cells, given their vertex sets V, into
    stacks for _supporting_rows: cells of one dimension in list order, at
    most CHUNK_ELEMENTS floats of (vertex, facet) and (facet, facet) pairs
    per stack, (len(V_i) + m_i) m_i n for cell i, or one cell when that
    alone takes more."""
    stack, size = [], 0
    for i in sorted(range(len(cells)), key=lambda i: cells[i].dim):
        m, n = cells[i].W.shape
        pairs = (len(V[i]) + m) * m * n
        if stack and (cells[stack[0]].dim != n or size + pairs > CHUNK_ELEMENTS):
            yield stack
            stack, size = [], 0
        stack.append(i)
        size += pairs
    if stack:
        yield stack


def _max_abs(X):
    """max_j |x_j| over the last axis, NaN for a NaN row: one maximum per
    coordinate, which beats a reduction over a short axis."""
    size = np.abs(X[..., 0])
    for d in range(1, X.shape[-1]):
        size = np.maximum(size, np.abs(X[..., d]))
    return size


def _meeting_rows(H, point):
    """For each vertex of the bounded system {W x + b >= 0}, given as
    Qhull's H = [-W, -b], the rows that meet there, found about a point
    strictly inside it: Qhull's dual facets (Barber, Dobkin & Huhdanpaa
    1996), or in 1D the first row that reaches each end. No rows when
    Qhull refuses the point as not clearly inside."""
    if H.shape[1] == 2:
        x = -H[:, 1] / H[:, 0]
        return [[int(np.argmax(x == end))]
                for end in (np.max(x[H[:, 0] < 0]), np.min(x[H[:, 0] > 0]))]
    try:
        return HalfspaceIntersection(H, point).dual_facets
    except QhullError:
        return []


def _interior_points(cells, epsilon):
    """A point strictly inside each cell of one dimension shrunk by
    epsilon (every row > 0 there), None where there is none. The first
    candidate strictly inside wins: at epsilon 0 the cell's `interior`;
    where the inradius exceeds epsilon its Chebyshev centre (_solve_facts)."""
    points = [None] * len(cells)

    def take(ids, candidates):  # where each is strictly inside, one stack
        if ids:
            m = [cells[i].m for i in ids]
            values = np.einsum("rd,rd->r", np.repeat(candidates, m, axis=0),
                               np.concatenate([cells[i].W for i in ids]))
            values += np.concatenate([cells[i].b - epsilon * cells[i].norms for i in ids])
            inside = np.minimum.reduceat(values, np.cumsum([0] + m[:-1])) > 0
            for i, p, ok in zip(ids, candidates, inside):
                points[i] = p if ok else None

    given = [i for i, c in enumerate(cells) if epsilon == 0 and c.interior is not None]
    take(given, [cells[i].interior for i in given])
    _solve_facts([c for c, p in zip(cells, points) if p is None])
    wide = [i for i, p in enumerate(points) if p is None and cells[i].inradius() > epsilon]
    take(wide, [cells[i].chebyshev()[0] for i in wide])
    return points


def _vertex_sets(cells, epsilon=0.0):
    """Vertices of the bounded cells shrunk by epsilon, shape (p, n); (0, n)
    where no point is strictly inside (_interior_points) or Qhull refuses it.

    Each vertex is solved from the first n-subset, in itertools.combinations
    order, of the rows meeting there (_meeting_rows) whose |det| >= 1e-12
    prod|w_i|, and a cell's vertices are in the order of their subsets:
    the bits and order of an enumeration of all n-subsets that keeps each
    vertex's first copy, wherever Qhull lists every row through a vertex.
    Only the Qhull calls are per cell; the cutoff and the solve are one
    stack per dimension, and LAPACK factors each matrix alone."""
    out = [None] * len(cells)
    for n in {c.dim for c in cells}:
        ids = [i for i, c in enumerate(cells) if c.dim == n]
        group = [cells[i] for i in ids]
        W = np.concatenate([c.W for c in group])
        b = np.concatenate([c.b - epsilon * c.norms for c in group])
        starts = np.cumsum([0] + [c.m for c in group])
        H = np.column_stack([-W, -b])
        meets = [[] if p is None else _meeting_rows(H[s:e], p) for s, e, p in
                 zip(starts, starts[1:], _interior_points(group, epsilon))]
        owner = np.repeat(np.arange(len(group)), [len(m) for m in meets])
        # each vertex's n-subsets of its rows, as rows of its cell
        subsets = [list(itertools.combinations(sorted(r), n)) for m in meets for r in m]
        vertex = np.repeat(np.arange(len(subsets)), [len(s) for s in subsets])
        local = np.array([s for v in subsets for s in v], dtype=int).reshape(-1, n)
        flat = local + starts[owner[vertex], None]
        A = W[flat]
        scale = np.linalg.norm(W, axis=-1)[flat]
        for d in range(1, n):  # the product, in order
            scale[:, 0] *= scale[:, d]
        regular = np.flatnonzero(np.abs(np.linalg.det(A)) >= 1e-12 * scale[:, 0])
        chosen = regular[np.unique(vertex[regular], return_index=True)[1]]
        X = np.linalg.solve(A[chosen], -b[flat[chosen]][..., None])[..., 0]
        cell = owner[vertex[chosen]]
        X = X[np.lexsort((*local[chosen].T[::-1], cell))]
        cuts = np.cumsum(np.append(0, np.bincount(cell, minlength=len(group))))
        for i, s, e in zip(ids, cuts, cuts[1:]):
            out[i] = X[s:e]
    return out


def _fill_vertex_sets(cells):
    """Give each bounded non-simplex cell lacking one its vertex set."""
    todo = [c for c in cells
            if c.vertices is None and c._vertex_set is None and c.is_bounded()]
    for cell, V in zip(todo, _vertex_sets(todo)):
        cell._vertex_set = V


def _facet_norms(W, b):
    """|w_i| of halfspaces W (..., m, n), b (..., m), which must be finite
    with nonzero normals; one check for a whole stack of cells."""
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
        raise MeshError("cell halfspace data must be finite")
    norms = np.linalg.norm(W, axis=-1)
    if np.any(norms <= 0.0):
        raise MeshError("cell has a zero facet normal")
    return norms


def _pair_blocks(sizes, starts):
    """For items with blocks of sizes[q] partners starting at starts[q]:
    every (item, partner) pair, item by item, as two index arrays."""
    first = np.cumsum(sizes) - sizes
    item = np.repeat(np.arange(len(sizes)), sizes)
    return item, np.arange(item.size) - first[item] + starts[item]


def _supporting_rows(cells, V):
    """Whether prune_redundant keeps each facet of the cells (of one
    dimension), facets in cell order, given their vertex sets V.

    A facet supports when its tight vertices (|h_i(v)| / |w_i| within
    VERTEX_RTOL of max_j |v_j|) span an (n-1)-flat, by one stacked SVD
    per count of tight vertices, so every matrix is the one a lone cell
    would factor; a supporting row is shadowed by a supporting row of its
    cell whose unit normal agrees within PRUNE_TOL and whose unit offset comes
    first in a stable sort. Every value is computed as for a lone cell."""
    n = cells[0].dim
    m = np.array([c.m for c in cells])
    p = np.array([len(v) for v in V])
    W = np.concatenate([c.W for c in cells])
    b = np.concatenate([c.b for c in cells])
    norms = np.concatenate([c.norms for c in cells])
    X = np.concatenate(V)
    fstart = np.cumsum(m) - m
    fcell = np.repeat(np.arange(len(cells)), m)
    # every (vertex, facet) pair of one cell, vertex by vertex, by the
    # operations of _affine in its order
    vcell = np.repeat(np.arange(len(cells)), p)
    vert, facet = _pair_blocks(m[vcell], fstart[vcell])
    XT = X[vert].T
    value = _boxtree._corner_values(XT, XT, W[facet].T, b[facet])
    size = _max_abs(X)
    tight = np.abs(value / norms[facet]) <= VERTEX_RTOL * size[vert]
    rank_tol = VERTEX_RTOL * np.maximum.reduceat(size, np.cumsum(p) - p)
    # each facet's tight vertices in vertex order, as one run
    on = np.argsort(facet[tight], kind="stable")
    tight_vert = vert[tight][on]
    count = np.bincount(facet[tight], minlength=len(W))
    starts = np.cumsum(count) - count
    supports = np.zeros(len(W), dtype=bool)
    for t in np.unique(count[count >= n]):
        f = np.flatnonzero(count == t)
        T = X[tight_vert[starts[f][:, None] + np.arange(t)]]
        supports[f] = np.linalg.matrix_rank(
            T[:, 1:] - T[:, :1], tol=rank_tol[fcell[f]]) == n - 1
    # every (facet, facet) pair of one cell
    i, j = _pair_blocks(m[fcell], fstart[fcell])
    U = W / norms[:, None]
    key = b / norms
    earlier = (key[j] < key[i]) | ((key[j] == key[i]) & (j < i))
    shadow = (_max_abs(U[i] - U[j]) <= PRUNE_TOL) & supports[j] & earlier
    return supports & (np.bincount(i[shadow], minlength=len(W)) == 0)


class ConvexCell:
    """Closed convex polytope given by facet normals W and offsets b.

    The cell is {x : W @ x + b >= 0}. A simplex (from_simplices) derives
    W, b from its vertex array and keeps it, for nodal interpolation.

    A cell caches four facts: its boundedness, the Chebyshev ball, a
    strictly positive combination of the facet normals summing to zero,
    and the vertex set. A simplex is born with all four.
    Any other cell decides boundedness by one hull of its unit normals
    (is_bounded); its ball and combination come from one block LP
    (_solve_facts) and its vertex set from the vertex path (_vertex_sets),
    both shared by all the cells of a mesh. Volumes and samples come from
    a tiling of the (shrunk) cell; the unshrunk tiling is cached.
    """

    def __init__(self, W, b):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        if W.shape[0] != b.shape[0]:
            raise MeshError("normal/offset count mismatch")
        self._set(W, b, _facet_norms(W, b), None)

    def _set(self, W, b, norms, vertices, interior=None):
        self.W, self.b, self.norms, self.vertices = W, b, norms, vertices
        self.interior = interior  # a point inside (a site), checked before use
        self._cheb = self._lam = _UNSET  # both set together, None on failure
        self._bounded = None
        self._vertex_set = None
        self._tiles = None  # simplices(0)

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
        for i, (lam, c, r) in enumerate(zip(*_simplex_facts(V, W, b, names))):
            cell = cls.__new__(cls)
            cell._set(W[i], b[i], norms[i], V[i])
            cell._lam, cell._cheb, cell._bounded = lam, (c, r), True
            cells.append(cell)
        return cells

    @classmethod
    def from_table(cls, W, b, sizes, interior=None):
        """One cell per run of sizes[i] consecutive rows of the facet
        table W (rows, n), b (rows,), all checked as one table; cell i
        is given the point interior[i] when interior is given."""
        W = np.asarray(W, dtype=float)
        b = np.asarray(b, dtype=float)
        if W.ndim != 2 or W.shape[0] != b.shape[0] or np.sum(sizes) != len(b):
            raise MeshError("normal/offset count mismatch")
        cuts = np.cumsum(sizes)[:-1]
        cells = []
        points = [None] * len(sizes) if interior is None else interior
        for *parts, point in zip(*(np.split(a, cuts)[:len(sizes)]
                                   for a in (W, b, _facet_norms(W, b))), points):
            cell = cls.__new__(cls)
            cell._set(*parts, None, point)
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
        """The cell carries its n+1 vertices, vertex j opposite facet j."""
        return self.vertices is not None

    def facet_values(self, X):
        """h_i(x) for every facet, shape (S, m)."""
        return _affine(np.atleast_2d(np.asarray(X, dtype=float)), self.W, self.b)

    def contains(self, X, tol=1e-12):
        return np.min(self.facet_values(X), axis=1) >= -tol

    def boundary_distance(self, X):
        """min_i (w_i @ x + b_i)/|w_i|; equals d(x, boundary) inside the cell."""
        return np.min(self.facet_values(X) / self.norms, axis=1)

    def shrink(self, epsilon: float) -> "ConvexCell":
        if not epsilon >= 0:
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

    def is_bounded(self) -> bool:
        """Bounded iff no d != 0 has W d >= 0, that is, iff the unit
        normals positively span R^n (Gordan's alternative): the origin lies
        strictly inside their convex hull, every hull facet more than
        VERTEX_RTOL from it. Qhull refuses fewer than n+1 normals or
        normals in a hyperplane, which span no R^n; in 1D there must be a
        positive and a negative normal. A simplex is born bounded."""
        if self._bounded is None and self.dim == 1:
            self._bounded = bool(np.any(self.W > 0) and np.any(self.W < 0))
        elif self._bounded is None:
            try:
                equations = ConvexHull(self.W / self.norms[:, None]).equations
            except QhullError:
                self._bounded = False
            else:
                self._bounded = bool(np.all(equations[:, -1] < -VERTEX_RTOL))
        return self._bounded

    def vertex_set(self) -> np.ndarray:
        """Vertices of the cell, shape (k, n): a simplex's own, else from
        _fill_vertex_sets; MeshError when the cell is unbounded
        or its interior is empty."""
        if self.vertices is not None:
            return self.vertices
        if not self.is_bounded():
            raise MeshError("cell is unbounded")
        if self._vertex_set is None:
            _fill_vertex_sets([self])
        if len(self._vertex_set) == 0:
            raise MeshError("cell has no vertices (empty interior)")
        return self._vertex_set

    def bounding_box(self):
        V = self.vertex_set()
        return V.min(axis=0), V.max(axis=0)

    def simplices(self, epsilon: float = 0.0) -> np.ndarray:
        """Simplices tiling the epsilon-shrunk cell, shape (k, n+1, n).

        Every shrunk cell is empty (k = 0) unless r > eps, the compiler's
        rule. A simplex cell shrinks to its homothety about the incentre c,
        ratio (r - eps) / r. Any other cell is a Delaunay tiling of its
        shrunk vertex set (or its own tile with n+1 vertices).
        """
        return _tilings([self], epsilon)[0]

    def _tiling(self, epsilon, shrunk):
        """simplices(epsilon), given the vertex set of the shrunk system
        (W, b - epsilon |w|) when epsilon > 0 and the cell is no simplex,
        which is empty unless r > epsilon (_interior_points)."""
        V = self.vertex_set()
        n = self.dim
        if epsilon > 0 and self.is_simplex:
            c, r = self.chebyshev()
            shrunk = c + ((r - epsilon) / r) * (V - c) if r > epsilon else V[:0]
        if epsilon > 0:
            return _delaunay_tiles(shrunk) if len(shrunk) > n else np.zeros((0, n + 1, n))
        if self._tiles is None:
            self._tiles = _delaunay_tiles(V)
            self._tiles.flags.writeable = False
        return self._tiles

    def volume(self) -> float:
        return float(np.sum(_simplex_volumes(self.simplices())))

    def prune_redundant(self) -> "ConvexCell":
        """Keep the halfspaces that support a facet of the bounded cell:
        those whose tight vertices span an (n-1)-flat. Of supporting rows
        whose unit normals agree within PRUNE_TOL only the one with the
        smallest unit offset is kept (the first on a tie); a row that
        supports no facet shadows none. A stack of one for prune_all."""
        return ConvexCell.prune_all([self])[0]

    @staticmethod
    def prune_all(cells) -> list:
        """prune_redundant() of every cell of the list, refusing the first
        unbounded or empty one, from the stacked vertex sets and one pass
        of _supporting_rows per stack (_stacks). A simplex keeping every
        row comes back as it is; any other cell as a halfspace cell."""
        _fill_vertex_sets(cells)
        V = [c.vertex_set() for c in cells]
        keep = [None] * len(cells)
        for ids in _stacks(cells, V):
            rows = _supporting_rows([cells[i] for i in ids], [V[i] for i in ids])
            for i, r in zip(ids, np.split(rows, np.cumsum([cells[i].m for i in ids])[:-1])):
                keep[i] = r
        pruned = []
        for cell, rows in zip(cells, keep):
            p = cell
            if not (cell.is_simplex and rows.all()):
                p = ConvexCell.__new__(ConvexCell)
                p._set(cell.W[rows], cell.b[rows], cell.norms[rows], None, cell.interior)
                # the same polytope, so the same vertex set and boundedness
                p._vertex_set, p._bounded = cell._vertex_set, cell._bounded
            pruned.append(p)
        return pruned

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


def _delaunay_tiles(V):
    """Simplices (k, n+1, n) tiling the convex hull of the vertex set V:
    V itself when it has n+1 points, else a Delaunay tiling of V centred
    and scaled to max-norm 1."""
    if len(V) == V.shape[1] + 1:
        return V[None]
    P = V - V.mean(axis=0)
    return V[Delaunay(P / np.max(np.abs(P))).simplices]


def _tilings(cells, epsilon):
    """cell.simplices(epsilon) of every cell of the list, refusing the
    first cell that has no vertex set as it would alone. The shrunk vertex
    sets of the non-simplex cells are solved about their Chebyshev
    centres, all of them by one _vertex_sets; the tilings themselves are
    Delaunay's, cell by cell."""
    if not epsilon >= 0:
        raise MeshError("epsilon must be >= 0")
    _fill_vertex_sets(cells)
    shrunk = [None] * len(cells)
    if epsilon > 0:
        todo = [i for i, c in enumerate(cells)
                if not c.is_simplex and c.is_bounded() and len(c._vertex_set)]
        for i, V in zip(todo, _vertex_sets([cells[i] for i in todo], epsilon)):
            shrunk[i] = V
    return [c._tiling(epsilon, V) for c, V in zip(cells, shrunk)]


def _solve_facts(cells, hull=None):
    """Give each cell lacking them (no simplex: it is born with them) its
    normal combination and Chebyshev ball from its blocks of one LP
    (lp.cell_facts), which a bounded hull joins when some cell needs the
    LP (an unbounded one would make it fail). When that LP fails, each of
    its cells' two LPs is solved alone, so that every cell gets what it
    would get if asked alone: None for no combination, None for no ball
    (which `chebyshev` refuses)."""
    todo = [cell for cell in cells if cell._cheb is _UNSET]
    if not todo:
        return
    if hull is not None and hull._cheb is _UNSET and hull.is_bounded():
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
    (first-inserted) key is within DEDUP_TOL of its own in every coordinate, or
    else founds a new entry. All state is arrays:

    - per facet: `entry`, and `scale` = |w| / |w_rep| (1.0 for a
      bit-identical copy of the representative), and `norms` = |w|;
    - per entry: `rep`, the table row of its representative, and
      `undirected` and `interior` from pairing each entry with the first
      entry within DEDUP_TOL of its reversed key.
    """

    @property
    def size(self) -> int:
        return len(self.rep)

    @classmethod
    def build(cls, mesh: "PolytopeMesh",
              hull: "ConvexCell | None" = None) -> "DirectedHyperplaneRegistry":
        reg = cls()
        reg.W, reg.b, reg.starts, reg.tags = mesh.facets(hull)
        W, b = reg.W, reg.b
        # each row's norm by the stacked form of one vector's norm, which
        # runs its dot kernel: the row-wise norm can round differently in
        # the last ulp, which would move the merged first-layer biases
        reg.norms = norms = np.sqrt((W[:, None, :] @ W[:, :, None])[:, 0, 0])
        keys = np.column_stack([W, b]) / norms[:, None]
        # equal keys share an entry, so only distinct keys enter the search,
        # in order of first appearance: a Freudenthal grid has few
        # hyperplanes, each shared by many facets
        distinct, first, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        # one max-norm ball query (Bentley 1975), hits in increasing order
        hits = cKDTree(distinct[order]).query_ball_point(
            distinct[order], r=DEDUP_TOL, p=np.inf, return_sorted=True)
        # a key joins the first earlier founder within DEDUP_TOL, as the first
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
        """Pair each entry with the first entry within DEDUP_TOL of its
        reversed key when neither is paired yet; set `undirected`,
        `interior` and the interior and boundary hyperplane counts."""
        keys = np.column_stack([self.W, self.b])[self.rep] \
            / self.norms[self.rep, None]
        opposite = cKDTree(keys).query_ball_point(
            -keys, r=DEDUP_TOL, p=np.inf, return_sorted=True)
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


def build_registry(mesh: "PolytopeMesh",
                   hull: "ConvexCell | None" = None) -> DirectedHyperplaneRegistry:
    """Canonicalize and dedup all mesh facets; size equals 2*H_i + H_b.

    With a hull, its facets join as the table's last block (tagged -1);
    hull facets that are not already mesh facets enlarge the registry.
    """
    return DirectedHyperplaneRegistry.build(mesh, hull=hull)


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
        # per hull (None for the weak table): its facet table and registry
        self._facets, self._registries = {}, {}
        self._vertex_table = None
        self._blocks = None
        self._hash = None

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def registry(self, hull: ConvexCell | None = None) -> DirectedHyperplaneRegistry:
        """The registry of facets(hull), built once per hull."""
        if hull not in self._registries:
            self._registries[hull] = build_registry(self, hull=hull)
        return self._registries[hull]

    def counts(self):
        """(H_interior, H_boundary, N_cells)."""
        reg = self.registry()
        return reg.interior_count, reg.boundary_count, self.n_cells

    def solve_facts(self):
        """The normal combination and Chebyshev ball of every non-simplex
        cell, and of the domain hull too unless no cell needs an LP, from
        one block LP; cells that have them already are skipped."""
        _solve_facts(self.cells, self.domain_hull)

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

    def vertex_sets(self) -> list:
        """Every cell's vertex_set(), the non-simplex cells' from stacked
        enumerations over all of them."""
        _fill_vertex_sets(self.cells)
        return [c.vertex_set() for c in self.cells]

    def bounding_box(self):
        """Min and max vertex coordinates, one reduction over every
        cell's vertex set."""
        V = np.concatenate(self.vertex_sets())
        return V.min(axis=0), V.max(axis=0)

    def tilings(self, epsilon: float = 0.0) -> list:
        """Every cell's simplices(epsilon), by one _tilings pass."""
        return _tilings(self.cells, epsilon)

    def volume(self) -> float:
        """Sum of the cell volumes in cell order; the simplex cells' come
        from one stacked determinant, the others' from their cached
        tilings."""
        simplex, V = self._simplex_stack()
        vols = np.zeros(self.n_cells)
        vols[simplex] = _simplex_volumes(V)
        tiles = _tilings([c for c, s in zip(self.cells, simplex) if not s], 0.0)
        vols[~simplex] = [np.sum(_simplex_volumes(t)) for t in tiles]
        return float(sum(vols.tolist()))

    def facets(self, hull: ConvexCell | None = None):
        """The stacked facet table (W, b, starts, tags) by whose rows every
        module numbers the mesh's facets: each cell's facets in cell order,
        cell c's from row starts[c], then the hull's as one last block when
        a hull is given. tags[r] is the (cell, facet) of row r, with cell
        -1 for the hull. Built once per hull, read-only."""
        if hull not in self._facets:
            blocks = self.cells + ([] if hull is None else [hull])
            sizes = [c.m for c in blocks]
            cell = np.repeat(np.arange(len(blocks)), sizes)
            starts = np.cumsum([0] + sizes[:-1])
            facet = np.arange(cell.size) - starts[cell]
            cell[cell == self.n_cells] = -1
            table = (np.vstack([c.W for c in blocks]),
                     np.concatenate([c.b for c in blocks]),
                     starts, np.column_stack([cell, facet]))
            for a in table:
                a.flags.writeable = False
            self._facets[hull] = table
        return self._facets[hull]

    def containing(self, X, tol=1e-12):
        """(first containing cell or -1, number of containing cells) per
        point; cell c contains x when ConvexCell.contains(x, tol) holds.
        By relufem._boxtree, over each cell's facets padded to one block."""
        if self._blocks is None:  # each cell's facets, padded with its first
            W, b, starts, _ = self.facets()
            ends = np.append(starts[1:], b.size)
            k = np.arange(np.max(ends - starts))[:, None]
            pad = np.where(starts + k < ends, starts + k, starts)
            self._blocks = np.ascontiguousarray(W[pad].transpose(2, 0, 1)), b[pad]
        return _boxtree.containing(np.atleast_2d(np.asarray(X, dtype=float)),
                                   *self._blocks, tol)

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
        dim = docio.as_int(docio.get(doc, "dimension"), "dimension")
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


@dataclass
class ValidationReport:
    """Outcome of the structural and Monte-Carlo mesh checks."""

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
    # the first unbounded cell is refused before any LP, then the facts of
    # every cell and the hull come from one LP, then the first empty cell
    # is refused
    for ci, cell in enumerate(mesh.cells):
        if not cell.is_bounded():
            raise MeshError(f"cell {ci} is unbounded")
    mesh.solve_facts()
    inradius = [cell.inradius() for cell in mesh.cells]
    for ci, r in enumerate(inradius):
        if not r > 1e-10:
            raise MeshError(f"cell {ci} has empty interior (inradius {r:.3e})")

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
        if in_hull.any():
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
