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
from .errors import DocumentError, MeshError

DEDUP_TOL = 1e-9
VERTEX_RTOL = 1e-12  # feasibility and coincidence, relative to max|x_j|

# containment tests and the vertex merge run in point chunks so each
# temporary holds about this many floats
CHUNK_ELEMENTS = 2 ** 18

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
    """X @ W.T + b summed coordinate by coordinate, so an entry has the same
    bits whatever batch or facet stack it is computed in."""
    out = X[:, :1] * W[:, 0]
    for d in range(1, W.shape[1]):
        out += X[:, d:d + 1] * W[:, d]
    out += b
    return out


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


class ConvexCell:
    """Closed convex polytope given by facet normals W and offsets b.

    The cell is {x : W @ x + b >= 0}. Simplex cells keep their vertex
    array as well, which enables nodal interpolation.

    A cell caches three facts: the Chebyshev ball, a strictly positive
    combination of the facet normals summing to zero, and the vertex set.
    On a simplex (`is_simplex`) the first two have closed forms; on any
    other cell each costs one linear program. The vertex set (given for a
    simplex, else from n-facet intersections) answers every other
    question, boundedness and pruning included. Volumes and samples come
    from a tiling of the (shrunk) cell by simplices.
    """

    def __init__(self, W, b, vertices=None):
        self.W = np.atleast_2d(np.asarray(W, dtype=float))
        self.b = np.asarray(b, dtype=float).reshape(-1)
        if self.W.shape[0] != self.b.shape[0]:
            raise MeshError("normal/offset count mismatch")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise MeshError("cell halfspace data must be finite")
        norms = np.linalg.norm(self.W, axis=1)
        if np.any(norms <= 0.0):
            raise MeshError("cell has a zero facet normal")
        self.norms = norms
        self.vertices = None if vertices is None else np.asarray(vertices, dtype=float)
        self._cheb = None
        self._lam = _UNSET
        self._bounded = None
        self._vertex_set = None

    @classmethod
    def from_halfspaces(cls, halfspaces):
        W = np.array([h.normal for h in halfspaces], dtype=float)
        b = np.array([h.offset for h in halfspaces], dtype=float)
        return cls(W, b)

    @classmethod
    def from_simplex(cls, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        return cls.from_simplices(V[None])[0]

    @classmethod
    def from_simplices(cls, V, names=None):
        """One simplex cell per (n+1, n) vertex array of the stack V, all
        from one derivation; errors name simplex i names[i] (default
        "cell i")."""
        W, b = _simplex_halfspaces(V, names)
        return [cls(W[i], b[i], vertices=V[i]) for i in range(len(V))]

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

    @property
    def halfspaces(self):
        return [Halfspace(self.W[i].copy(), self.b[i]) for i in range(self.m)]

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
        if self._cheb is None:
            if self.is_simplex:
                self._simplex_facts()
            else:
                res = lp.chebyshev_center(self.W, self.b)
                if res is None:
                    raise MeshError("Chebyshev LP failed (cell unbounded or malformed)")
                self._cheb = res
        return self._cheb

    def inradius(self) -> float:
        return float(self.chebyshev()[1])

    def normal_combination(self):
        """lambda >= 1 with sum_i lambda_i w_i = 0, or None when none exists."""
        if self._lam is _UNSET:
            if self.is_simplex:
                self._simplex_facts()
            else:
                self._lam = lp.positive_combination(self.W)
        return self._lam

    def _simplex_facts(self):
        """Both LP facts in closed form. h_i, facet i's largest value over
        the vertices, is its value at the opposite vertex v_i, and the
        barycentric coordinates h_i(x) / h_i sum to 1. So lambda = max(h) / h
        (min 1, as the LP pins it), r = 1 / sum_i |w_i| / h_i, and the
        incentre is r sum_i (|w_i| / h_i) v_i."""
        H = self.facet_values(self.vertices)  # (vertex, facet)
        opposite = np.argmax(H, axis=0)
        h = H[opposite, np.arange(self.m)]
        if not np.all(h > 0.0):
            raise MeshError("degenerate simplex (flat)")
        g = self.norms / h
        r = 1.0 / np.sum(g)
        self._lam = np.max(h) / h
        self._cheb = (r * (g @ self.vertices[opposite]), r)

    def is_bounded(self) -> bool:
        """Bounded iff the normals have full rank and no d != 0 has
        W d >= 0: {d : W d >= 0, |d|_inf <= 1} has no vertex but the origin
        (any other has some |d_j| = 1). A simplex that has its combination
        is not flat, so it is bounded."""
        if self._bounded is None and self.is_simplex:
            self._bounded = self.normal_combination() is not None
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

        A cell with n+1 vertices is a simplex and shrinks to one; any other
        cell is tiled by a Delaunay triangulation of its shrunk vertex set.
        An empty shrunk cell, one whose vertex mean is not strictly inside
        it, gives k = 0.
        """
        V = self.vertex_set()
        n = self.dim
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
        those whose tight vertices span an (n-1)-flat, and of rows whose
        unit normals agree within tol only the one with the smallest unit
        offset (the first on a tie)."""
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
        keep = supports & ~(same & (place[None] < place[:, None])).any(axis=1)
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

    def is_simplicial(self) -> bool:
        return all(c.is_simplex for c in self.cells)

    def vertex_table(self):
        """Global vertex array plus per-cell vertex indices (simplicial meshes).

        Vertices are matched exactly (bit for bit); generators and the file
        round trip produce identical floats for shared vertices.
        """
        if self._vertex_table is None:
            if not self.is_simplicial():
                raise MeshError("vertex table requires a simplicial mesh")
            index: dict[bytes, int] = {}
            verts: list[np.ndarray] = []
            cell_ids = []
            for c in self.cells:
                ids = []
                for v in c.vertices:
                    key = v.tobytes()
                    if key not in index:
                        index[key] = len(verts)
                        verts.append(v.copy())
                    ids.append(index[key])
                cell_ids.append(ids)
            self._vertex_table = (np.array(verts), cell_ids)
        return self._vertex_table

    def bounding_box(self):
        los, his = zip(*(c.bounding_box() for c in self.cells))
        return np.min(los, axis=0), np.max(his, axis=0)

    def volume(self) -> float:
        return float(sum(c.volume() for c in self.cells))

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
        point; cell c contains x when ConvexCell.contains(x, tol) holds."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        W, b, starts, _ = self.facets()
        first = np.empty(X.shape[0], dtype=int)
        count = np.empty(X.shape[0], dtype=int)
        step = max(1, CHUNK_ELEMENTS // len(b))
        for lo in range(0, X.shape[0], step):
            vals = _affine(X[lo:lo + step], W, b)
            inside = np.minimum.reduceat(vals, starts, axis=1) >= -tol
            count[lo:lo + step] = inside.sum(axis=1)
            first[lo:lo + step] = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
        return first, count

    def locate(self, X, tol=1e-12):
        """First containing cell index per point, -1 when outside the mesh."""
        return self.containing(X, tol)[0]

    def to_doc(self) -> dict:
        doc = {
            "dimension": self.dimension,
            "cells": [c.to_doc() for c in self.cells],
        }
        if self.domain_hull is not None:
            hull_doc = self.domain_hull.to_doc()
            if "vertices" in hull_doc:
                hull_doc = {
                    "halfspaces": [
                        {"w": self.domain_hull.W[i], "b": self.domain_hull.b[i]}
                        for i in range(self.domain_hull.m)
                    ]
                }
            doc["domain_hull"] = hull_doc
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
        return hashlib.sha256(docio.dumps(self.to_doc()).encode()).hexdigest()


def freudenthal_mesh(n: int, N: int) -> PolytopeMesh:
    """Standard simplicial mesh of [0,1]^n with grid step 1/N.

    Every grid subcube is split into n! simplices, one per coordinate
    ordering; the mesh has N^n * n! cells.
    """
    if n < 1 or N < 1:
        raise MeshError("freudenthal_mesh requires n >= 1 and N >= 1")
    # corner of each subcube, then per coordinate ordering sigma the walk
    # that steps +1 along sigma[0], ..., sigma[n-1]
    corners = np.array(list(itertools.product(range(N), repeat=n)), dtype=int)
    steps = np.eye(n, dtype=int)[list(itertools.permutations(range(n)))]
    walks = np.cumsum(np.pad(steps, ((0, 0), (1, 0), (0, 0))), axis=1)
    V = (corners[:, None, None] + walks[None]).reshape(-1, n + 1, n) / N
    cells = ConvexCell.from_simplices(V)
    hull_W = np.vstack([np.eye(n), -np.eye(n)])
    hull_b = np.concatenate([np.zeros(n), np.ones(n)])
    hull = ConvexCell(hull_W, hull_b)
    return PolytopeMesh(n, cells, domain_hull=hull)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in stream))
    return np.random.Generator(np.random.Philox(ss))


def _sample(mesh: PolytopeMesh, epsilon: float, quotas, rng: np.random.Generator):
    """quotas[c] uniform points of each epsilon-shrunk cell c, tagged by cell.

    Exact, with no rejection: each point picks a tile of its cell with
    probability proportional to the tile's volume, then barycentric weights
    from normalised exponentials, which are uniform on a simplex (Devroye
    1986, ch. XI). A cell whose shrunk interior is empty gets no points.
    """
    n = mesh.dimension
    tiles = [cell.simplices(epsilon) if q else np.zeros((0, n + 1, n))
             for cell, q in zip(mesh.cells, quotas)]
    k = np.array([len(t) for t in tiles], dtype=int)
    tags = np.repeat(np.arange(mesh.n_cells), np.where(k > 0, quotas, 0))
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
    alive = [ci for ci, c in enumerate(mesh.cells) if len(c.simplices(epsilon))]
    if not alive:
        raise MeshError("epsilon too large: every shrunk cell is empty")
    base, extra = divmod(count, len(alive))
    quotas = np.zeros(mesh.n_cells, dtype=int)
    quotas[alive] = base + (np.arange(len(alive)) < extra)
    return _sample(mesh, epsilon, quotas, _rng(seed, 0))


def sample_cells(mesh: PolytopeMesh, per_cell: int, seed: int, epsilon: float = 0.0):
    """Per-cell uniform samples (optionally of the shrunk cells), tagged;
    per_cell points in every cell whose shrunk interior is non-empty."""
    return _sample(mesh, epsilon, [per_cell] * mesh.n_cells, _rng(seed, 0))


def sample_mesh(mesh: PolytopeMesh, count: int, seed: int) -> np.ndarray:
    """count uniform points of the whole mesh: cell counts drawn
    multinomially by cell volume, then sampled cell by cell."""
    rng = _rng(seed, 77)
    vols = np.array([c.volume() for c in mesh.cells])
    return _sample(mesh, 0.0, rng.multinomial(count, vols / vols.sum()), rng)[0]


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


def validate_mesh(mesh: PolytopeMesh, samples: int = 100_000, seed: int = 0
                  ) -> ValidationReport:
    """Check boundedness, nonempty interiors, disjointness and coverage.

    Unbounded or empty-interior cells raise MeshError naming the cell;
    overlap/coverage findings are reported for the caller to judge.
    """
    if samples < 1:
        raise MeshError("samples must be >= 1")
    bounded = []
    inradius = []
    for ci, cell in enumerate(mesh.cells):
        if not cell.is_bounded():
            raise MeshError(f"cell {ci} is unbounded")
        bounded.append(True)
        r = cell.inradius()
        if not r > 1e-10:
            raise MeshError(f"cell {ci} has empty interior (inradius {r:.3e})")
        inradius.append(r)

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
    return min(cell.inradius() for cell in mesh.cells)
