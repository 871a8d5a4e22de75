"""Reproducible mesh generators: perturbed simplicial grids, clipped
Voronoi polygon meshes, random bounded polytopes, and two fixed showcase
meshes with hand-picked hyperplane/cell counts.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .errors import MeshError
from .mesh import (ConvexCell, PolytopeMesh, freudenthal_mesh, freudenthal_simplices,
                   unit_cube_hull, vertex_table_of)


def polygon_halfspaces(poly):
    """Inward halfspaces of a counterclockwise convex polygon."""
    poly = np.asarray(poly, dtype=float)
    k = len(poly)
    W = np.zeros((k, 2))
    b = np.zeros(k)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        d = q - p
        W[i] = (-d[1], d[0])
        b[i] = -W[i] @ p
    return W, b


def bisector_candidates(sites) -> list:
    """For each site, the ascending indices of the sites whose bisectors
    may bound its clipped Voronoi cell.

    These are its Delaunay neighbours: two Voronoi cells share an edge
    only across a Delaunay edge, and clipping only removes edges. When no
    triangulation holds every site (fewer than three, non-finite or
    collinear sites, or sites Qhull leaves out as coincident), every
    other site is a candidate.
    """
    k = len(sites)
    if k >= 3 and np.all(np.isfinite(sites)):
        try:
            tri = Delaunay(sites)
        except QhullError:
            tri = None
        if tri is not None and not len(tri.coplanar):
            start, neighbours = tri.vertex_neighbor_vertices
            return [np.sort(neighbours[start[i]:start[i + 1]]) for i in range(k)]
    return [np.delete(np.arange(k), i) for i in range(k)]


def voronoi_polygon_mesh(sites, boundary_polygon) -> PolytopeMesh:
    """Voronoi cells of the sites clipped to a convex polygon.

    Every cell is the intersection of the polygon with the bisector
    halfspaces against its candidate sites (`bisector_candidates`, in
    ascending order), pruned to its supporting facets, so the registry
    sees exactly the true facet hyperplanes. All cells are pruned by one
    stacked call (ConvexCell.prune_all).
    """
    sites = np.asarray(sites, dtype=float)
    hull_W, hull_b = polygon_halfspaces(boundary_polygon)
    # one dot product per site: a stacked sum of squares may round otherwise
    sq_norms = np.array([q @ q for q in sites])
    # one table of every cell's rows: the polygon's sides, then its bisectors
    W, b, sizes = [np.zeros((0, 2))], [np.zeros(0)], []
    for i, others in enumerate(bisector_candidates(sites)):
        W += [hull_W, 2.0 * (sites[i] - sites[others])]
        b += [hull_b, sq_norms[others] - sq_norms[i]]
        sizes.append(len(hull_b) + len(others))
    # each raw cell's site is its interior point, which its vertex set is
    # solved about
    cells = ConvexCell.from_table(np.vstack(W), np.concatenate(b), sizes, sites)
    return PolytopeMesh(2, ConvexCell.prune_all(cells),
                        domain_hull=ConvexCell(hull_W, hull_b))


def random_polygon_mesh(seed: int, n_sites: int | None = None) -> PolytopeMesh:
    """Clipped Voronoi mesh of random sites in the unit square."""
    rng = np.random.default_rng(seed)
    if n_sites is None:
        n_sites = int(rng.integers(6, 11))
    sites = rng.uniform(0.08, 0.92, size=(n_sites, 2))
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    return voronoi_polygon_mesh(sites, square)


def random_simplex_mesh(n: int, N: int, seed: int, jitter: float = 0.15
                        ) -> PolytopeMesh:
    """Perturbed simplicial grid on [0,1]^n.

    Grid vertices move by up to jitter/N, but only in coordinates not
    pinned to the box boundary, so the domain stays the unit cube and the
    boundary faces stay planar. The jitter is halved until every simplex
    is safely nondegenerate.
    """
    verts, cell_ids = vertex_table_of(freudenthal_simplices(n, N))
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-1.0, 1.0, size=verts.shape)
    free = (verts != 0.0) & (verts != 1.0)
    offsets[~free] = 0.0
    amount = jitter / N
    min_vol = 0.02 / np.prod([N] * n) if n else 0.0
    for _ in range(20):
        V = (verts + amount * offsets)[np.array(cell_ids)]
        if np.min(np.abs(np.linalg.det(V[:, 1:] - V[:, :1]))) >= min_vol:
            return PolytopeMesh(n, ConvexCell.from_simplices(V),
                                domain_hull=unit_cube_hull(n))
        amount *= 0.5
    raise MeshError("could not build a nondegenerate perturbed mesh")


def random_partition_mesh_1d(seed: int, n_cells: int = 4) -> PolytopeMesh:
    """Random partition of [0,1] into intervals (as 1D simplices)."""
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.uniform(0.1, 0.9, size=n_cells - 1))
    while np.any(np.diff(np.concatenate([[0.0], inner, [1.0]])) < 0.03):
        inner = np.sort(rng.uniform(0.1, 0.9, size=n_cells - 1))
    nodes = np.concatenate([[0.0], inner, [1.0]])
    cells = ConvexCell.from_simplices(
        np.stack([nodes[:-1], nodes[1:]], axis=1)[..., None])
    hull = ConvexCell([[1.0], [-1.0]], [0.0, 1.0])
    return PolytopeMesh(1, cells, domain_hull=hull)


def random_bounded_polytope(n: int, m: int, seed: int) -> ConvexCell:
    """Bounded polytope around a ball: m halfspaces u_i @ x <= r_i with
    outward directions u_i drawn until they positively span R^n.

    A direction probe prefilters candidates; boundedness is then confirmed
    by ConvexCell.is_bounded (the origin strictly inside the convex hull
    of the unit normals)."""
    rng = np.random.default_rng(seed)
    for _ in range(500):
        U = rng.standard_normal((m, n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        probes = rng.standard_normal((2048, n))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        # every escape direction must be blocked with a healthy margin
        if np.min((probes @ U.T).max(axis=1)) <= 0.05:
            continue
        r = rng.uniform(0.5, 1.5, size=m)
        cell = ConvexCell(-U, r)
        if cell.is_bounded():
            return cell
    raise MeshError(f"could not draw spanning directions for n={n}, m={m}")


# 18-cell clipped Voronoi mesh of a convex pentagon whose directed
# hyperplane registry counts come out at exactly 24 interior and 5
# boundary lines. Coordinates were found by search and are frozen.
_PENTAGON = np.array([
    [0.20, 0.00],
    [3.20, 0.10],
    [3.60, 2.20],
    [1.60, 3.30],
    [-0.40, 1.90],
])

_PENTAGON_SITES = np.array([
    [0.1203546487410077, 1.0],
    [0.34065676803263517, 1.0],
    [0.5236105026673032, 1.0],
    [0.7548880548426887, 1.0],
    [0.9429263721317431, 1.0],
    [1.153414079183463, 1.0],
    [1.3726882206717563, 1.0],
    [1.5672759740910747, 1.0],
    [1.778630667773049, 1.0],
    [1.970112487683006, 1.0],
    [2.1990339646888155, 1.0],
    [2.399715727968007, 1.0],
    [2.6006062372092584, 1.0],
    [2.821510003959995, 1.0],
    [3.0140958448787494, 1.0],
    [0.5217504182465293, 0.9641446671559546],
    [1.626806901653552, 0.9652552838508184],
    [2.6131891475020064, 0.9740058347620808],
])


def demo_polygon_mesh() -> PolytopeMesh:
    """Pentagon split into 18 convex polygons: 24 interior lines, 5
    boundary lines, so a compiled net has layer sizes (53, 19)."""
    return voronoi_polygon_mesh(_PENTAGON_SITES, _PENTAGON)


def demo_simplex_mesh() -> PolytopeMesh:
    """Square split into 32 triangles: 13 interior lines, 4 boundary
    lines, so a compiled net has layer sizes (30, 33)."""
    return freudenthal_mesh(2, 4)
