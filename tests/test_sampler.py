"""The one sampler (simplex tilings with exact Dirichlet draws) and the one
containment pass (`PolytopeMesh.containing`), against oracles kept here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull
from scipy.stats import kstest

from relufem.compiler import compile_weak_representation
from relufem.errors import MeshError
from relufem._boxtree import _corner_values
from relufem.mesh import (ConvexCell, PolytopeMesh, _affine, freudenthal_mesh,
                          sample_cells, sample_shrunk_domain)
from relufem.meshgen import (random_bounded_polytope, random_polygon_mesh,
                             random_simplex_mesh)
from relufem.pwl import nodal_linear
from relufem.verify import check_weak_representation

from oracles import halfspace_vertices
from test_cell_facts import slivers


def sliver_mesh():
    return PolytopeMesh(2, [
        ConvexCell.from_simplex([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
        ConvexCell.from_simplex([[0.0, 0.0], [1.0, 1.0], [1.0, 1.001]]),
    ])


def test_sliver_cell_gets_its_full_quota_and_passes():
    mesh = sliver_mesh()
    eps = 0.99 * mesh.cells[1].inradius()
    X, tags = sample_cells(mesh, 1000, seed=0, epsilon=eps)
    assert np.bincount(tags).tolist() == [1000, 1000]
    for ci, cell in enumerate(mesh.cells):
        assert np.all(cell.boundary_distance(X[tags == ci]) >= eps - 1e-12)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.random.default_rng(0).uniform(-1, 1, len(verts)))
    net = compile_weak_representation(mesh, v, eps)
    rep = check_weak_representation(net, v, mesh, eps, samples_per_cell=1000,
                                    seed=0)
    assert rep.interior_samples == 2000
    assert rep.passed, rep.as_text()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       fraction=st.sampled_from([0.0, 0.5, 0.99]))
def test_shrunk_polytope_samples_are_exact(n, seed, fraction):
    cell = random_bounded_polytope(n, 2 * n + 2, seed % 1000)
    eps = fraction * cell.inradius()
    X, tags = sample_cells(PolytopeMesh(n, [cell]), 300, seed, epsilon=eps)
    assert X.shape == (300, n)
    assert np.all(tags == 0)
    assert np.all(cell.boundary_distance(X) >= eps - 1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_box_samples_are_uniform(n):
    # a box is cut into several Delaunay tiles; uniform points of the box,
    # shrunk or not, have independent uniform coordinates
    box = ConvexCell(np.vstack([np.eye(n), -np.eye(n)]),
                     np.concatenate([np.zeros(n), [2.0] + [1.0] * (n - 1)]))
    for eps in (0.0, 0.25):
        X, _ = sample_cells(PolytopeMesh(n, [box]), 20000, seed=n, epsilon=eps)
        hi = np.array([2.0] + [1.0] * (n - 1)) - eps
        U = (X - eps) / (hi - eps)
        for d in range(n):
            assert kstest(U[:, d], "uniform").pvalue > 1e-4
        corner = np.mean(np.all(U < 0.5, axis=1))
        assert abs(corner - 0.5 ** n) < 5 * np.sqrt(0.5 ** n / len(U))


def test_samples_follow_tile_volumes():
    # Delaunay cuts this trapezoid into triangles of areas 2 and 0.5; the
    # strip x < 1 holds 1 of its area 2.5
    cell = ConvexCell([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, -3.0]],
                      [0.0, 0.0, 1.0, 4.0])
    X, _ = sample_cells(PolytopeMesh(2, [cell]), 20000, seed=4)
    assert abs(np.mean(X[:, 0] < 1.0) - 0.4) < 5 * np.sqrt(0.24 / len(X))


def test_cell_shrunk_just_past_its_inradius_gets_no_points():
    # 1e-10 past the inradius the shrunk cell is empty
    mesh = freudenthal_mesh(2, 1)
    eps = mesh.cells[0].inradius() + 1e-10
    assert len(mesh.cells[0].simplices(eps)) == 0
    X, tags = sample_cells(mesh, 10, seed=0, epsilon=eps)
    assert X.shape == (0, 2) and tags.size == 0


SLIVERS = slivers()
MESH_CELLS = freudenthal_mesh(3, 2).cells + random_simplex_mesh(2, 4, seed=6).cells


@pytest.mark.parametrize("fraction", [0.5, 0.99, 1.0 - 1e-12])
def test_shrunk_simplex_is_the_homothety_about_the_incentre(fraction):
    for cell in MESH_CELLS + SLIVERS:
        eps = fraction * cell.inradius()
        tiles = cell.simplices(eps)
        assert tiles.shape == (1, cell.dim + 1, cell.dim)
        size = np.max(np.abs(tiles[0]), axis=1)
        assert np.all(cell.boundary_distance(tiles[0]) >= eps - 1e-12 * size)
        # vertex j lies on every shrunk facet but the opposite one
        gap = np.abs(cell.facet_values(tiles[0]) / cell.norms - eps)
        off = ~np.eye(cell.dim + 1, dtype=bool)
        assert np.all(gap[off] <= 1e-12 * np.repeat(size, cell.dim))
        # nearer r, the oracle's merge tolerance collapses the vertices;
        # on the slivers its n-facet solves are ill-conditioned (3.5e-14
        # off a 50-digit solve, where the homothety is within 2.2e-16)
        if fraction < 0.999 and not any(cell is s for s in SLIVERS):
            want = halfspace_vertices(cell.W, cell.b - eps * cell.norms)
            assert len(want) == cell.dim + 1
            dist = np.max(np.abs(tiles[0][:, None] - want[None]), axis=2)
            assert np.all(dist.min(axis=1) <= 1e-14 * np.max(np.abs(want)))
            assert len(set(dist.argmin(axis=1))) == cell.dim + 1


def test_nan_epsilon_is_refused_where_a_negative_one_is():
    # NaN fails every comparison, so it must not pass as "no shrink"
    mesh = random_polygon_mesh(2)
    with pytest.raises(MeshError, match="^epsilon must be >= 0$"):
        sample_cells(mesh, 5, 0, np.nan)
    with pytest.raises(MeshError, match="^epsilon must be > 0$"):
        sample_shrunk_domain(mesh, np.nan, 10, 0)
    for cell in (mesh.cells[0], freudenthal_mesh(2, 1).cells[0]):
        for eps in (np.nan, -1e-3):
            with pytest.raises(MeshError, match="^epsilon must be >= 0$"):
                cell.shrink(eps)
            with pytest.raises(MeshError, match="^epsilon must be >= 0$"):
                cell.simplices(eps)


def test_simplex_shrunk_by_its_inradius_has_no_tiles():
    # the compiler's rule: a shrunk cell is empty unless r > eps
    for cell in MESH_CELLS + SLIVERS:
        assert cell.simplices(cell.inradius()).shape == (0, cell.dim + 1,
                                                         cell.dim)


def test_shrunk_domain_tiles_each_cell_once(monkeypatch):
    mesh = random_polygon_mesh(3, n_sites=8)
    calls = []
    tile = ConvexCell._tiling
    monkeypatch.setattr(ConvexCell, "_tiling",
                        lambda cell, eps, shrunk: calls.append(id(cell))
                        or tile(cell, eps, shrunk))
    X, tags = sample_shrunk_domain(mesh, 1e-3, 100, seed=0)
    assert sorted(calls) == sorted(id(c) for c in mesh.cells)
    assert X.shape == (100, 2) and np.all(np.bincount(tags) >= 12)


@pytest.mark.parametrize("n", [2, 3])
def test_thin_box_keeps_its_vertices_and_quota(n):
    # a 1 x 1e-9 box shrunk by 0.49e-9 has an interior 2e-11 wide: vertex
    # tolerances that follow the points' magnitude keep its shrunk
    # corners apart
    hi = np.ones(n)
    hi[-1] = 1e-9
    box = ConvexCell(np.vstack([np.eye(n), -np.eye(n)]),
                     np.concatenate([np.zeros(n), hi]))
    eps = 0.49e-9
    X, tags = sample_cells(PolytopeMesh(n, [box]), 50, seed=0, epsilon=eps)
    assert X.shape == (50, n) and np.all(tags == 0)
    assert np.all(box.shrink(eps).contains(X, tol=0.0))


def containing_oracle(mesh, X, tol):
    """(first, count) from one ConvexCell.contains call per cell."""
    first = -np.ones(len(X), dtype=int)
    count = np.zeros(len(X), dtype=int)
    for ci in reversed(range(mesh.n_cells)):
        inside = mesh.cells[ci].contains(X, tol=tol)
        first[inside] = ci
        count += inside
    return first, count


def square(lo, hi):
    return ConvexCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [-lo, hi, -lo, hi])


@pytest.mark.parametrize("mesh", [
    freudenthal_mesh(2, 3),
    random_polygon_mesh(2, n_sites=15),
    random_simplex_mesh(3, 2, seed=1),
    PolytopeMesh(2, [square(0.0, 1.0), square(0.0, 1.0), square(0.5, 2.0)]),
    freudenthal_mesh(1, 7),
    freudenthal_mesh(3, 6),
    freudenthal_mesh(4, 2),
    PolytopeMesh(3, [random_bounded_polytope(3, 9, seed=0)]),
    PolytopeMesh(2, [square(0.0, 1.0), ConvexCell([[1.0, 0.0]], [0.0])]),
], ids=["freudenthal", "voronoi", "jittered-3d", "overlapping-squares",
        "freudenthal-1d", "freudenthal-3d-deep", "freudenthal-4d", "one-cell",
        "square-and-halfplane"])
def test_containing_matches_per_cell_contains(mesh):
    # an unbounded cell holds some non-finite rows; the box is the others'
    bounded = [c for c in mesh.cells if c.is_bounded()]
    lo, hi = PolytopeMesh(mesh.dimension, bounded).bounding_box()
    n = mesh.dimension
    rng = np.random.default_rng(5)
    # meshes of hundreds of cells get fewer points, so that the per-cell
    # oracle stays quick
    big = mesh.n_cells > 200
    axes = [np.linspace(lo[d], hi[d], 5 if big else 13) for d in range(n)]
    grid = np.array(np.meshgrid(*axes, indexing="ij")).reshape(n, -1).T
    vertices = np.vstack([c.vertex_set() for c in bounded])
    if big:
        vertices = np.unique(vertices, axis=0)
    # non-finite rows, and one point 500 times (a box of zero span)
    odd = np.array([[np.inf] * n, [-np.inf] * n, [np.nan] * n,
                    [np.inf] + [0.5] * (n - 1), [np.nan] + [0.5] * (n - 1)])
    repeated = np.repeat(rng.uniform(lo, hi, (1, n)), 500, axis=0)
    # more random points than one chunk holds
    X = np.vstack([rng.uniform(lo - 0.2, hi + 0.2, (4000 if big else 20000, n)),
                   grid, vertices, odd, repeated])
    order = rng.permutation(len(X))
    X = X[order]
    # calls on all rows, none, one, and the repeated point alone
    parts = [np.arange(len(X)), order[:0], order[:1],
             np.flatnonzero(order >= len(X) - len(repeated))]
    for tol in (0.0, 1e-12, 1e-9, -1e-12):
        with np.errstate(invalid="ignore"):
            expect_first, expect_count = containing_oracle(mesh, X, tol)
        for rows in parts:
            with np.errstate(invalid="ignore"):
                first, count = mesh.containing(X[rows], tol)
                located = mesh.locate(X[rows], tol)
            np.testing.assert_array_equal(first, expect_first[rows])
            np.testing.assert_array_equal(count, expect_count[rows])
            np.testing.assert_array_equal(located, expect_first[rows])


weights = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]),
    st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corner_value_bounds_every_point_of_its_box(data):
    """The fact `containing` prunes by: _corner_values at a box's corner is
    not below _affine at any point of the box that could pass a test (not
    NaN or -inf), and on a one-point box it is _affine, bit for bit."""
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 6))
    W = np.array(data.draw(st.lists(weights, min_size=n * m, max_size=n * m)))
    b = np.array(data.draw(st.lists(weights, min_size=m, max_size=m)))
    W = W.reshape(m, n)
    # per coordinate, k point values between the box's lo and hi
    C = np.array(data.draw(st.lists(weights, min_size=n * (k + 2),
                                    max_size=n * (k + 2))))
    C = np.sort(C.reshape(n, k + 2), axis=1)
    lo, hi, X = C[:, :1], C[:, -1:], C[:, 1:-1].T
    with np.errstate(all="ignore"):
        corner = _corner_values(lo, hi, W.T, b)
        values = _affine(X, W, b)
        at_points = _corner_values(X.T[:, :, None], X.T[:, :, None], W.T[:, None], b)
    assert np.all(np.isnan(values) | (values == -np.inf) | (corner >= values))
    np.testing.assert_array_equal(at_points, values)
    np.testing.assert_array_equal(np.signbit(at_points), np.signbit(values))


def volume_cases():
    cells = [random_bounded_polytope(n, m, seed)
             for n, m in ((2, 7), (3, 9), (4, 11)) for seed in range(3)]
    cells += random_polygon_mesh(3, n_sites=10).cells
    cells += random_simplex_mesh(3, 1, seed=2).cells
    return cells


@pytest.mark.parametrize("cell", volume_cases())
def test_volume_matches_convex_hull(cell):
    assert cell.volume() == pytest.approx(
        ConvexHull(cell.vertex_set()).volume, rel=1e-12)
