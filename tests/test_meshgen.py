from functools import partial

import numpy as np
import pytest
from scipy.spatial import Delaunay

from relufem import docio, meshgen
from relufem.errors import MeshError
from relufem.mesh import ConvexCell, freudenthal_mesh, validate_mesh
from relufem.meshgen import (bisector_candidates, demo_polygon_mesh,
                             demo_simplex_mesh, polygon_halfspaces,
                             random_bounded_polytope,
                             random_partition_mesh_1d, random_polygon_mesh,
                             random_simplex_mesh, voronoi_polygon_mesh)

import oracles


def test_demo_polygon_mesh_counts():
    mesh = demo_polygon_mesh()
    assert mesh.n_cells == 18
    assert mesh.counts() == (24, 5, 18)
    assert mesh.domain_hull is not None


def test_demo_polygon_mesh_is_valid():
    report = validate_mesh(demo_polygon_mesh(), samples=30000, seed=0)
    assert report.ok, report.issues


def test_demo_simplex_mesh_counts():
    mesh = demo_simplex_mesh()
    assert mesh.n_cells == 32
    assert mesh.counts() == (13, 4, 32)


@pytest.mark.parametrize("n,N", [(1, 5), (2, 3), (3, 2), (4, 2)])
def test_unjittered_simplex_mesh_is_the_freudenthal_mesh(n, N):
    mesh = random_simplex_mesh(n, N, seed=3, jitter=0.0)
    assert docio.dumps(mesh.to_doc()) == docio.dumps(freudenthal_mesh(n, N).to_doc())


@pytest.mark.parametrize("n,N", [(1, 4), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_random_simplex_mesh_valid(n, N):
    mesh = random_simplex_mesh(n, N, seed=42)
    assert mesh.is_simplicial()
    assert mesh.n_cells == N ** n * int(np.prod(range(1, n + 1)))
    assert mesh.domain_hull is not None
    report = validate_mesh(mesh, samples=20000, seed=0)
    assert report.ok, report.issues
    # boundary count survives the perturbation (faces stay planar)
    _, hb, _ = mesh.counts()
    assert hb == 2 * n


def test_random_simplex_mesh_deterministic():
    a = random_simplex_mesh(2, 2, seed=5)
    b = random_simplex_mesh(2, 2, seed=5)
    assert a.content_hash() == b.content_hash()
    c = random_simplex_mesh(2, 2, seed=6)
    assert a.content_hash() != c.content_hash()


def test_random_polygon_mesh_valid():
    mesh = random_polygon_mesh(11)
    report = validate_mesh(mesh, samples=20000, seed=0)
    assert report.ok, report.issues
    assert all(cell.m >= 3 for cell in mesh.cells)
    hi, hb, nt = mesh.counts()
    assert hb == 4  # clipped to the unit square
    assert nt == mesh.n_cells


def test_voronoi_cells_partition_area():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    sites = np.array([[0.25, 0.5], [0.75, 0.5], [0.5, 0.1]])
    mesh = voronoi_polygon_mesh(sites, square)
    assert mesh.n_cells == 3
    assert mesh.volume() == pytest.approx(1.0, abs=1e-9)


def test_random_partition_mesh_1d():
    mesh = random_partition_mesh_1d(3, n_cells=5)
    assert mesh.n_cells == 5
    assert mesh.volume() == pytest.approx(1.0, abs=1e-12)
    hi, hb, _ = mesh.counts()
    assert (hi, hb) == (4, 2)


def test_random_bounded_polytope_properties():
    for i, n in enumerate((2, 2, 3, 3)):
        cell = random_bounded_polytope(n, n + 2, seed=100 + i)
        assert cell.is_bounded()
        assert cell.inradius() > 0.1
        assert cell.m == n + 2


# --- clipped Voronoi cells from Delaunay neighbours ---------------------------

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def mesh_bytes(build):
    """The document bytes of the mesh build() returns, or the message of
    the MeshError it raises."""
    try:
        return docio.dumps(build().to_doc())
    except MeshError as err:
        return f"MeshError: {err}"


GENERATED = {
    "demo": demo_polygon_mesh,
    **{f"seed {s}": partial(random_polygon_mesh, s) for s in range(30)},
    **{f"20 sites, seed {s}": partial(random_polygon_mesh, s, n_sites=20)
       for s in range(5)},
}


@pytest.mark.parametrize("name", GENERATED)
def test_generated_voronoi_mesh_equals_the_all_sites_reference(name, monkeypatch):
    made = mesh_bytes(GENERATED[name])
    monkeypatch.setattr(meshgen, "voronoi_polygon_mesh",
                        oracles.voronoi_polygon_mesh)
    assert made == mesh_bytes(GENERATED[name])
    assert not made.startswith("MeshError")


_GRID = np.linspace(0.1, 0.9, 5)
_HEXAGON = 0.5 + 0.3 * np.stack([np.cos(np.arange(6) * np.pi / 3),
                                 np.sin(np.arange(6) * np.pi / 3)], axis=1)

SITES = {
    # name: (sites, True if each site's candidates are its Delaunay
    # neighbours, False if they are every other site, None if not pinned)
    "cocircular grid": (np.stack(np.meshgrid(_GRID, _GRID), -1).reshape(-1, 2), True),
    "hexagon and centre": (np.vstack([_HEXAGON, [[0.5, 0.5]]]), True),
    "sites outside the square": (
        [[-0.2, 0.5], [0.3, 1.1], [0.5, 0.5], [1.15, 0.2], [0.7, 0.8]], True),
    "2 sites": ([[0.3, 0.4], [0.7, 0.6]], False),
    "3 sites": ([[0.2, 0.2], [0.8, 0.3], [0.4, 0.9]], True),
    "collinear sites": ([[0.1 + 0.2 * k, 0.5] for k in range(5)], False),
    "3 collinear sites": ([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]], False),
    "duplicate site": ([[0.2, 0.2], [0.8, 0.3], [0.4, 0.9], [0.8, 0.3]], False),
    "sites 1e-14 apart": (
        [[0.2, 0.2], [0.8, 0.3], [0.4, 0.9], [0.4, 0.9 + 1e-14]], None),
}


@pytest.mark.parametrize("name", SITES)
def test_voronoi_mesh_equals_the_all_sites_reference(name):
    sites, _ = SITES[name]
    assert (mesh_bytes(lambda: voronoi_polygon_mesh(sites, SQUARE))
            == mesh_bytes(lambda: oracles.voronoi_polygon_mesh(sites, SQUARE)))


def test_chebyshev_centres_are_inside_cells_with_a_tiny_row():
    """Sites 1e-14 apart give cells 2 and 3 a bisector row of norm 2e-14.
    The block LP's unit rows keep every centre strictly inside its cell,
    and cell 3, at most 0.1 tall, has inradius 0.05."""
    sites, _ = SITES["sites 1e-14 apart"]
    mesh = oracles.voronoi_polygon_mesh(sites, SQUARE)
    mesh.solve_facts()
    for cell in mesh.cells:
        assert np.all(cell.facet_values(cell.chebyshev()[0]) / cell.norms > 0)
    assert mesh.cells[3].inradius() == pytest.approx(0.05, abs=1e-12)


def test_duplicate_sites_are_refused():
    sites, _ = SITES["duplicate site"]
    with pytest.raises(MeshError, match="zero facet normal"):
        voronoi_polygon_mesh(sites, SQUARE)


@pytest.mark.parametrize("name", SITES)
def test_degenerate_sites_get_every_other_site(name):
    """Sites no triangulation holds get every other site as a candidate,
    never an empty neighbour list."""
    sites, neighbours_only = SITES[name]
    sites = np.asarray(sites, dtype=float)
    k = len(sites)
    got = bisector_candidates(sites)
    assert all(np.all(np.diff(c) > 0) and i not in c for i, c in enumerate(got))
    if neighbours_only is False:
        assert all(len(c) == k - 1 for c in got)
    if neighbours_only:
        start, nb = Delaunay(sites).vertex_neighbor_vertices
        assert all(np.array_equal(c, np.sort(nb[start[i]:start[i + 1]]))
                   for i, c in enumerate(got))


def test_large_voronoi_mesh_is_valid_and_cells_get_only_neighbour_rows(monkeypatch):
    sites = np.random.default_rng(500).uniform(0.08, 0.92, size=(500, 2))
    handed = []
    prune = ConvexCell.prune_all

    def spy(cells):
        handed.extend(cell.m for cell in cells)
        return prune(cells)

    monkeypatch.setattr(ConvexCell, "prune_all", staticmethod(spy))
    mesh = voronoi_polygon_mesh(sites, SQUARE)
    start, _ = Delaunay(sites).vertex_neighbor_vertices
    assert handed == list(len(SQUARE) + np.diff(start))
    assert mesh.n_cells == 500
    assert mesh.volume() == pytest.approx(1.0, abs=1e-9)
    report = validate_mesh(mesh, samples=20000, seed=0)
    assert report.ok, report.issues


def test_a_row_that_supports_no_facet_shadows_no_row():
    """Sites 1e-9 apart give another cell two near-parallel bisectors; the
    tighter one supports no facet, and pruning once dropped both, so cell 3
    grew from 0.1066 to 0.1323 and the cells summed to 1.0258."""
    sites = np.random.default_rng(24).uniform(0.1, 0.9, (8, 2))
    sites = np.vstack([sites, sites[0] + [1e-9, 0.0]])
    mesh = voronoi_polygon_mesh(sites, SQUARE)
    p, others = sites[3], np.delete(sites, 3, axis=0)
    W, b = polygon_halfspaces(SQUARE)
    unpruned = ConvexCell(np.vstack([W, 2.0 * (p - others)]),
                          np.concatenate([b, np.sum(others ** 2, axis=1) - p @ p]))
    assert mesh.cells[3].volume() == pytest.approx(unpruned.volume(), rel=1e-12)
    assert mesh.cells[3].volume() == pytest.approx(0.10657, abs=1e-5)
    assert mesh.volume() == pytest.approx(1.0, rel=1e-12)
    report = validate_mesh(mesh, samples=20000, seed=0)
    assert report.ok, report.issues
