import numpy as np
import pytest

from relufem import docio
from relufem.mesh import freudenthal_mesh, validate_mesh
from relufem.meshgen import (demo_polygon_mesh, demo_simplex_mesh,
                             random_bounded_polytope, random_partition_mesh_1d,
                             random_polygon_mesh, random_simplex_mesh,
                             voronoi_polygon_mesh)


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
