import numpy as np
import pytest

import oracles
from relufem import docio
from relufem.compiler import compile_weak_representation
from relufem.errors import DocumentError, MeshError
from relufem.mesh import (ConvexCell, PolytopeMesh, _simplex_halfspaces,
                          build_registry, freudenthal_mesh,
                          sample_shrunk_domain, shrink_cell, validate_mesh)
from relufem.meshgen import (demo_polygon_mesh, random_polygon_mesh,
                             random_simplex_mesh, voronoi_polygon_mesh)
from relufem.networks import serialize
from relufem.pwl import nodal_linear


def unit_square_cell():
    W = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([0.0, 1.0, 0.0, 1.0])
    return ConvexCell(W, b)


def interval_cell(a=0.0, b=1.0):
    return ConvexCell([[1.0], [-1.0]], [-a, b])


def test_unit_square_mesh_valid():
    mesh = PolytopeMesh(2, [unit_square_cell()])
    report = validate_mesh(mesh, samples=5000, seed=0)
    assert report.ok
    assert report.inradius[0] == pytest.approx(0.5, abs=1e-9)


def test_halfline_is_rejected():
    mesh = PolytopeMesh(1, [ConvexCell([[1.0]], [0.0])])
    with pytest.raises(MeshError, match="cell 0"):
        validate_mesh(mesh, samples=100, seed=0)


def test_identical_cells_report_overlap():
    mesh = PolytopeMesh(2, [unit_square_cell(), unit_square_cell()])
    report = validate_mesh(mesh, samples=20000, seed=0)
    assert not report.ok
    assert any("overlap" in issue for issue in report.issues)
    assert report.overlap_fraction > 0.9


def box_cell(lo, hi):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = lo.size
    return ConvexCell(np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([-lo, hi]))


@pytest.mark.parametrize("split", [0.5 + 1e-3, 0.5 - 1e-3], ids=["overlap", "gap"])
def test_cells_missing_the_hull_volume_are_reported(split):
    """Two boxes that overlap or leave a gap on 0.1% of the square: sampling
    misses it, the summed volumes against the hull's do not."""
    cells = [box_cell([0.0, 0.0], [split, 1.0]), box_cell([0.5, 0.0], [1.0, 1.0])]
    mesh = PolytopeMesh(2, cells, domain_hull=box_cell([0.0, 0.0], [1.0, 1.0]))
    report = validate_mesh(mesh, samples=200_000, seed=0)
    assert report.issues == [
        f"summed cell volumes {mesh.volume():.12g} vs domain hull volume 1"]


@pytest.mark.parametrize("W, b", [([[1.0, 0.0]], [0.0]),
                                  ([[1.0, 0.0], [1.0, 1.0]], [0.0, 0.0])],
                         ids=["halfplane", "wedge"])
def test_unbounded_hull_is_reported(W, b):
    mesh = PolytopeMesh(2, [unit_square_cell()], domain_hull=ConvexCell(W, b))
    report = validate_mesh(mesh, samples=2000, seed=0)
    assert report.issues == ["summed cell volumes 1 vs domain hull volume inf"]


def test_near_coincident_site_overlap_is_reported():
    """The mesh an earlier pruning rule made from 13 sites, two of them 1e-9
    apart: site 0's cell was cut as if that pair were absent, so it overlaps
    its neighbours on 0.14% of the square and the volumes sum to 1.00137."""
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    sites = np.random.default_rng(18).uniform(0.1, 0.9, (12, 2))
    sites = np.vstack([sites, sites[3] + 1e-9 * np.array([np.cos(2.3606),
                                                          np.sin(2.3606)])])
    mesh = voronoi_polygon_mesh(sites, square)
    assert validate_mesh(mesh, samples=20000, seed=0).ok
    grown = voronoi_polygon_mesh(np.delete(sites, [3, 12], axis=0), square).cells[0]
    bad = PolytopeMesh(2, [grown] + mesh.cells[1:], domain_hull=mesh.domain_hull)
    assert bad.volume() == pytest.approx(1.00137, abs=1e-5)
    report = validate_mesh(bad, samples=200_000, seed=0)
    assert report.issues == [
        f"summed cell volumes {bad.volume():.12g} vs domain hull volume 1"]


@pytest.mark.parametrize("mesh", [
    demo_polygon_mesh(), *(random_polygon_mesh(s) for s in range(5)),
    freudenthal_mesh(2, 4), freudenthal_mesh(3, 3), random_simplex_mesh(3, 2, 1)])
def test_generated_meshes_fill_their_hull(mesh):
    hull = mesh.domain_hull.volume()
    assert abs(mesh.volume() - hull) <= 1e-13 * hull
    report = validate_mesh(mesh, samples=2000, seed=0)
    assert report.ok, report.issues


def test_shrink_interval():
    cell = interval_cell()
    shrunk = shrink_cell(cell, 0.1)
    np.testing.assert_allclose(shrunk.b, [-0.1, 0.9], atol=1e-15)
    np.testing.assert_array_equal(shrunk.W, cell.W)


def test_shrink_zero_is_identity():
    cell = unit_square_cell()
    shrunk = shrink_cell(cell, 0.0)
    np.testing.assert_array_equal(shrunk.b, cell.b)


def test_shrink_square_quarter():
    # offsets drop by eps*|w| per facet: [0,1]^2 -> [0.25, 0.75]^2
    shrunk = shrink_cell(unit_square_cell(), 0.25)
    np.testing.assert_allclose(shrunk.b, [-0.25, 0.75, -0.25, 0.75], atol=1e-15)
    lo, hi = shrunk.bounding_box()
    np.testing.assert_allclose(lo, [0.25, 0.25], atol=1e-9)
    np.testing.assert_allclose(hi, [0.75, 0.75], atol=1e-9)


def test_shrink_negative_epsilon_rejected():
    with pytest.raises(MeshError):
        shrink_cell(unit_square_cell(), -0.1)


def test_registry_single_square():
    mesh = PolytopeMesh(2, [unit_square_cell()])
    reg = build_registry(mesh)
    assert reg.size == 4
    assert (reg.interior_count, reg.boundary_count) == (0, 4)


def test_registry_split_interval():
    # [0,1] split at 0.5: four directed entries, one interior line
    mesh = PolytopeMesh(1, [interval_cell(0.0, 0.5), interval_cell(0.5, 1.0)])
    reg = build_registry(mesh)
    assert reg.size == 4
    assert (reg.interior_count, reg.boundary_count) == (1, 2)
    assert reg.size == 2 * reg.interior_count + reg.boundary_count


def test_registry_freudenthal_2_2():
    reg = build_registry(freudenthal_mesh(2, 2))
    assert (reg.interior_count, reg.boundary_count) == (5, 4)
    assert reg.size == 14


def test_registry_merges_positive_multiple():
    # second square sits above the first; its left facet is stored doubled
    lower = unit_square_cell()
    upper = ConvexCell(
        [[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [0.0, 1.0, -1.0, 2.0])
    mesh = PolytopeMesh(2, [lower, upper])
    reg = build_registry(mesh)
    key_lower = reg.entry[reg.starts[0] + 0]
    key_upper = reg.entry[reg.starts[1] + 0]
    assert key_lower == key_upper
    assert reg.scale[reg.starts[0] + 0] == 1.0
    assert reg.scale[reg.starts[1] + 0] == pytest.approx(2.0, rel=1e-12)


def test_registry_with_hull_adds_only_new_facets():
    mesh = freudenthal_mesh(2, 2)
    # the unit-square hull repeats the four boundary facets
    assert build_registry(mesh, hull=mesh.domain_hull).size == mesh.registry().size
    bigger = ConvexCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                        [1.0, 2.0, 1.0, 2.0])
    reg = build_registry(mesh, hull=bigger)
    assert reg.size == mesh.registry().size + 4
    assert reg.entry[reg.starts[-1] + 0] >= mesh.registry().size


def test_registry_idempotent():
    mesh = freudenthal_mesh(2, 3)
    first = mesh.registry()
    counts1 = (first.interior_count, first.boundary_count, first.size)
    second = build_registry(mesh)
    assert counts1 == (second.interior_count, second.boundary_count, second.size)


@pytest.mark.parametrize("n,N,cells,hi,hb", [
    (1, 3, 3, 2, 2),
    (2, 2, 8, 5, 4),
    (3, 1, 6, 3, 6),
])
def test_freudenthal_counts(n, N, cells, hi, hb):
    mesh = freudenthal_mesh(n, N)
    assert mesh.n_cells == cells
    assert mesh.counts() == (hi, hb, cells)


@pytest.mark.parametrize("n,N", [(1, 5), (2, 3), (3, 2)])
def test_freudenthal_volume_sums_to_one(n, N):
    mesh = freudenthal_mesh(n, N)
    assert mesh.volume() == pytest.approx(1.0, abs=1e-9)


def test_stacked_volume_and_box_equal_the_per_cell_values():
    """PolytopeMesh.volume and bounding_box take the simplex cells' values
    from one stacked pass; they match the per-cell values bit for bit."""
    cells = (random_simplex_mesh(2, 3, seed=4).cells[:7]
             + random_polygon_mesh(5, n_sites=6).cells
             + random_simplex_mesh(2, 2, seed=1).cells[3:])
    cells[-1] = ConvexCell.from_simplex(cells[-1].vertices - 2.0)
    mesh = PolytopeMesh(2, cells)
    assert 0 < sum(c.is_simplex for c in cells) < len(cells)
    assert mesh.volume() == float(sum(c.volume() for c in cells))
    los, his = zip(*(c.bounding_box() for c in cells))
    lo, hi = mesh.bounding_box()
    assert lo.tobytes() == np.min(los, axis=0).tobytes()
    assert hi.tobytes() == np.max(his, axis=0).tobytes()


def test_freudenthal_bad_args():
    with pytest.raises(MeshError):
        freudenthal_mesh(0, 2)
    with pytest.raises(MeshError):
        freudenthal_mesh(2, 0)


def test_registry_count_identity_holds_everywhere():
    for mesh in (freudenthal_mesh(1, 4), freudenthal_mesh(2, 2),
                 freudenthal_mesh(3, 2)):
        reg = mesh.registry()
        assert reg.size == 2 * reg.interior_count + reg.boundary_count
        undirected = set(reg.undirected.tolist())
        assert len(undirected) == reg.interior_count + reg.boundary_count


def test_sample_shrunk_interval():
    mesh = PolytopeMesh(1, [interval_cell()])
    pts, tags = sample_shrunk_domain(mesh, 0.4, 200, seed=3)
    assert pts.shape == (200, 1)
    assert np.all(pts >= 0.4 - 1e-12) and np.all(pts <= 0.6 + 1e-12)
    assert np.all(tags == 0)


def test_sample_shrunk_epsilon_too_large():
    mesh = PolytopeMesh(1, [interval_cell()])
    with pytest.raises(MeshError, match="too large"):
        sample_shrunk_domain(mesh, 0.6, 10, seed=0)


def test_sample_shrunk_square_distances():
    mesh = PolytopeMesh(2, [unit_square_cell()])
    pts, _ = sample_shrunk_domain(mesh, 0.1, 500, seed=1)
    dist = mesh.cells[0].boundary_distance(pts)
    assert np.all(dist >= 0.1 - 1e-12)


def test_shrunk_points_keep_distance_on_simplices():
    mesh = freudenthal_mesh(2, 2)
    eps = 0.02
    pts, tags = sample_shrunk_domain(mesh, eps, 400, seed=2)
    for ci in np.unique(tags):
        d = mesh.cells[ci].boundary_distance(pts[tags == ci])
        assert np.all(d >= eps - 1e-12)


def test_sampling_is_deterministic():
    mesh = freudenthal_mesh(2, 2)
    a, ta = sample_shrunk_domain(mesh, 0.02, 300, seed=9)
    b, tb = sample_shrunk_domain(mesh, 0.02, 300, seed=9)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ta, tb)


def test_simplex_cell_from_vertices_inward():
    cell = ConvexCell.from_simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    centroid = np.array([[1.0 / 3.0, 1.0 / 3.0]])
    assert np.min(cell.facet_values(centroid)) > 0
    assert cell.m == 3
    assert cell.volume() == pytest.approx(0.5, abs=1e-12)


def test_degenerate_simplex_rejected():
    with pytest.raises(MeshError):
        ConvexCell.from_simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def simplex_corpus():
    """Vertex stacks of Freudenthal 1-4D, jittered 2-4D and 500 random
    4D and 5D simplices."""
    meshes = [freudenthal_mesh(n, N) for n, N in ((1, 5), (2, 4), (3, 3), (4, 2))]
    meshes += [random_simplex_mesh(n, N, 1) for n, N in ((2, 4), (3, 3), (4, 2))]
    stacks = [np.array([c.vertices for c in m.cells]) for m in meshes]
    rng = np.random.default_rng(5)
    return stacks + [rng.standard_normal((500, n + 1, n)) for n in (4, 5)]


def test_batched_simplex_halfspaces_equal_the_per_cell_oracle():
    for V in simplex_corpus():
        W, b = _simplex_halfspaces(V)
        for i, verts in enumerate(V):
            Wo, bo = oracles.simplex_halfspaces(verts)
            np.testing.assert_array_equal(W[i], Wo)
            np.testing.assert_array_equal(b[i], bo)
            assert np.array_equal(np.signbit(W[i]), np.signbit(Wo))
            assert np.array_equal(np.signbit(b[i]), np.signbit(bo))


@pytest.mark.parametrize("mesh", [
    *(freudenthal_mesh(n, N) for n, N in ((1, 4), (2, 3), (3, 2), (4, 1))),
    random_simplex_mesh(2, 4, 3), random_simplex_mesh(3, 2, 3)],
    ids=["freudenthal-1d", "freudenthal-2d", "freudenthal-3d",
         "freudenthal-4d", "jittered-2d", "jittered-3d"])
def test_generated_simplex_mesh_equals_its_document(mesh):
    again = PolytopeMesh.from_doc(docio.loads(docio.dumps(mesh.to_doc())))
    for a, b in zip(mesh.cells, again.cells):
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)
    verts, _ = mesh.vertex_table()
    values = np.sin(3.0 * verts.sum(axis=1))
    nets = [serialize(compile_weak_representation(m, nodal_linear(m, values), 1e-3))
            for m in (mesh, again)]
    assert nets[0] == nets[1]


def test_flat_simplex_is_named_by_its_document_cell():
    square = {"halfspaces": [{"w": [1.0, 0.0], "b": 0.0}, {"w": [-1.0, 0.0], "b": 1.0},
                             {"w": [0.0, 1.0], "b": 0.0}, {"w": [0.0, -1.0], "b": 1.0}]}
    doc = {"dimension": 2, "cells": [
        square, {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
        {"vertices": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]}]}
    with pytest.raises(MeshError, match="cell 2: degenerate simplex"):
        PolytopeMesh.from_doc(doc)
    with pytest.raises(MeshError, match="cell 0: degenerate simplex"):
        ConvexCell.from_simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    doc["cells"][2]["vertices"].pop()
    with pytest.raises(MeshError, match="cell 2: simplex in R.2 needs 3 vertices"):
        PolytopeMesh.from_doc(doc)
    doc["cells"][2] = 7
    with pytest.raises(DocumentError, match="cell 2 must be an object"):
        PolytopeMesh.from_doc(doc)
    doc = {"dimension": 1, "cells": [{"vertices": [[0.0], [1.0]]}],
           "domain_hull": {"vertices": [[0.5], [0.5]]}}
    with pytest.raises(MeshError, match="domain hull: degenerate simplex"):
        PolytopeMesh.from_doc(doc)


def test_vertex_table_shares_vertices():
    mesh = freudenthal_mesh(2, 2)
    verts, ids = mesh.vertex_table()
    assert verts.shape == (9, 2)  # (N+1)^2 grid points
    assert len(ids) == mesh.n_cells
    for cell, cell_ids in zip(mesh.cells, ids):
        np.testing.assert_array_equal(cell.vertices, verts[cell_ids])


def test_locate_and_outside():
    mesh = freudenthal_mesh(2, 1)
    inside = mesh.locate(np.array([[0.7, 0.2], [0.2, 0.7]]))
    assert set(inside) <= {0, 1}
    assert inside[0] != inside[1]
    outside = mesh.locate(np.array([[2.0, 2.0]]))
    assert outside[0] == -1


def test_mesh_document_round_trip(tmp_path):
    # vertices survive bit for bit; a second save is byte-identical
    mesh = freudenthal_mesh(2, 2)
    path = tmp_path / "mesh.json"
    path2 = tmp_path / "mesh2.json"
    mesh.save(path)
    again = PolytopeMesh.load(path)
    again.save(path2)
    assert path.read_bytes() == path2.read_bytes()
    assert again.dimension == 2
    assert again.n_cells == mesh.n_cells
    assert again.counts() == mesh.counts()
    assert again.content_hash() == mesh.content_hash()
    for a, b in zip(mesh.cells, again.cells):
        np.testing.assert_array_equal(a.vertices, b.vertices)


def test_halfspace_mesh_round_trip_is_exact(tmp_path):
    # H-representation cells keep their raw floats through the file
    cell = ConvexCell([[1.0, 0.3], [-1.0, 0.1], [0.1, 1.0], [0.2, -1.0]],
                      [0.123456789012345678, 1.0, 0.0, 1.7])
    mesh = PolytopeMesh(2, [cell])
    path = tmp_path / "m.json"
    mesh.save(path)
    again = PolytopeMesh.load(path)
    np.testing.assert_array_equal(again.cells[0].W, cell.W)
    np.testing.assert_array_equal(again.cells[0].b, cell.b)


def test_mesh_document_errors():
    with pytest.raises(DocumentError, match="dimension"):
        PolytopeMesh.from_doc({"cells": [{"vertices": [[0.0], [1.0]]}]})
    with pytest.raises(DocumentError, match="cells"):
        PolytopeMesh.from_doc({"dimension": 1, "cells": []})
    with pytest.raises(DocumentError):
        PolytopeMesh.from_doc({"dimension": 1, "cells": [{}]})
    with pytest.raises(DocumentError, match="'w'"):
        PolytopeMesh.from_doc(
            {"dimension": 1, "cells": [{"halfspaces": [{"b": 1.0}]}]})


def test_prune_redundant_drops_loose_halfspace():
    W = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [1.0, 0.0]])
    b = np.array([0.0, 1.0, 0.0, 1.0, 5.0])  # x >= -5 never binds
    cell = ConvexCell(W, b).prune_redundant()
    assert cell.m == 4


def test_a_cell_takes_no_vertices_beside_its_halfspaces():
    # vertices of a 5 x 5 square beside the unit square's halfspaces would
    # have made the cell's volume 25
    corners = 5.0 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cell = unit_square_cell()
    with pytest.raises(TypeError):
        ConvexCell(cell.W, cell.b, vertices=corners)
    assert cell.vertices is None and not cell.is_simplex
    assert cell.volume() == pytest.approx(1.0, rel=1e-12)
    assert cell.prune_redundant().vertices is None


def test_pruning_returns_a_simplex_with_its_facts():
    cells = freudenthal_mesh(3, 1).cells
    pruned = ConvexCell.prune_all(cells)
    assert all(p is c for p, c in zip(pruned, cells))
    # a halfspace cell is rebuilt, with no vertices, even with every row kept
    square = unit_square_cell()
    again = square.prune_redundant()
    assert again is not square and again.vertices is None
    assert np.array_equal(again.W, square.W) and np.array_equal(again.b, square.b)
