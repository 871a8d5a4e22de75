"""Cell questions answered from the vertex set (sup norm, bounding box,
boundedness, facet pruning), checked against linear programs kept in
`oracles.py`; the closed forms that give a simplex's two LP facts (the
normal combination and the Chebyshev ball), checked against the per-cell
linear programs in `oracles.py` and, stacked, against the per-cell closed
forms there bit for bit; the one block LP that gives every other cell
both facts, checked against the same per-cell LPs, and the cell that its
refusals name; the number of linear programs each pipeline pays; and
that simplex meshes never enumerate vertices."""

import itertools

import numpy as np
import pytest

from relufem import docio, lp, meshgen
from relufem import mesh as mesh_module
from relufem.compiler import (compile_bumps, compile_compact_support,
                              compile_weak_representation)
from relufem.errors import CompileError, MeshError
from relufem.mesh import (ConvexCell, PolytopeMesh, _simplex_facts,
                          freudenthal_mesh, validate_mesh)
from relufem.meshgen import (demo_polygon_mesh, random_bounded_polytope,
                             random_polygon_mesh, random_simplex_mesh)
from relufem.pwl import PiecewiseLinear, nodal_linear
from relufem.verify import check_weak_representation

import oracles
from oracles import (chebyshev_center, halfspace_vertices, linear_minimum_raw,
                     positive_combination, prune_redundant_lp, simplex_facts)
from test_cli import slot_docs

UNBOUNDED = 3  # scipy's linprog status code

VORONOI = random_polygon_mesh(5, n_sites=20)


def corpus():
    """Freudenthal, perturbed-simplex, Voronoi and random-polytope cells.

    Simplex cells also appear in H-representation only, so the vertex set
    comes from facet intersections rather than from the given vertices."""
    meshes = [freudenthal_mesh(2, 2), freudenthal_mesh(3, 1),
              random_simplex_mesh(2, 2, seed=3),
              random_simplex_mesh(3, 1, seed=4), VORONOI]
    cells = [c for mesh in meshes for c in mesh.cells]
    cells += [ConvexCell(c.W, c.b) for c in meshes[3].cells]
    cells += [random_bounded_polytope(n, m, seed=200 + 10 * n + m)
              for n in (2, 3) for m in (n + 1, n + 3, 2 * n + 2)]
    return cells


CELLS = corpus()


def lp_extremes(cell, cost):
    """(min, max) of cost @ x over the cell by two LPs."""
    lo = linear_minimum_raw(cell.W, cell.b, cost)
    hi = linear_minimum_raw(cell.W, cell.b, -cost)
    assert lo.success and hi.success
    return lo.fun, -hi.fun


def sweep_bounded(W, b):
    """Boundedness by minimizing and maximizing every coordinate (the
    bounded cells pass the same sweep in the bounding-box test)."""
    n = W.shape[1]
    for j, sign in itertools.product(range(n), (1.0, -1.0)):
        res = linear_minimum_raw(W, b, sign * np.eye(n)[j])
        if res.status == UNBOUNDED:
            return False
        assert res.success
    return True


def test_sup_norm_matches_lp_extremes():
    rng = np.random.default_rng(0)
    for cell in CELLS:
        mesh = PolytopeMesh(cell.dim, [cell])
        a = rng.uniform(-2, 2, cell.dim)
        c = float(rng.uniform(-1, 1))
        vmin, vmax = lp_extremes(cell, a)
        oracle = max(abs(vmin + c), abs(vmax + c))
        got = PiecewiseLinear(mesh, [a], [c]).sup_norm()
        assert got == pytest.approx(oracle, rel=1e-12, abs=1e-15)


def test_sup_norm_of_whole_mesh_is_cell_maximum():
    mesh = VORONOI
    rng = np.random.default_rng(1)
    grads = rng.uniform(-1, 1, (mesh.n_cells, 2))
    consts = rng.uniform(-1, 1, mesh.n_cells)
    oracle = 0.0
    for cell, a, c in zip(mesh.cells, grads, consts):
        vmin, vmax = lp_extremes(cell, a)
        oracle = max(oracle, abs(vmin + c), abs(vmax + c))
    got = PiecewiseLinear(mesh, grads, consts).sup_norm()
    assert got == pytest.approx(oracle, rel=1e-12)


def test_bounding_box_matches_coordinate_lps():
    for cell in CELLS:
        assert cell.is_bounded()
        lo, hi = cell.bounding_box()
        for j in range(cell.dim):
            vmin, vmax = lp_extremes(cell, np.eye(cell.dim)[j])
            scale = 1.0 + abs(vmin) + abs(vmax)
            assert abs(lo[j] - vmin) <= 1e-12 * scale
            assert abs(hi[j] - vmax) <= 1e-12 * scale


UNBOUNDED_CELLS = {
    "half-line": ([[1.0]], [0.0]),
    "strip": ([[0.0, 1.0], [0.0, -1.0]], [0.0, 1.0]),
    "half-plane": ([[1.0, 1.0]], [0.0]),
    "wedge": ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    "open triangle": ([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]], [0.0, 0.0, 1.0]),
    "square prism": ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]], [0.0, 1.0, 0.0, 1.0]),
    "octant": (np.eye(3), np.zeros(3)),
}


@pytest.mark.parametrize("name", sorted(UNBOUNDED_CELLS))
def test_unbounded_cells_agree_with_sweep(name):
    W, b = UNBOUNDED_CELLS[name]
    cell = ConvexCell(W, b)
    assert not sweep_bounded(cell.W, cell.b)
    assert not cell.is_bounded()


def test_strip_has_a_combination_but_is_unbounded():
    # Stiemke's alternative alone passes a strip: rank decides
    W, b = UNBOUNDED_CELLS["strip"]
    cell = ConvexCell(W, b)
    assert cell.normal_combination() is not None
    assert np.linalg.matrix_rank(cell.W) < cell.dim
    assert not cell.is_bounded()


def test_shrink_check_matches_shrunk_chebyshev_lp():
    for cell in CELLS:
        r = cell.inradius()
        for factor in (0.25, 0.9, 1.1, 3.0):
            eps = factor * r
            res = chebyshev_center(cell.W, cell.b - eps * cell.norms)
            shrunk_r = res[1] if res is not None else -np.inf
            assert (shrunk_r > 0.0) == (r > eps)
            if res is not None:
                assert shrunk_r == pytest.approx(r - eps, rel=1e-9, abs=1e-12 * r)


def test_vertex_set_of_simplex_cells():
    for mesh in (freudenthal_mesh(2, 2), random_simplex_mesh(3, 2, seed=8)):
        for cell in mesh.cells:
            got = ConvexCell(cell.W, cell.b).vertex_set()
            want = cell.vertices
            assert got.shape == want.shape
            for v in want:
                assert np.min(np.linalg.norm(got - v, axis=1)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vertex_set_of_boxes(n):
    rng = np.random.default_rng(n)
    lo = rng.uniform(-1, 0, n)
    hi = lo + rng.uniform(0.5, 2, n)
    # redundant parallel facets must not add vertices
    W = np.vstack([np.eye(n), -np.eye(n), np.eye(n)])
    b = np.concatenate([-lo, hi, -lo + 1.0])
    got = ConvexCell(W, b).vertex_set()
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    assert got.shape == corners.shape
    for v in corners:
        assert np.min(np.max(np.abs(got - v), axis=1)) <= 1e-14


def test_vertex_set_keeps_simplex_vertices_out_of_the_document():
    cell = ConvexCell([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, 1.0])
    cell.vertex_set()
    assert cell.vertices is None
    assert "halfspaces" in cell.to_doc()


def test_unbounded_cell_has_no_vertex_set():
    with pytest.raises(MeshError, match="unbounded"):
        ConvexCell(*UNBOUNDED_CELLS["wedge"]).bounding_box()


# --- closed-form simplex facts ------------------------------------------------

def slivers():
    """Thin simplices in 2D and 3D, given by their vertices."""
    return [ConvexCell.from_simplex(V) for V in (
        [[0.0, 0.0], [1.0, 1.0], [1.0, 1.001]],
        [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-4]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.3, 1e-3]],
        [[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [0.0, 1e-3, 0.0], [0.2, 0.3, 5.0]],
    )]


def fact_meshes(tmp_path):
    """Freudenthal 1-4D, jittered 3D and sliver meshes, and a mesh mixing a
    simplex with a halfspace cell."""
    slot_docs(tmp_path, "c", "0.5")
    mixed = PolytopeMesh.load(tmp_path / "m.json")
    meshes = [freudenthal_mesh(n, N) for n, N in ((1, 4), (2, 3), (3, 2),
                                                  (4, 1))]
    meshes += [random_simplex_mesh(3, N, seed=N) for N in (2, 3, 4)]
    meshes += [PolytopeMesh(c.dim, [c]) for c in slivers()]
    meshes.append(mixed)
    assert mixed.cells[0].is_simplex and not mixed.cells[1].is_simplex
    return meshes


def test_simplex_facts_match_the_lps(tmp_path):
    for mesh in fact_meshes(tmp_path):
        for cell in mesh.cells:
            lam = cell.normal_combination()
            center, r = cell.chebyshev()
            lp_lam = positive_combination(cell.W)
            lp_center, lp_r = chebyshev_center(cell.W, cell.b)
            assert lam.min() == 1.0
            np.testing.assert_allclose(lam, lp_lam, rtol=1e-12, atol=0)
            assert r == pytest.approx(lp_r, rel=1e-12, abs=0)
            assert np.max(np.abs(center - lp_center)) <= 1e-12 * lp_r


def test_stacked_simplex_facts_equal_the_per_cell_closed_forms(tmp_path):
    cells = [c for mesh in fact_meshes(tmp_path) for c in mesh.cells
             if c.is_simplex]
    for n in range(1, 5):
        group = [c for c in cells if c.dim == n]
        # the whole group as one stack
        stacked = _simplex_facts(*(np.array([getattr(c, a) for c in group])
                                   for a in ("vertices", "W", "b")))
        for i, cell in enumerate(group):
            lam, (center, r) = simplex_facts(cell)
            assert np.array_equal(cell.normal_combination(), lam)
            assert np.array_equal(cell.chebyshev()[0], center)
            assert cell.chebyshev()[1] == r
            assert np.array_equal(stacked[0][i], lam)
            assert np.array_equal(stacked[1][i], center)
            assert stacked[2][i] == r


@pytest.fixture
def lp_calls(monkeypatch):
    """One entry per linear program the program solves through `relufem.lp`."""
    calls = []
    linprog = lp.linprog
    monkeypatch.setattr(lp, "linprog",
                        lambda *a, **k: calls.append(1) or linprog(*a, **k))
    return calls


def test_simplex_meshes_call_no_lp(lp_calls):
    def pipeline(mesh):
        validate_mesh(mesh, samples=2000)
        v = PiecewiseLinear.constant(
            mesh, np.random.default_rng(0).uniform(-1, 1, mesh.n_cells))
        eps = 1e-3
        net = compile_weak_representation(mesh, v, eps)
        check_weak_representation(net, v, mesh, eps, samples_per_cell=20)
        return len(lp_calls)

    assert pipeline(freudenthal_mesh(2, 3)) == 0
    assert pipeline(random_simplex_mesh(3, 2, seed=5)) == 0
    assert pipeline(random_polygon_mesh(6, n_sites=8)) > 0


@pytest.mark.parametrize("mesh", [freudenthal_mesh(3, 2),
                                  random_simplex_mesh(2, 4, seed=6)],
                         ids=["freudenthal 3D", "jittered 2D"])
def test_simplex_meshes_never_enumerate_vertices(monkeypatch, mesh):
    # facts, tiles, volumes and boundedness of simplex cells are closed forms
    def refuse(*args):
        raise AssertionError("halfspace intersection or convex hull on a simplex mesh")

    monkeypatch.setattr(mesh_module, "HalfspaceIntersection", refuse)
    monkeypatch.setattr(mesh_module, "ConvexHull", refuse)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.random.default_rng(1).uniform(-1, 1, len(verts)))
    eps = 1e-3
    validate_mesh(mesh, samples=2000)
    compile_compact_support(mesh, v, eps)
    net = compile_weak_representation(mesh, v, eps)
    rep = check_weak_representation(net, v, mesh, eps, samples_per_cell=20)
    assert rep.passed, rep.as_text()


def test_voronoi_meshes_pay_lps_only_for_the_two_facts(lp_calls):
    # pruning, boundedness, sup norm and sampling come from vertex sets
    demo_polygon_mesh()
    mesh = random_polygon_mesh(7, n_sites=12)
    assert len(lp_calls) == 0
    rng = np.random.default_rng(2)
    v = PiecewiseLinear(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)),
                        rng.uniform(-1, 1, mesh.n_cells))
    eps = 1e-3
    # every cell's Chebyshev ball and combination, and the hull's, in one LP
    validate_mesh(mesh, samples=2000)
    compile_compact_support(mesh, v, eps)
    assert len(lp_calls) == 1
    net = compile_weak_representation(mesh, v, eps)
    # verification on a fresh copy, with no fact cached: the vertex sets
    # are solved about the cells' Chebyshev centres, from one LP
    fresh = PolytopeMesh.from_doc(docio.loads(docio.dumps(mesh.to_doc())))
    del lp_calls[:]
    rep = check_weak_representation(
        net, PiecewiseLinear(fresh, v.gradients, v.constants), fresh, eps,
        samples_per_cell=20)
    assert rep.passed, rep.as_text()
    assert len(lp_calls) == 1


def test_an_unbounded_hull_stays_out_of_the_block_lp(lp_calls):
    # the hull x >= 0, x <= 1, y >= 0 has no top: with it the block LP
    # failed and every cell solved its two LPs alone (27 calls)
    base = random_polygon_mesh(7, n_sites=12)
    hull = ConvexCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, 1.0, 0.0])
    report = validate_mesh(PolytopeMesh(2, base.cells, domain_hull=hull))
    assert len(lp_calls) == 1
    assert not hull.is_bounded()
    assert report.issues == ["summed cell volumes 1 vs domain hull volume inf"]


# --- the two facts of every non-simplex cell from one block LP --------------

def mixed_mesh():
    """Freudenthal 2D triangles, every other one given by halfspaces only,
    with the unit square as domain hull."""
    base = freudenthal_mesh(2, 2)
    cells = [c if i % 2 else ConvexCell(c.W, c.b)
             for i, c in enumerate(base.cells)]
    return PolytopeMesh(2, cells, domain_hull=base.domain_hull)


def batch_meshes():
    """Clipped Voronoi meshes with their hulls, random bounded polytopes in
    2D and 3D gathered as meshes, and a mesh of simplex and halfspace
    cells."""
    meshes = [demo_polygon_mesh()] + [random_polygon_mesh(s) for s in range(10)]
    meshes += [PolytopeMesh(n, [random_bounded_polytope(n, m, seed=300 + m)
                                for m in (n + 1, n + 3, 2 * n + 2, 3 * n + 4)])
               for n in (2, 3)]
    return meshes + [mixed_mesh()]


def test_batched_facts_match_the_per_cell_lps():
    for mesh in batch_meshes():
        mesh.solve_facts()
        hull = [] if mesh.domain_hull is None else [mesh.domain_hull]
        for cell in mesh.cells + hull:
            lam = cell.normal_combination()
            center, r = cell.chebyshev()
            lp_lam = positive_combination(cell.W)
            _, lp_r = chebyshev_center(cell.W, cell.b)
            assert r == pytest.approx(lp_r, rel=1e-12, abs=0)
            assert np.min(cell.boundary_distance(center)) == pytest.approx(
                r, rel=1e-12, abs=0)
            assert lam.min() >= 1.0 - 1e-9
            assert (np.linalg.norm(cell.W.T @ lam)
                    <= 1e-10 * float(lam @ cell.norms))
            # a degenerate LP has several optimal lambdas: compare the sums
            assert lam.sum() == pytest.approx(lp_lam.sum(), rel=1e-12, abs=0)


def test_simplex_cells_keep_their_closed_forms_and_add_no_lp_blocks(
        monkeypatch):
    blocks = []
    cell_facts = lp.cell_facts

    def spy(combinations, balls):
        blocks.append((len(combinations), len(balls)))
        return cell_facts(combinations, balls)

    monkeypatch.setattr(lp, "cell_facts", spy)
    mesh = mixed_mesh()
    simplex = [c for c in mesh.cells if c.is_simplex]
    assert 0 < len(simplex) < mesh.n_cells
    mesh.solve_facts()
    # every halfspace cell and the hull, each with both facts
    assert blocks == [(mesh.n_cells - len(simplex) + 1,) * 2]
    for cell in simplex:
        lam, (center, r) = simplex_facts(cell)
        assert np.array_equal(cell.normal_combination(), lam)
        assert np.array_equal(cell.chebyshev()[0], center)
        assert cell.chebyshev()[1] == r
    mesh.solve_facts()  # nothing left to solve
    # no cell of a simplex mesh needs the LP, so its hull waits to be asked
    freudenthal_mesh(2, 2).solve_facts()
    assert len(blocks) == 1


BOX_NORMALS = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
BAD_CELLS = {
    "wedge": ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    "half-strip": ([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, 0.0, 1.0]),
    "empty": (BOX_NORMALS, [-0.6, 0.4, 0.0, 1.0]),
    "flat": (BOX_NORMALS, [-0.5, 0.5, 0.0, 1.0]),
}

# how each check names the bad cell at index {i}: validate_mesh, the weak
# compile without validation (the sup norm reads vertex sets first), and
# compile_bumps, which reaches the two facts directly
REFUSALS = {
    "wedge": [(MeshError, "cell {i} is unbounded"),
              (MeshError, "cell is unbounded"),
              (MeshError, "Chebyshev LP failed (cell unbounded or malformed)")],
    "half-strip": [(MeshError, "cell {i} is unbounded"),
                   (MeshError, "cell is unbounded"),
                   (CompileError, "cell {i}: no positive zero-sum combination "
                    "of facet normals exists (cell unbounded or degenerate)")],
    "empty": [(MeshError, "cell {i} has empty interior (inradius -1.000e-01)"),
              (MeshError, "cell has no vertices (empty interior)"),
              (CompileError, "cell {i}: shrinks to empty: epsilon 0.001 too "
               "large")],
    "flat": [(MeshError, "cell {i} has empty interior (inradius -0.000e+00)"),
             (MeshError, "cell has no vertices (empty interior)"),
             (CompileError, "cell {i}: shrinks to empty: epsilon 0.001 too "
              "large")],
}


@pytest.mark.parametrize("where", [0, 2, 7])
@pytest.mark.parametrize("name", sorted(BAD_CELLS))
def test_a_bad_cell_among_good_ones_is_named(name, where):
    base = random_polygon_mesh(3)
    cells = list(base.cells)
    cells.insert(where, ConvexCell(*BAD_CELLS[name]))
    checks = [lambda mesh, v: validate_mesh(mesh, samples=1000),
              lambda mesh, v: compile_weak_representation(mesh, v, 1e-3),
              lambda mesh, v: compile_bumps(mesh, v, 1.0, 1e-3)]
    for check, (error, message) in zip(checks, REFUSALS[name]):
        mesh = PolytopeMesh(2, cells, domain_hull=base.domain_hull)
        v = PiecewiseLinear(mesh, np.ones((mesh.n_cells, 2)),
                            np.zeros(mesh.n_cells))
        with pytest.raises(error) as info:
            check(mesh, v)
        assert str(info.value) == message.format(i=where)
    # after a failed block LP every good cell still has both facts
    for cell in cells[:where] + cells[where + 1:]:
        assert cell.inradius() == pytest.approx(
            chebyshev_center(cell.W, cell.b)[1], rel=1e-12)
        assert cell.normal_combination().min() >= 1.0 - 1e-9


def test_validate_mesh_solves_every_cell_and_the_hull_in_one_lp(monkeypatch):
    blocks = []
    cell_facts = lp.cell_facts

    def spy(combinations, balls):
        blocks.append((len(combinations), len(balls)))
        return cell_facts(combinations, balls)

    monkeypatch.setattr(lp, "cell_facts", spy)
    mesh = random_polygon_mesh(7, n_sites=12)
    validate_mesh(mesh, samples=1000)
    assert blocks == [(mesh.n_cells + 1,) * 2]


def test_an_unbounded_cell_is_refused_before_any_lp(lp_calls):
    base = random_polygon_mesh(3)
    cells = list(base.cells)
    cells.insert(2, ConvexCell(*BAD_CELLS["wedge"]))
    mesh = PolytopeMesh(2, cells, domain_hull=base.domain_hull)
    with pytest.raises(MeshError, match="^cell 2 is unbounded$"):
        validate_mesh(mesh, samples=1000)
    assert len(lp_calls) == 0


@pytest.mark.parametrize("unbounded", ["wedge", "half-strip"])
def test_an_unbounded_cell_is_named_before_an_earlier_empty_one(unbounded):
    base = random_polygon_mesh(3)
    cells = list(base.cells)
    cells.insert(1, ConvexCell(*BAD_CELLS["empty"]))
    cells.insert(4, ConvexCell(*BAD_CELLS[unbounded]))
    mesh = PolytopeMesh(2, cells, domain_hull=base.domain_hull)
    with pytest.raises(MeshError, match="^cell 4 is unbounded$"):
        validate_mesh(mesh, samples=1000)


def test_stacked_cell_checks_keep_norms_and_messages():
    for mesh in (freudenthal_mesh(3, 2), random_simplex_mesh(3, 2, seed=9)):
        for cell in mesh.cells:
            alone = ConvexCell(cell.W, cell.b)
            assert np.array_equal(cell.norms, alone.norms)
            assert np.array_equal(cell.norms, np.linalg.norm(cell.W, axis=1))
    V = freudenthal_mesh(2, 1).cells[0].vertices[None].repeat(3, axis=0)
    V[1, 0, 0] = np.nan
    with pytest.raises(MeshError, match="^cell halfspace data must be finite$"):
        ConvexCell.from_simplices(V)


# --- facet pruning from the vertex set ----------------------------------------

def assert_prunes_like_lp(cell, pruned):
    keep = prune_redundant_lp(cell)
    assert np.array_equal(pruned.W, cell.W[keep])
    assert np.array_equal(pruned.b, cell.b[keep])


def test_prune_matches_the_lp_rule_on_clipped_voronoi_cells(monkeypatch):
    seen = []
    prune = ConvexCell.prune_all

    def spy(cells):
        pruned = prune(cells)
        seen.extend(zip(cells, pruned))
        return pruned

    monkeypatch.setattr(ConvexCell, "prune_all", staticmethod(spy))
    # the all-sites construction hands every cell every bisector, so the
    # spy sees the redundant rows that Delaunay candidates leave out
    monkeypatch.setattr(meshgen, "voronoi_polygon_mesh",
                        oracles.voronoi_polygon_mesh)
    demo_polygon_mesh()
    for seed in range(30):
        random_polygon_mesh(seed)
    for seed in range(5):
        random_polygon_mesh(seed, n_sites=20)
    assert len(seen) > 300
    for cell, pruned in seen:
        assert_prunes_like_lp(cell, pruned)


def test_pruned_cells_keep_the_vertex_set_they_would_enumerate(monkeypatch):
    seen = []
    prune = ConvexCell.prune_all

    def spy(cells):
        seen.extend(prune(cells))
        return seen[len(seen) - len(cells):]

    monkeypatch.setattr(ConvexCell, "prune_all", staticmethod(spy))
    demo_polygon_mesh()
    for seed in range(30):
        random_polygon_mesh(seed)
        random_polygon_mesh(seed, n_sites=20)
    assert len(seen) > 800
    for pruned in seen:
        assert pruned._bounded is True
        inherited = pruned.vertex_set()
        assert inherited.tobytes() == halfspace_vertices(pruned.W, pruned.b).tobytes()


def test_validation_after_generation_enumerates_no_vertices(monkeypatch):
    mesh = random_polygon_mesh(0, n_sites=200)

    def refuse(*args):
        raise AssertionError("halfspace intersection of a pruned cell")

    monkeypatch.setattr(mesh_module, "HalfspaceIntersection", refuse)
    assert validate_mesh(mesh, samples=2000).ok


SQUARE = ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
          [0.0, 1.0, 0.0, 1.0])
CUBE = (np.vstack([np.eye(3), -np.eye(3)]), np.r_[np.zeros(3), np.ones(3)])

PRUNE_CASES = {
    # name: (W, b, rows that support a facet)
    "exact duplicate row": (SQUARE[0] + [[0.0, 1.0]], SQUARE[1] + [0.0],
                            [0, 1, 2, 3]),
    "looser parallel copy": (SQUARE[0] + [[2.0, 0.0]], SQUARE[1] + [1.0],
                             [0, 1, 2, 3]),
    "looser copy listed first": ([[2.0, 0.0]] + SQUARE[0], [0.5] + SQUARE[1],
                                 [1, 2, 3, 4]),
    "touches at one vertex": (SQUARE[0] + [[-1.0, -1.0]], SQUARE[1] + [2.0],
                              [0, 1, 2, 3]),
    "interval with a loose bound": ([[1.0], [-1.0], [1.0]], [0.0, 1.0, 3.0],
                                    [0, 1]),
    "box with a redundant corner cut": (
        np.vstack([CUBE[0], [[-1.0, -1.0, -1.0]]]), np.r_[CUBE[1], 3.0],
        [0, 1, 2, 3, 4, 5]),
    "box with a corner cut off": (
        np.vstack([CUBE[0], [[-1.0, -1.0, -1.0]]]), np.r_[CUBE[1], 2.5],
        [0, 1, 2, 3, 4, 5, 6]),
}


@pytest.mark.parametrize("name", sorted(PRUNE_CASES))
def test_prune_matches_the_lp_rule(name):
    W, b, rows = PRUNE_CASES[name]
    cell = ConvexCell(W, b)
    pruned = cell.prune_redundant()
    assert_prunes_like_lp(cell, pruned)
    assert np.array_equal(pruned.W, cell.W[rows])


def test_prune_refuses_an_unbounded_cell():
    with pytest.raises(MeshError, match="unbounded"):
        ConvexCell(*UNBOUNDED_CELLS["open triangle"]).prune_redundant()
