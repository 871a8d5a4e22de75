"""The stacked cell geometry of non-simplex cells against the per-cell
enumeration kept in `oracles.py`, byte for byte, and the same bits for a
cell alone as in any stack: vertex sets (the rows meeting at each vertex
from one Qhull halfspace intersection per cell, about its site or its
Chebyshev centre, then one stacked solve), shrunk tilings and facet
pruning for a whole list of cells at once; and boundedness, one convex
hull of a cell's unit normals (Gordan's alternative), against the
recession-cone enumeration kept there, on fixed, drawn and 2D and 3D
clipped-Voronoi cells."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relufem import docio
from relufem import mesh as mesh_module
from relufem.errors import MeshError
from relufem.mesh import ConvexCell, PolytopeMesh, unit_cube_hull
from relufem.meshgen import (bisector_candidates, demo_polygon_mesh,
                             random_bounded_polytope, random_polygon_mesh)
from relufem.pwl import PiecewiseLinear

import oracles
from test_cell_facts import PRUNE_CASES, UNBOUNDED_CELLS


def pyramid(k=30):
    """A pyramid over a regular k-gon with all k side facets through the
    apex (0, 0, 1): C(k, 3) intersections land on the apex."""
    t = 2.0 * np.pi * np.arange(k) / k
    U = np.column_stack([np.cos(t), np.sin(t), np.full(k, 0.5)])
    return np.vstack([-U, [[0.0, 0.0, 1.0]]]), np.append(U @ [0.0, 0.0, 1.0], 0.0)


FIXED = {**{name: (W, b) for name, (W, b, _) in PRUNE_CASES.items()},
         **{name: UNBOUNDED_CELLS[name] for name in UNBOUNDED_CELLS},
         "pyramid": pyramid()}
EPSILONS = [0.0, 1e-3, 0.05, 0.3, 2.0]


def fixed_system(name):
    return np.asarray(FIXED[name][0], dtype=float), np.asarray(FIXED[name][1], dtype=float)


@functools.lru_cache(maxsize=None)
def polytope_system(n, m, seed):
    cell = random_bounded_polytope(n, m, seed)
    return cell.W, cell.b


systems = st.one_of(
    st.sampled_from(sorted(FIXED)).map(fixed_system),
    st.tuples(st.sampled_from([2, 3]), st.integers(0, 4), st.integers(0, 10 ** 6)).map(
        lambda t: polytope_system(t[0], 2 * t[0] + t[1], t[2])),
)


def as_bytes(a):
    return a.shape, a.tobytes()


def oracle_geometry(W, b, epsilon):
    """What the per-cell reference gives one cell: boundedness, then the
    vertex set (or the refusal), the shrunk tiling and the kept rows."""
    cell = ConvexCell(W, b)
    facts = [oracles.is_bounded(cell)]
    try:
        V = oracles.vertex_set(cell)
    except MeshError as exc:
        return facts + [str(exc)]
    rows = oracles.prune_rows(cell)
    return facts + [as_bytes(V), as_bytes(oracles.shrunk_tiles(cell, epsilon)),
                    as_bytes(cell.W[rows]), as_bytes(cell.b[rows])]


@functools.lru_cache(maxsize=None)
def oracle_of_fixed(name, epsilon):
    return oracle_geometry(*fixed_system(name), epsilon)


def stacked_geometry(pairs, epsilon):
    """The same facts for every system of the list from stacked calls over
    the whole list: one fill of vertex sets, one tiling call and one
    pruning call for the cells that have vertex sets."""
    cells = [ConvexCell(W, b) for W, b in pairs]
    mesh_module._fill_vertex_sets(cells)
    facts, good = [], []
    for cell in cells:
        try:
            V = cell.vertex_set()
        except MeshError as exc:
            facts.append([cell._bounded, str(exc)])
            continue
        facts.append([cell._bounded, as_bytes(V)])
        good.append(cell)
    tiles = mesh_module._tilings(good, epsilon)
    pruned = ConvexCell.prune_all(good)
    it = iter(zip(tiles, pruned))
    for row in facts:
        if len(row) == 2 and not isinstance(row[1], str):
            T, p = next(it)
            row += [as_bytes(T), as_bytes(p.W), as_bytes(p.b)]
    return facts


def reference(pairs, epsilon):
    out = []
    for W, b in pairs:
        name = next((k for k, v in FIXED.items()
                     if np.array_equal(np.asarray(v[0], dtype=float), W)
                     and np.array_equal(np.asarray(v[1], dtype=float), b)), None)
        out.append(oracle_of_fixed(name, epsilon) if name
                   else oracle_geometry(W, b, epsilon))
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(systems, min_size=1, max_size=6), st.sampled_from(EPSILONS))
def test_stacks_give_every_cell_its_own_bits(pairs, epsilon):
    want = reference(pairs, epsilon)
    assert stacked_geometry(pairs, epsilon) == want
    # each cell alone, a stack of one
    for (W, b), row in zip(pairs, want):
        assert stacked_geometry([(W, b)], epsilon) == [row]


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_pyramid_apex_merges_to_one_vertex(epsilon):
    W, b = pyramid()
    (row,) = stacked_geometry([(W, b)], epsilon)
    assert row == oracle_of_fixed("pyramid", epsilon)
    assert ConvexCell(W, b).vertex_set().shape == (31, 3)


def test_shrunk_cells_that_empty_get_no_tiles():
    # past each inradius the shrunk cell is empty, alone or stacked
    pairs = [polytope_system(n, m, 7) for n, m in ((2, 3), (2, 6), (3, 4), (3, 8))]
    for epsilon in (1.6, 5.0):
        facts = stacked_geometry(pairs, epsilon)
        assert facts == reference(pairs, epsilon)
        assert all(row[2][0][0] == 0 for row in facts)


def test_unbounded_cells_in_a_stack_of_bounded_ones():
    pairs = [fixed_system(name) for name in sorted(UNBOUNDED_CELLS)]
    pairs += [polytope_system(2, 5, 1), polytope_system(3, 6, 2)]
    facts = stacked_geometry(pairs, 1e-3)
    assert [row[0] for row in facts] == [False] * len(UNBOUNDED_CELLS) + [True, True]
    assert facts == reference(pairs, 1e-3)


def test_generated_cells_are_pruned_as_the_reference_prunes_them(monkeypatch):
    # the generator's raw cells, handed to the one stacked pruning call
    handed = []
    prune = ConvexCell.prune_all

    def spy(cells):
        handed.append([(c.W, c.b) for c in cells])
        return prune(cells)

    monkeypatch.setattr(ConvexCell, "prune_all", staticmethod(spy))
    mesh = random_polygon_mesh(4, n_sites=20)
    (pairs,) = handed
    for (W, b), cell in zip(pairs, mesh.cells):
        rows = oracles.prune_rows(ConvexCell(W, b))
        assert cell.W.tobytes() == W[rows].tobytes()
        assert cell.b.tobytes() == b[rows].tobytes()


def test_mesh_questions_enumerate_once(monkeypatch):
    # validation, bounding box, sup norm and whole-cell samples all read
    # the vertex sets of one stacked pass over the cells read back
    mesh = PolytopeMesh.from_doc(docio.loads(docio.dumps(
        random_polygon_mesh(2, n_sites=30).to_doc())))
    calls = []
    intersect = mesh_module.HalfspaceIntersection
    monkeypatch.setattr(mesh_module, "HalfspaceIntersection",
                        lambda *a: calls.append(1) or intersect(*a))
    mesh_module.validate_mesh(mesh, samples=1000)
    mesh.bounding_box()
    rng = np.random.default_rng(0)
    PiecewiseLinear(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)),
                    rng.uniform(-1, 1, mesh.n_cells)).sup_norm()
    mesh_module.sample_cells(mesh, 5, seed=0)
    # one halfspace intersection per cell; boundedness needs none
    assert len(calls) == mesh.n_cells


def test_whole_cell_tilings_are_cached_and_match_the_reference(monkeypatch):
    mesh = random_polygon_mesh(5, n_sites=20)
    calls = []
    delaunay = mesh_module.Delaunay
    monkeypatch.setattr(mesh_module, "Delaunay",
                        lambda *a, **k: calls.append(1) or delaunay(*a, **k))
    first = [cell.simplices() for cell in mesh.cells]
    mesh.volume()
    mesh_module.sample_mesh(mesh, 100, seed=0)
    mesh_module.sample_cells(mesh, 3, seed=0)
    assert len(calls) == sum(len(c.vertex_set()) > 3 for c in mesh.cells)
    for cell, tiles in zip(mesh.cells, first):
        assert cell.simplices() is tiles
        assert as_bytes(tiles) == as_bytes(oracles.shrunk_tiles(cell, 0.0))



# --- vertex sets: Qhull's meeting rows, solved as the enumeration solves ----

def cells_about(pairs, points):
    cells = [ConvexCell(W, b) for W, b in pairs]
    for cell, point in zip(cells, points):
        cell.interior = point
    return cells


def test_vertex_sets_do_not_depend_on_the_interior_point():
    raw = raw_clipped_cells()
    pairs = [(c.W, c.b) for c in raw]
    about_sites = cells_about(pairs, [c.interior for c in raw])
    about_centres = cells_about(pairs, [None] * len(raw))
    for cells in (about_sites, about_centres):
        mesh_module._fill_vertex_sets(cells)
    assert all(c.interior is not None and c._cheb is mesh_module._UNSET
               for c in about_sites)
    for (W, b), s, c in zip(pairs, about_sites, about_centres):
        want = as_bytes(oracles.halfspace_vertices(W, b))
        assert as_bytes(s.vertex_set()) == as_bytes(c.vertex_set()) == want


@pytest.mark.parametrize("fraction", [0.05, 0.3, 0.9])
def test_shrunk_pruned_cells_match_the_enumeration(fraction):
    # solved about the Chebyshev centre, as the tilings solve them
    cells = random_polygon_mesh(1, n_sites=40).cells
    mesh_module._solve_facts(cells)
    shrunk = [c.shrink(fraction * c.inradius()) for c in cells]
    mesh_module._fill_vertex_sets(shrunk)
    for c in shrunk:
        assert as_bytes(c.vertex_set()) == as_bytes(oracles.halfspace_vertices(c.W, c.b))


def test_a_corner_at_the_origin_keeps_both_sides():
    # Qhull's own intersection point at the square's corner (0, 0) is off by
    # rounding and fails the tight test of the row x >= 0; the solved
    # vertex is exact, so pruning keeps both sides through the corner
    raw = [c for c in raw_clipped_cells()
           if any(np.array_equal(v, [0.0, 0.0]) for v in c.vertex_set())][0]
    X = mesh_module.HalfspaceIntersection(np.column_stack([-raw.W, -raw.b]),
                                          raw.interior).intersections
    corner = X[np.argmin(np.abs(X).sum(axis=1))]
    assert np.max(np.abs(corner)) > 0.0
    pruned = raw.prune_redundant()
    for side in ([1.0, 0.0], [0.0, 1.0]):
        assert any(np.array_equal(w, side) and b == 0.0 for w, b in zip(pruned.W, pruned.b))


@pytest.mark.parametrize("point", ["site", "chebyshev"])
def test_3d_clipped_voronoi_vertex_sets_match_the_enumeration(point):
    sites = np.random.default_rng(3).uniform(0.05, 0.95, (300, 3))
    pairs = voronoi_systems(sites, unit_cube_hull(3))
    cells = cells_about(pairs, sites if point == "site" else [None] * len(pairs))
    mesh_module._fill_vertex_sets(cells)
    for cell, (W, b) in zip(cells, pairs):
        assert as_bytes(cell.vertex_set()) == as_bytes(oracles.halfspace_vertices(W, b))


# --- boundedness: one convex hull of the unit normals ------------------------

SMALL = {
    "interval": ([[1.0], [-2.0]], [0.0, 1.0]),
    "interval, duplicate rows": ([[1.0], [3.0], [-1.0], [-1.0]], [0.0, 1.0, 1.0, 2.0]),
    "half-line to the left": ([[-1.0]], [1.0]),
    "two half-lines one way": ([[1.0], [2.0]], [0.0, -1.0]),
    "two rows in R^2": ([[1.0, 0.0], [-1.0, 1.0]], [0.0, 1.0]),
    "three rows in R^3": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, -1.0]],
                          [0.0, 0.0, 1.0]),
    "triangle": ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, 1.0]),
    "triangle, every row twice": ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]] * 2,
                                  [0.0, 0.0, 1.0, 0.0, 0.0, 2.0]),
    "square, antiparallel pairs": ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                   [0.0, 1.0, 0.0, 1.0]),
    "strip, doubled": ([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [0.0, -3.0]],
                       [0.0, 1.0, 0.0, 1.0]),
    "slab in R^3, antiparallel pairs": ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                         [0.0, 1.0, 1.0], [0.0, -1.0, -1.0]],
                                        [0.0, 1.0, 0.0, 1.0]),
    "half-plane from opposite corners": ([[1.0, 1.0], [1.0, -1.0], [0.0, 1.0],
                                          [0.0, -1.0]], [0.0, 0.0, 1.0, 1.0]),
}


def bounded_by_hull(W, b):
    return ConvexCell(W, b).is_bounded()


def bounded_by_oracle(W, b):
    return oracles.is_bounded(ConvexCell(W, b))


@pytest.mark.parametrize("name", sorted(SMALL) + sorted(FIXED))
def test_boundedness_agrees_with_the_enumeration(name):
    W, b = SMALL[name] if name in SMALL else FIXED[name]
    assert bounded_by_hull(W, b) == bounded_by_oracle(W, b)


# small integer normals: duplicates, antiparallel pairs, rank-deficient sets
# and origins exactly on the hull of the normals
normals = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any),
    min_size=1, max_size=2 * n + 3))


@settings(max_examples=300, deadline=None)
@given(normals)
def test_drawn_normals_agree_with_the_enumeration(W):
    W = np.array(W, dtype=float)
    b = np.ones(len(W))
    assert bounded_by_hull(W, b) == bounded_by_oracle(W, b)


@functools.lru_cache(maxsize=None)
def raw_clipped_cells():
    """The raw cells the generator hands to its pruning, each with its site
    as its interior point: the pentagon and random_polygon_mesh seeds 0-29,
    at default sites and at 20 sites."""
    seen = []
    prune = ConvexCell.prune_all

    def spy(cells):
        seen.extend(cells)
        return prune(cells)

    ConvexCell.prune_all = staticmethod(spy)
    try:
        demo_polygon_mesh()
        for seed in range(30):
            random_polygon_mesh(seed)
            random_polygon_mesh(seed, n_sites=20)
    finally:
        ConvexCell.prune_all = staticmethod(prune)
    return seen


def voronoi_systems(sites, hull=None):
    """Each site's bisector rows against its Delaunay neighbours, after the
    hull's rows when a hull is given (the generator's construction)."""
    sq = np.array([q @ q for q in sites])
    out = []
    for i, others in enumerate(bisector_candidates(sites)):
        W, b = 2.0 * (sites[i] - sites[others]), sq[others] - sq[i]
        if hull is not None:
            W, b = np.vstack([hull.W, W]), np.concatenate([hull.b, b])
        out.append((W, b))
    return out


def test_clipped_voronoi_cells_agree_with_the_enumeration():
    pairs = [(c.W, c.b) for c in raw_clipped_cells()]
    assert len(pairs) == 876
    assert [bounded_by_hull(W, b) for W, b in pairs] == [True] * len(pairs)
    assert all(bounded_by_oracle(W, b) for W, b in pairs)


@pytest.mark.parametrize("clipped", [True, False], ids=["clipped", "unclipped"])
def test_3d_voronoi_cells_agree_with_the_enumeration(clipped):
    # 500 sites in [0.05, 0.95]^3; without the cube, the cells of sites on
    # the sites' hull are unbounded
    sites = np.random.default_rng(0).uniform(0.05, 0.95, (500, 3))
    pairs = voronoi_systems(sites, unit_cube_hull(3) if clipped else None)
    got = [bounded_by_hull(W, b) for W, b in pairs]
    assert got == [bounded_by_oracle(W, b) for W, b in pairs]
    assert all(got) if clipped else 0 < got.count(False) < len(got)


def test_unclipped_2d_voronoi_cells_agree_with_the_enumeration():
    sites = np.random.default_rng(1).uniform(0.0, 1.0, (300, 2))
    pairs = voronoi_systems(sites)
    got = [bounded_by_hull(W, b) for W, b in pairs]
    assert got == [bounded_by_oracle(W, b) for W, b in pairs]
    assert 0 < got.count(False) < len(got)


def capped_prism(delta):
    """The square prism |x| <= 1, |y| <= 1 along z, capped by two rows
    whose normals tilt by delta from the side normal e_x: bounded for
    every delta > 0, about 4 / delta long."""
    W = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
         [1.0, 0.0, -delta], [1.0, 0.0, delta]]
    return W, np.ones(6)


@pytest.mark.parametrize("delta, by_hull, by_enumeration", [
    (1e-6, True, True), (1e-11, True, True), (5e-12, True, True),
    (2.5e-12, True, True), (2e-12, False, True), (1.5e-12, False, True),
    (1.2e-12, False, True), (1e-12, False, False), (1e-13, False, False),
    (0.0, False, False)])
def test_a_capped_prism_near_the_vertex_tolerance(delta, by_hull, by_enumeration):
    """Both call a cap tilted by about VERTEX_RTOL flat, at thresholds a
    factor 2 apart. The enumeration escapes along d = e_z when delta <=
    VERTEX_RTOL; the hull of the normals is 2 delta thick, so its facets
    pass delta / 2 from the origin and it calls the prism unbounded when
    delta <= 2 VERTEX_RTOL. Between the two they disagree."""
    W, b = capped_prism(delta)
    assert (bounded_by_hull(W, b), bounded_by_oracle(W, b)) == (by_hull, by_enumeration)


def criterion_8_draws():
    rng = np.random.default_rng(8)
    return {(n, int(rng.integers(n + 1, 7)), 3000 + i)
            for i, n in enumerate([2] * 50 + [3] * 50)}


# every (n, m, seed) a test draws a polytope with, but the hypothesis ones
POLYTOPE_DRAWS = sorted(
    {(n, m, 200 + 10 * n + m) for n in (2, 3) for m in (n + 1, n + 3, 2 * n + 2)}
    | {(n, m, 300 + m) for n in (2, 3) for m in (n + 1, n + 3, 2 * n + 2, 3 * n + 4)}
    | {(n, n + 2, 100 + i) for i, n in enumerate((2, 2, 3, 3))}
    | {(n, m, seed) for n, m in ((2, 7), (3, 9), (4, 11)) for seed in range(3)}
    | {(n, m, 7) for n, m in ((2, 3), (2, 6), (3, 4), (3, 8))}
    | {(2, 5, 1), (3, 6, 2)}
    | criterion_8_draws()
    # test_shrunk_polytope_samples_are_exact draws seed % 1000, n in 2..4
    | {(n, 2 * n + 2, seed) for n in (2, 3, 4) for seed in range(0, 1000, 37)})


def test_random_bounded_polytope_draws_what_the_enumeration_drew(monkeypatch):
    got = [random_bounded_polytope(*key) for key in POLYTOPE_DRAWS]
    monkeypatch.setattr(ConvexCell, "is_bounded", oracles.is_bounded)
    for key, cell in zip(POLYTOPE_DRAWS, got):
        want = random_bounded_polytope(*key)
        assert (cell.W.tobytes(), cell.b.tobytes()) == (want.W.tobytes(), want.b.tobytes()), key


def test_boundedness_is_one_convex_hull_per_cell_and_kept(monkeypatch):
    mesh = PolytopeMesh.from_doc(docio.loads(docio.dumps(
        random_polygon_mesh(2, n_sites=30).to_doc())))
    asked = []
    convex_hull = mesh_module.ConvexHull
    monkeypatch.setattr(mesh_module, "ConvexHull",
                        lambda U: asked.append(U) or convex_hull(U))
    mesh_module.validate_mesh(mesh, samples=1000)
    # every cell and the hull, whose LP blocks need it, once each
    cells = mesh.cells + [mesh.domain_hull]
    assert len(asked) == len(cells)
    for U, cell in zip(asked, cells):
        assert U.tobytes() == (cell.W / cell.norms[:, None]).tobytes()
    mesh_module.validate_mesh(mesh, samples=1000)
    mesh.vertex_sets()
    mesh_module.sample_cells(mesh, 5, seed=0)
    assert len(asked) == len(cells)
