"""The stacked cell geometry of non-simplex cells (boundedness, vertex
sets, shrunk tilings and facet pruning for a whole list of cells at once)
against the per-cell enumeration kept in `oracles.py`, byte for byte, and
the same bits for a cell alone as in any stack."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relufem import docio
from relufem import mesh as mesh_module
from relufem.errors import MeshError
from relufem.mesh import ConvexCell, PolytopeMesh
from relufem.meshgen import random_bounded_polytope, random_polygon_mesh
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
    the whole list: one fill of boundedness and vertex sets, one tiling
    call and one pruning call for the cells that have vertex sets."""
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

    def spy(cells, tol=1e-9):
        handed.append([(c.W, c.b) for c in cells])
        return prune(cells, tol)

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
    enumerate_ = mesh_module._feasible_intersections
    monkeypatch.setattr(mesh_module, "_feasible_intersections",
                        lambda *a: calls.append(len(a[0])) or enumerate_(*a))
    mesh_module.validate_mesh(mesh, samples=1000)
    mesh.bounding_box()
    rng = np.random.default_rng(0)
    PiecewiseLinear(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)),
                    rng.uniform(-1, 1, mesh.n_cells)).sup_norm()
    mesh_module.sample_cells(mesh, 5, seed=0)
    # one boundedness pass over the cells and the hull, one vertex pass
    assert calls == [mesh.n_cells + 1, mesh.n_cells]


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

