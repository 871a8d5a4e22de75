"""The directed-hyperplane registry and the duplicate-neuron merge against
their loop-by-loop references in `oracles.py`: the registry must give the
linear scan's facet-to-entry map, scales and classification exactly, and
the merge the dict merge's triplets bit for bit."""

import numpy as np
import pytest

from relufem.cli import main
from relufem.compiler import (compile_compact_support,
                              compile_weak_representation,
                              merge_duplicate_neurons)
from relufem.errors import CompileError
from relufem.mesh import (DEDUP_TOL, ConvexCell, DirectedHyperplaneRegistry,
                          PolytopeMesh, build_registry, freudenthal_mesh,
                          min_inradius)
from relufem.meshgen import (demo_polygon_mesh, random_polygon_mesh,
                             random_simplex_mesh)
from relufem.pwl import PiecewiseLinear

from oracles import ScanRegistry, dict_merge

SQUARE_W = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


def doubled_squares():
    """Two stacked unit squares; the upper one stores its lower facet as
    (2w, 2b), a positive multiple of the lower square's upper facet
    reversed, and its x <= 1 facet as a bit-identical copy."""
    lower = ConvexCell(SQUARE_W, [0.0, 1.0, 0.0, 1.0])
    upper = ConvexCell([[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [0.0, 1.0, -1.0, 2.0])
    return PolytopeMesh(2, [lower, upper])


def repeated_halfspace_square():
    """A unit square whose facet x >= 0 is listed twice, beside a second
    square: the repeated facet gives two first-layer terms of one bump
    that merge onto one (row, column)."""
    left = ConvexCell([[1.0, 0.0]] + SQUARE_W, [0.0, 0.0, 1.0, 0.0, 1.0])
    right = ConvexCell(SQUARE_W, [-1.0, 2.0, 0.0, 1.0])
    return PolytopeMesh(2, [left, right])


MESHES = {
    "pentagon": demo_polygon_mesh,
    "freudenthal 1D": lambda: freudenthal_mesh(1, 5),
    "freudenthal 2D": lambda: freudenthal_mesh(2, 3),
    "freudenthal 3D": lambda: freudenthal_mesh(3, 2),
    "jittered 3D N=2": lambda: random_simplex_mesh(3, 2, 1),
    "jittered 3D N=3": lambda: random_simplex_mesh(3, 3, 2),
    "jittered 3D N=4": lambda: random_simplex_mesh(3, 4, 3),
    "voronoi seed 4": lambda: random_polygon_mesh(4),
    "voronoi seed 11": lambda: random_polygon_mesh(11, n_sites=14),
    "doubled squares": doubled_squares,
    "repeated halfspace": repeated_halfspace_square,
}


def assert_same_registry(reg, ref):
    np.testing.assert_array_equal(reg.entry, ref.entry)
    assert reg.scale.tobytes() == np.array(ref.scale).tobytes()
    np.testing.assert_array_equal(reg.rep, ref.rep)
    np.testing.assert_array_equal(reg.undirected, ref.undirected)
    np.testing.assert_array_equal(reg.interior, ref.interior)
    assert (reg.size, reg.interior_count, reg.boundary_count) == \
        (ref.size, ref.interior_count, ref.boundary_count)


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("with_hull", [False, True])
def test_registry_matches_linear_scan(name, with_hull):
    mesh = MESHES[name]()
    hull = mesh.domain_hull if with_hull else None
    if with_hull and hull is None:
        hull = ConvexCell(SQUARE_W, [1.0, 2.0, 1.0, 2.0])
    assert_same_registry(build_registry(mesh, hull=hull),
                         ScanRegistry(mesh, hull=hull))


def hulls_of(mesh):
    """None (the weak table) and a hull: the mesh's own, else a square
    around the 2D test meshes that have none."""
    hull = mesh.domain_hull
    return [None, ConvexCell(SQUARE_W, [1.0, 2.0, 1.0, 2.0]) if hull is None
            else hull]


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(MESHES))
def test_tables_and_registries_are_built_once_per_hull(name):
    mesh = MESHES[name]()
    for hull in hulls_of(mesh):
        table, reg = mesh.facets(hull), mesh.registry(hull)
        assert mesh.facets(hull) is table and mesh.registry(hull) is reg
        # the hull is the last block, tagged -1: the old separate stacking
        W, b, starts, tags = mesh.facets()
        if hull is not None:
            hull_tags = np.column_stack([np.full(hull.m, -1), np.arange(hull.m)])
            W, b = np.vstack([W, hull.W]), np.concatenate([b, hull.b])
            starts = np.append(starts, len(mesh.facets()[1]))
            tags = np.vstack([tags, hull_tags])
        assert_same_arrays(table, (W, b, starts, tags))
        for a in table:
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[1][0] = 0.0
        fresh = build_registry(mesh, hull=hull)
        assert fresh is not reg
        fields = ("W", "b", "starts", "tags", "norms", "entry", "scale", "rep",
                  "undirected", "interior")
        assert_same_arrays([getattr(reg, f) for f in fields],
                           [getattr(fresh, f) for f in fields])
        assert (reg.size, reg.interior_count, reg.boundary_count) == \
            (fresh.size, fresh.interior_count, fresh.boundary_count)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_registry_norms_are_the_per_vector_norms_bitwise(name):
    # the row-wise norm may differ in the last ulp; one vector's norm may not
    mesh = MESHES[name]()
    for hull in hulls_of(mesh):
        reg = build_registry(mesh, hull=hull)
        per_vector = np.array([np.linalg.norm(w) for w in reg.W])
        assert reg.norms.tobytes() == per_vector.tobytes()


def test_compact_build_makes_one_registry_per_hull(tmp_path, monkeypatch):
    hulls = []
    build = DirectedHyperplaneRegistry.build.__func__

    def spy(cls, mesh, hull=None):
        hulls.append(hull)
        return build(cls, mesh, hull=hull)

    monkeypatch.setattr(DirectedHyperplaneRegistry, "build", classmethod(spy))
    mesh = random_polygon_mesh(4)
    mesh.save(tmp_path / "mesh.json")
    rng = np.random.default_rng(3)
    PiecewiseLinear(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)),
                    rng.uniform(-1, 1, mesh.n_cells)).save(tmp_path / "fn.json")
    hulls.clear()
    rc = main(["build", "--mesh", str(tmp_path / "mesh.json"),
               "--function", str(tmp_path / "fn.json"), "--epsilon", "1e-3",
               "--compact-support", "--samples", "50",
               "--output", str(tmp_path / "net.json")])
    assert rc == 0
    # the compile and the count check share the hull's, the summary line
    # and the count check the weak one
    assert sorted(hull is None for hull in hulls) == [False, True]


def one_facet_mesh(keys):
    """A 'mesh' of one-facet 2D cells, one per (w1, w2, b): the registry
    reads facets only, so the cells need not be bounded."""
    return PolytopeMesh(2, [ConvexCell([k[:2]], [k[2]]) for k in keys])


def test_keys_at_the_tolerance_edge():
    # unit normals (1, d) with |d| <= 1e-8 have norm exactly 1, so these
    # keys differ from (1, 0, 0) by exactly d in one coordinate; a third
    # facet is the second one reversed, to pair at the same distance
    tol = DEDUP_TOL
    edges = {"at": tol, "inside": np.nextafter(tol, 0.0),
             "outside": np.nextafter(tol, 1.0)}
    for coord in (1, 2):
        for label, d in edges.items():
            for sign in (1.0, -1.0):
                key = [1.0, 0.0, 0.0]
                key[coord] = sign * d
                mesh = one_facet_mesh([[1.0, 0.0, 0.0], key,
                                       [-x for x in key]])
                reg = build_registry(mesh)
                merged = reg.entry[1] == reg.entry[0]
                assert merged == (label != "outside"), (coord, label, sign)
                assert_same_registry(reg, ScanRegistry(mesh))


def test_tolerance_is_not_transitive():
    # b = tol joins the entry of b = 0; b = nextafter(tol) is within tol of
    # b = tol but not of that entry's representative, so it founds its own
    tol = DEDUP_TOL
    rng = np.random.default_rng(5)
    steps = [0.0, tol, -tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0),
             2.0 * tol, np.nextafter(2.0 * tol, 1.0), 0.5 * tol]
    for _ in range(40):
        keys = []
        for _ in range(12):
            sign = rng.choice([1.0, -1.0])
            key = [sign, 0.0, 0.0]
            key[rng.integers(1, 3)] = rng.choice(steps)
            keys.append(key)
        mesh = one_facet_mesh(keys)
        assert_same_registry(build_registry(mesh), ScanRegistry(mesh))


def merge_cases():
    rng = np.random.default_rng(17)
    for name in sorted(MESHES):
        mesh = MESHES[name]()
        if mesh.n_cells > 100:
            continue
        v = PiecewiseLinear.constant(
            mesh, rng.uniform(-1.0, 1.0, mesh.n_cells))
        eps = 1e-2 * min_inradius(mesh)
        yield name, mesh, None, compile_weak_representation(
            mesh, v, eps, merge=False)
        if mesh.domain_hull is not None:
            yield name, mesh, mesh.domain_hull, compile_compact_support(
                mesh, v, eps, merge=False)


def test_merge_matches_dict_merge_bitwise():
    for name, mesh, hull, pre in merge_cases():
        ref = ScanRegistry(mesh, hull=hull)
        expected = np.array(dict_merge(pre.W2_rows, pre.W2_cols, pre.W2_vals,
                                       ref.entry, ref.scale))
        if name == "repeated halfspace":
            # the repeated facet's two terms share one (row, column)
            assert len(expected) < pre.W2_vals.size
        post = merge_duplicate_neurons(pre, build_registry(mesh, hull=hull))
        np.testing.assert_array_equal(post.W2_rows, expected[:, 0])
        np.testing.assert_array_equal(post.W2_cols, expected[:, 1])
        assert post.W2_vals.tobytes() == expected[:, 2].tobytes(), name
        W, b, _, _ = mesh.facets(hull)
        eps = pre.provenance["epsilon"]
        b1 = [b[r] - eps * np.linalg.norm(W[r]) for r in ref.rep]
        np.testing.assert_array_equal(post.W1, W[ref.rep])
        assert post.b1.tobytes() == np.array(b1).tobytes(), name


def test_merge_refuses_tags_of_another_table():
    # a compact net's hull rows have no place in the mesh-only table
    mesh = freudenthal_mesh(2, 2)
    v = PiecewiseLinear.constant(mesh, np.linspace(-1.0, 1.0, mesh.n_cells))
    compact = compile_compact_support(mesh, v, 1e-3, merge=False)
    with pytest.raises(CompileError, match="tags"):
        merge_duplicate_neurons(compact, mesh.registry())
