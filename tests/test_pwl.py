import numpy as np
import pytest

from relufem.errors import DocumentError, MeshError
from relufem.mesh import ConvexCell, PolytopeMesh, freudenthal_mesh
from relufem.pwl import PiecewiseLinear, eval_pwl, nodal_linear, sup_norm


def interval_mesh(*breaks):
    cells = [ConvexCell.from_simplex([[breaks[i]], [breaks[i + 1]]])
             for i in range(len(breaks) - 1)]
    return PolytopeMesh(1, cells)


def test_constant_field_everywhere():
    mesh = freudenthal_mesh(2, 2)
    v = PiecewiseLinear.constant(mesh, np.full(mesh.n_cells, 3.0))
    assert eval_pwl(v, [0.3, 0.1]).value == pytest.approx(3.0, abs=0)
    assert eval_pwl(v, [0.9, 0.6]).value == pytest.approx(3.0, abs=0)


def test_identity_piece_on_interval():
    mesh = interval_mesh(0.0, 1.0)
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    res = eval_pwl(v, [0.25])
    assert res.value == pytest.approx(0.25, abs=1e-15)
    assert res.cell == 0
    assert not res.on_boundary


def test_two_cell_evaluation():
    # pieces 2x and -4x+3; at x=0.75 the second piece gives 0
    mesh = interval_mesh(0.0, 0.5, 1.0)
    v = PiecewiseLinear(mesh, [[2.0], [-4.0]], [0.0, 3.0])
    res = eval_pwl(v, [0.75])
    assert res.cell == 1
    assert res.value == pytest.approx(0.0, abs=1e-15)


def test_eval_outside_mesh_errors():
    mesh = interval_mesh(0.0, 1.0)
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    with pytest.raises(MeshError, match="outside"):
        eval_pwl(v, [2.0])


def test_boundary_point_is_flagged():
    mesh = interval_mesh(0.0, 0.5, 1.0)
    v = PiecewiseLinear(mesh, [[1.0], [1.0]], [0.0, 0.0])
    res = eval_pwl(v, [0.5])
    assert res.on_boundary
    assert res.cell in (0, 1)


def test_nodal_all_ones_is_constant():
    mesh = freudenthal_mesh(2, 2)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.ones(len(verts)))
    np.testing.assert_allclose(v.gradients, 0.0, atol=1e-12)
    np.testing.assert_allclose(v.constants, 1.0, atol=1e-12)


def test_nodal_1d_hat():
    # nodes (0, 0.5, 1) with values (0, 1, 0): pieces (2, 0) and (-2, 2)
    mesh = interval_mesh(0.0, 0.5, 1.0)
    v = nodal_linear(mesh, {0: 0.0, 1: 1.0, 2: 0.0})
    np.testing.assert_allclose(v.gradients, [[2.0], [-2.0]], atol=1e-12)
    np.testing.assert_allclose(v.constants, [0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("values", [{-3: 1.0, 1: 2.0, 2: 3.0},
                                    {0: 1.0, 1: 2.0, 7: 3.0}],
                         ids=["negative", "past the end"])
def test_nodal_keys_outside_the_vertex_table_are_refused(values):
    # -3 used to overwrite vertex 0 and 7 to raise IndexError
    with pytest.raises(MeshError, match=r"exactly one key .* \[0, 3\)"):
        nodal_linear(interval_mesh(0.0, 0.5, 1.0), values)


@pytest.mark.parametrize("values", [{0: 0.0, "0": 1.0, 1: 0.0},
                                    {0: 0.0, 1.5: 1.0, 2: 0.0},
                                    {0: 0.0, "01": 1.0, 2: 0.0}],
                         ids=["int and string", "fraction", "leading zero"])
def test_nodal_keys_that_alias_a_vertex_are_refused(values):
    with pytest.raises(MeshError, match="exactly one key"):
        nodal_linear(interval_mesh(0.0, 0.5, 1.0), values)


def test_nodal_keys_may_be_index_strings():
    mesh = interval_mesh(0.0, 0.5, 1.0)
    assert nodal_linear(mesh, {"2": 0.0, "0": 0.0, "1": 1.0}).nodal_values.tolist() \
        == [0.0, 1.0, 0.0]


def test_nodal_unit_triangle():
    cell = ConvexCell.from_simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = PolytopeMesh(2, [cell])
    v = nodal_linear(mesh, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(v.gradients, [[1.0, 0.0]], atol=1e-12)
    assert v.constants[0] == pytest.approx(0.0, abs=1e-12)


def test_nodal_reproduces_vertex_values():
    mesh = freudenthal_mesh(2, 3)
    verts, _ = mesh.vertex_table()
    rng = np.random.default_rng(11)
    values = rng.uniform(-2, 2, len(verts))
    v = nodal_linear(mesh, values)
    for i in (0, 3, 7, len(verts) - 1):
        assert eval_pwl(v, verts[i]).value == pytest.approx(values[i], abs=1e-10)


def test_nodal_needs_all_vertices():
    mesh = interval_mesh(0.0, 1.0)
    with pytest.raises(MeshError):
        nodal_linear(mesh, [1.0])


def test_sup_norm_constant():
    mesh = interval_mesh(0.0, 1.0)
    v = PiecewiseLinear.constant(mesh, [-2.0])
    assert sup_norm(v) == pytest.approx(2.0, abs=0)


def test_sup_norm_identity():
    mesh = interval_mesh(0.0, 1.0)
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    assert sup_norm(v) == pytest.approx(1.0, abs=1e-9)


def test_sup_norm_square_plane():
    # x + y - 1 on the unit square: extrema at corners give sup 1
    W = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    mesh = PolytopeMesh(2, [ConvexCell(W, [0.0, 1.0, 0.0, 1.0])])
    v = PiecewiseLinear(mesh, [[1.0, 1.0]], [-1.0])
    assert sup_norm(v) == pytest.approx(1.0, abs=1e-9)


def test_sup_norm_dominates_samples():
    mesh = freudenthal_mesh(2, 2)
    verts, _ = mesh.vertex_table()
    rng = np.random.default_rng(5)
    v = nodal_linear(mesh, rng.uniform(-3, 3, len(verts)))
    R = sup_norm(v)
    X = rng.uniform(0, 1, (2000, 2))
    vals, _ = v.eval_batch(X)
    assert np.all(np.abs(vals) <= R + 1e-10)


def test_constant_kind_is_cellwise_exact():
    mesh = freudenthal_mesh(2, 2)
    rng = np.random.default_rng(6)
    v = PiecewiseLinear.constant(mesh, rng.uniform(-1, 1, mesh.n_cells))
    X = rng.uniform(0.01, 0.99, (500, 2))
    vals, cells = v.eval_batch(X)
    for ci in np.unique(cells):
        cell_vals = vals[cells == ci]
        assert np.all(cell_vals == cell_vals[0])


def test_constant_kind_rejects_gradients():
    mesh = interval_mesh(0.0, 1.0)
    with pytest.raises(DocumentError):
        PiecewiseLinear(mesh, [[1.0]], [0.0], kind="constant")


def test_function_document_round_trip(tmp_path):
    mesh = freudenthal_mesh(1, 3)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.linspace(-1, 1, len(verts)))
    path = tmp_path / "fn.json"
    v.save(path)
    again = PiecewiseLinear.load(path, mesh)
    assert again.kind == "nodal-linear"
    np.testing.assert_array_equal(again.gradients, v.gradients)
    np.testing.assert_array_equal(again.constants, v.constants)

    w = PiecewiseLinear(mesh, np.ones((3, 1)), [0.0, 0.5, -0.5])
    w.save(path)
    wagain = PiecewiseLinear.load(path, mesh)
    np.testing.assert_array_equal(wagain.gradients, w.gradients)
    np.testing.assert_array_equal(wagain.constants, w.constants)


def test_function_document_errors():
    mesh = interval_mesh(0.0, 0.5, 1.0)
    with pytest.raises(DocumentError, match="kind"):
        PiecewiseLinear.from_doc({"pieces": []}, mesh)
    with pytest.raises(DocumentError, match="pieces"):
        PiecewiseLinear.from_doc(
            {"kind": "general", "pieces": [{"a": [1.0], "c": 0.0}]}, mesh)
    with pytest.raises(DocumentError, match="missing vertex"):
        PiecewiseLinear.from_doc(
            {"kind": "nodal-linear", "nodal_values": {"0": 1.0}}, mesh)
    with pytest.raises(DocumentError, match="out of range"):
        PiecewiseLinear.from_doc(
            {"kind": "nodal-linear",
             "nodal_values": {str(i): 0.0 for i in range(99)}}, mesh)


def test_a_function_takes_no_nodal_values_beside_its_pieces(tmp_path):
    mesh = freudenthal_mesh(2, 1)
    verts, _ = mesh.vertex_table()
    zeros = np.zeros((mesh.n_cells, 2)), np.zeros(mesh.n_cells)
    with pytest.raises(TypeError):
        PiecewiseLinear(mesh, *zeros, kind="nodal-linear",
                        nodal_values=np.ones(len(verts)))
    # the pieces are the function, and they are what a document keeps
    v = PiecewiseLinear(mesh, *zeros, kind="nodal-linear")
    assert v.nodal_values is None and "pieces" in v.to_doc()
    v.save(tmp_path / "v.json")
    assert PiecewiseLinear.load(tmp_path / "v.json", mesh).sup_norm() == v.sup_norm() == 0.0


def test_a_nodal_interpolant_keeps_its_sup_norm_through_a_file(tmp_path):
    mesh = freudenthal_mesh(2, 3)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.random.default_rng(12).uniform(-2, 2, len(verts)))
    v.save(tmp_path / "v.json")
    again = PiecewiseLinear.load(tmp_path / "v.json", mesh)
    assert again.sup_norm() == v.sup_norm()
    assert np.array_equal(again.nodal_values, v.nodal_values)
    assert again.gradients.tobytes() == v.gradients.tobytes()
    assert again.constants.tobytes() == v.constants.tobytes()
