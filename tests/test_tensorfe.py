import numpy as np
import pytest

from relufem import _chunks
from relufem._chunks import CHUNK_ELEMENTS
from relufem.errors import CompileError, DocumentError, VerifyError
from relufem.tensorfe import (TensorFE, TensorMesh, compile_1d_hat,
                              compile_tnn, cp_decompose, eval_tensor_fe,
                              matricization_rank_bound)

from oracles import tensor_eval_batch


def grid_mesh(*counts, spans=None):
    spans = spans or [(0.0, 1.0)] * len(counts)
    return TensorMesh([np.linspace(a, b, c) for (a, b), c in zip(spans, counts)])


def test_mesh_rejects_bad_grids():
    with pytest.raises(DocumentError):
        TensorMesh([[0.0]])
    with pytest.raises(DocumentError):
        TensorMesh([[0.0, 0.0, 1.0]])


def test_eval_partition_of_unity():
    mesh = grid_mesh(3, 4)
    u = TensorFE(mesh, np.ones((3, 4)))
    X = np.random.default_rng(0).uniform(0, 1, (200, 2))
    np.testing.assert_allclose(u(X), 1.0, atol=1e-14)


def test_eval_bilinear_center():
    mesh = grid_mesh(2, 2)
    u = TensorFE(mesh, [[0.0, 0.0], [0.0, 1.0]])
    assert eval_tensor_fe(u, [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)


def test_eval_hits_nodal_values():
    mesh = grid_mesh(4, 3)
    rng = np.random.default_rng(1)
    c = rng.standard_normal((4, 3))
    u = TensorFE(mesh, c)
    for i, ti in enumerate(mesh.grids[0]):
        for j, tj in enumerate(mesh.grids[1]):
            assert u.eval([ti, tj]) == pytest.approx(c[i, j], abs=1e-14)


@pytest.mark.parametrize("counts", [(), (5,), (2, 2), (7, 4), (2, 5, 10),
                                    (3, 4, 2, 3)])
def test_eval_batch_matches_the_corner_loop_bit_for_bit(counts):
    rng = np.random.default_rng(len(counts))
    grids = [np.sort(np.r_[0.0, rng.uniform(0, 1, c - 2), 1.0]) for c in counts]
    u = TensorFE(TensorMesh(grids), rng.standard_normal(counts))
    X = rng.uniform(0, 1, (5000, len(counts)))
    # grid nodes, the box's faces, and just inside and outside its tolerance
    X[:100] = rng.choice([0.0, 1.0, 1e-13, 1 + 1e-13, -1e-13], (100, len(counts)))
    if counts:
        X[100:200, 0] = rng.choice(grids[0], 100)
    got = u.eval_batch(X)
    assert np.array_equal(got.view(np.int64), tensor_eval_batch(u, X).view(np.int64))
    # a Fortran-ordered coefficient array reads the same
    v = TensorFE(u.mesh, np.array(u.coefficients, order="F"))
    assert np.array_equal(v.eval_batch(X).view(np.int64), got.view(np.int64))


def test_eval_outside_box_errors():
    u = TensorFE(grid_mesh(2, 2), np.zeros((2, 2)))
    with pytest.raises(VerifyError):
        u.eval([1.5, 0.5])


@pytest.mark.parametrize("workers", [2, 3])
def test_eval_batch_keeps_its_bits_on_any_worker_count(monkeypatch, workers):
    rng = np.random.default_rng(41)
    counts = (2, 5, 10)
    grids = [np.sort(np.r_[0.0, rng.uniform(0, 1, c - 2), 1.0]) for c in counts]
    u = TensorFE(TensorMesh(grids), rng.standard_normal(counts))
    X = rng.uniform(0, 1, (200000, 3))
    assert len(X) > 3 * (CHUNK_ELEMENTS // (2 * 3 + 2))
    # every grid node, spread over the chunks, and NaN rows
    nodes = np.array(np.meshgrid(*grids, indexing="ij")).reshape(3, -1).T
    X[rng.choice(len(X), len(nodes), replace=False)] = nodes
    X[rng.choice(len(X), 6, replace=False), rng.integers(3, size=6)] = np.nan
    monkeypatch.setattr(_chunks, "_workers", 1)
    serial = u.eval_batch(X)
    monkeypatch.setattr(_chunks, "_workers", workers)
    pooled = u.eval_batch(X)
    assert _chunks._pool[0] == workers
    assert np.isnan(serial).sum() == 6
    assert pooled.tobytes() == serial.tobytes()
    assert serial.tobytes() == tensor_eval_batch(u, X).tobytes()


def test_eval_batch_names_the_first_axis_that_leaves_the_box(monkeypatch):
    # an early chunk leaves the box on axis 1 and a late one on axis 0:
    # the whole batch is checked, axis by axis, before any chunk runs
    monkeypatch.setattr(_chunks, "_workers", 2)
    u = TensorFE(grid_mesh(3, 4), np.zeros((3, 4)))
    X = np.random.default_rng(43).uniform(0, 1, (300000, 2))
    X[10, 1] = 1.5
    X[290000, 0] = -0.5
    with pytest.raises(VerifyError, match="^point outside the grid box on axis 0$"):
        u.eval_batch(X)


def test_cp_rank_one_outer_product():
    c = np.outer([1.0, 2.0, -1.0], [0.5, 1.5])
    cp = cp_decompose(c)
    assert cp.rank == 1
    assert cp.residual <= 1e-12 * np.linalg.norm(c)


def test_cp_identity_rank_two():
    cp = cp_decompose(np.eye(2))
    assert cp.rank == 2


def test_cp_generic_5x6_full_rank():
    c = np.random.default_rng(2).standard_normal((5, 6))
    cp = cp_decompose(c)
    assert cp.rank == 5
    np.testing.assert_allclose(cp.reconstruct(), c, atol=1e-12)


def test_cp_reconstruction_matches_declared_residual():
    c = np.random.default_rng(3).standard_normal((4, 4))
    cp = cp_decompose(c)
    assert np.linalg.norm(cp.reconstruct() - c) <= cp.residual + 1e-12


def test_cp_order3_exact_low_rank():
    c = np.einsum("i,j,k->ijk", [1.0, 2.0, 3.0], [1.0, -1.0], [0.5, 1.0, 2.0])
    cp = cp_decompose(c, target_tol=1e-12, seed=0)
    assert cp.rank == 1
    c2 = c + np.einsum("i,j,k->ijk", [0.0, 1.0, 0.0], [2.0, 1.0], [1.0, 0.0, 1.0])
    cp2 = cp_decompose(c2, target_tol=1e-10, seed=0)
    assert cp2.rank == 2
    assert np.linalg.norm(cp2.reconstruct() - c2) <= 1e-10 * np.linalg.norm(c2) + 1e-12


def test_cp_rank_never_exceeds_matricization_bound():
    rng = np.random.default_rng(4)
    for shape in ((2, 2, 2), (3, 2, 2), (2, 3, 4)):
        c = rng.standard_normal(shape)
        cp = cp_decompose(c, target_tol=1e-13, seed=1)
        assert cp.rank <= matricization_rank_bound(shape)
        np.testing.assert_allclose(cp.reconstruct(), c,
                                   atol=1e-10 * np.linalg.norm(c) + 1e-12)


def test_hat_weights_frozen():
    W, b, w = compile_1d_hat([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(W.ravel(), [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(b, [0.0, -0.5, 1.0])
    np.testing.assert_allclose(w, [2.0, -4.0, 0.0], atol=1e-14)


def test_hat_zero_values():
    _, _, w = compile_1d_hat([0.0, 0.3, 0.9], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(w, np.zeros(3))


def test_hat_constant_one_uses_bias_neuron():
    _, _, w = compile_1d_hat([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(w, [0.0, 0.0, 1.0], atol=1e-14)


def test_hat_repeated_node_rejected():
    with pytest.raises(CompileError):
        compile_1d_hat([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 0.0])


def test_hat_interpolates_and_is_piecewise_linear():
    rng = np.random.default_rng(5)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 6))])
    values = rng.standard_normal(7)
    W, b, w = compile_1d_hat(grid, values)

    def l(x):
        return float(w @ np.maximum(W.ravel() * x + b, 0.0))

    for t, c in zip(grid, values):
        assert l(t) == pytest.approx(c, abs=1e-10)
    for i in range(len(grid) - 1):
        mid = 0.5 * (grid[i] + grid[i + 1])
        assert l(mid) - 0.5 * (l(grid[i]) + l(grid[i + 1])) == \
            pytest.approx(0.0, abs=1e-9)


def test_compile_tnn_xy():
    u = TensorFE(grid_mesh(2, 2), [[0.0, 0.0], [0.0, 1.0]])
    net = compile_tnn(u)
    assert net.rank == 1
    X = np.random.default_rng(6).uniform(0, 1, (500, 2))
    np.testing.assert_allclose(net(X), X[:, 0] * X[:, 1], atol=1e-13)


def test_compile_tnn_constant():
    u = TensorFE(grid_mesh(4, 5), np.ones((4, 5)))
    net = compile_tnn(u)
    assert net.rank == 1
    X = np.random.default_rng(7).uniform(0, 1, (500, 2))
    np.testing.assert_allclose(net(X), 1.0, atol=1e-12)


def test_compile_tnn_generic_sizes():
    rng = np.random.default_rng(8)
    # 5x6 nodes: rank 5, widths 5 and 6
    u = TensorFE(grid_mesh(5, 6), rng.standard_normal((5, 6)))
    net = compile_tnn(u)
    assert net.rank == 5
    assert net.widths == [5, 6]
    # 4x5 nodes: a generic matrix of that shape has rank 4
    u2 = TensorFE(grid_mesh(4, 5), rng.standard_normal((4, 5)))
    net2 = compile_tnn(u2)
    assert net2.rank == 4
    assert net2.widths == [4, 5]


def test_compile_tnn_matches_fe_everywhere():
    rng = np.random.default_rng(9)
    u = TensorFE(grid_mesh(5, 6, spans=[(0, 1), (-1, 2)]),
                 rng.standard_normal((5, 6)))
    net = compile_tnn(u)
    X = np.column_stack([rng.uniform(0, 1, 5000), rng.uniform(-1, 2, 5000)])
    limit = 1e-9 * (1 + np.max(np.abs(u.coefficients)))
    assert np.max(np.abs(net(X) - u(X))) <= limit


def test_whole_space_rank_padding():
    rng = np.random.default_rng(10)
    u = TensorFE(grid_mesh(4, 5), np.outer(rng.standard_normal(4),
                                           rng.standard_normal(5)))
    plain = compile_tnn(u)
    padded = compile_tnn(u, whole_space_rank=True)
    assert plain.rank == 1
    assert padded.rank == matricization_rank_bound((4, 5)) == 4
    X = rng.uniform(0, 1, (300, 2))
    np.testing.assert_allclose(padded(X), plain(X), atol=1e-12)


def test_tensorfe_document_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    u = TensorFE(grid_mesh(3, 4), rng.standard_normal((3, 4)))
    path = tmp_path / "u.json"
    u.save(path)
    again = TensorFE.load(path)
    np.testing.assert_array_equal(again.coefficients, u.coefficients)
    for g1, g2 in zip(again.mesh.grids, u.mesh.grids):
        np.testing.assert_array_equal(g1, g2)


def test_tensorfe_document_errors():
    with pytest.raises(DocumentError, match="grids"):
        TensorFE.from_doc({"shape": [2, 2], "coefficients": [0, 0, 0, 0]})
    with pytest.raises(DocumentError, match="length"):
        TensorFE.from_doc({"grids": [[0.0, 1.0], [0.0, 1.0]],
                           "shape": [2, 2], "coefficients": [1.0]})


def test_hat_weights_match_forward_substitution():
    # the lower-triangular solve l(t_i) = values_i, kept as the reference
    rng = np.random.default_rng(12)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 60))])
    values = rng.standard_normal(61)
    _, _, w = compile_1d_hat(grid, values)
    N = grid.size - 1
    ref = np.zeros(N + 1)
    ref[N] = values[0]
    for i in range(1, N + 1):
        acc = ref[N] + ref[:i - 1] @ (grid[i] - grid[:i - 1])
        ref[i - 1] = (values[i] - acc) / (grid[i] - grid[i - 1])
    np.testing.assert_allclose(w, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))


def test_cp_search_starts_at_the_unfolding_rank(monkeypatch):
    import relufem.tensorfe as tensorfe
    tried = []
    als = tensorfe._als

    def recording_als(T, rank, seed):
        tried.append(rank)
        return als(T, rank, seed)

    monkeypatch.setattr(tensorfe, "_als", recording_als)
    rng = np.random.default_rng(6)
    # generic 2x5x10: unfolding rank 10 equals the bound, so no ALS at all
    cp = cp_decompose(rng.standard_normal((2, 5, 10)))
    assert (cp.rank, tried) == (10, [])
    # planted rank 2 in 3x3x3: unfolding ranks are 2, so ALS starts there
    A, B, C = (rng.standard_normal((3, 2)) for _ in range(3))
    c = np.einsum("ip,jp,kp->ijk", A, B, C)
    cp = cp_decompose(c, target_tol=1e-10, seed=0)
    assert tried[0] == 2 and cp.rank == tried[-1]
