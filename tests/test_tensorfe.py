import numpy as np
import pytest

from relufem import _chunks, tensorfe
from relufem._chunks import CHUNK_ELEMENTS
from relufem.errors import CompileError, DocumentError, VerifyError
from relufem.tensorfe import (TensorFE, TensorMesh, compile_1d_hat,
                              compile_tnn, cp_decompose, eval_tensor_fe,
                              matricization_rank_bound)

from oracles import cp_decompose_svd, tensor_eval_batch


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


def order2_cases():
    """Ten order-2 coefficient matrices of numerical ranks 1 to 400: some
    are accepted on the first or the second sketch rung, the others climb
    to the SVD of the whole matrix."""
    rng = np.random.default_rng(13)

    def product(m, n, r):
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))

    x, y = np.linspace(0, 1, 700), np.linspace(0, 1, 500)
    return {
        "800x800 rank 6": product(800, 800, 6),
        "1000x600 rank 1": product(1000, 600, 1),
        "700x800 rank 20": product(700, 800, 20),
        "600x1000 rank 30": product(600, 1000, 30),
        "500x500 rank 90": product(500, 500, 90),
        "1000x600 rank 90": product(1000, 600, 90),
        "gaussian 200x150": rng.standard_normal((200, 150)),
        "1/(1+x+y) 700x500": 1.0 / (1.0 + x[:, None] + y[None, :]),
        "sin(x+y) 700x500": np.sin(x[:, None] + y[None, :]),
        "full rank 400x400": rng.standard_normal((400, 400)) + np.eye(400),
    }


def test_order2_sketch_keeps_the_svd_rank():
    for name, T in order2_cases().items():
        ref = cp_decompose_svd(T)
        cp = cp_decompose(T)
        assert cp.rank == ref.rank, name
        assert cp.residual <= 4 * ref.residual, name
        np.testing.assert_allclose(cp.reconstruct(), T, rtol=0,
                                   atol=1e-10 * np.max(np.abs(T)), err_msg=name)
        # the sketch is drawn from the seed: any seed gives the rank
        assert cp_decompose(T, seed=7).rank == ref.rank, name


def test_order2_factors_repeat_bit_for_bit():
    T = order2_cases()["700x800 rank 20"]
    first, again = cp_decompose(T, seed=3), cp_decompose(T.copy(), seed=3)
    assert first.residual == again.residual
    for a, b in zip(first.factors, again.factors):
        assert a.tobytes() == b.tobytes()


def spy_on_svd(monkeypatch):
    """The shapes of the matrices np.linalg.svd is called on, in order."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def test_extreme_magnitudes_go_straight_to_the_full_svd(monkeypatch):
    # within 2^-400..2^400 no sum of squares of the sketch leaves the
    # normal floats; beyond, T's own SVD gives the rank and the factors
    shapes = spy_on_svd(monkeypatch)
    T = order2_cases()["800x800 rank 6"]
    assert cp_decompose(T * 2.0 ** -300).rank == 6
    assert shapes == [(16, 16)]
    for factor in (2.0 ** -500, 2.0 ** 500):
        shapes.clear()
        cp, ref = cp_decompose(T * factor), cp_decompose_svd(T * factor)
        assert shapes == [(800, 800), (800, 800)]
        assert cp.rank == ref.rank == 6
        for a, b in zip(cp.factors, ref.factors):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("T", [
    np.random.default_rng(14).standard_normal((400, 400)),
    np.random.default_rng(15).standard_normal((5, 6)),
    np.outer([1.0, 2.0, -1.0], [0.5, 1.5]),
    np.eye(2)], ids=["full rank 400x400", "5x6", "rank-one 3x2", "eye 2x2"])
def test_small_and_full_rank_inputs_reach_the_svd_bits(T):
    ref = cp_decompose_svd(T)
    cp = cp_decompose(T)
    assert cp.rank == ref.rank
    for a, b in zip(cp.factors, ref.factors):
        assert a.tobytes() == b.tobytes()
    assert cp.residual == pytest.approx(ref.residual, rel=1e-12, abs=1e-300)


def test_a_low_rank_800x800_never_runs_the_full_svd(monkeypatch):
    shapes = spy_on_svd(monkeypatch)
    T = order2_cases()["800x800 rank 6"]
    assert cp_decompose(T).rank == 6
    assert shapes == [(16, 16)]
    shapes.clear()
    # a full-rank matrix climbs every rung to the SVD of T itself
    assert cp_decompose(np.random.default_rng(16).standard_normal((400, 400))).rank == 400
    assert shapes == [(16, 16), (24, 24), (400, 400)]


@pytest.mark.parametrize("rank", [0, 3, 8])
def test_householder_qr_of_a_rank_deficient_sketch(rank):
    rng = np.random.default_rng(rank)
    Y = rng.standard_normal((50, rank)) @ rng.standard_normal((rank, 8))
    Y[:, 2] = 0.0
    Q, R = tensorfe._householder(Y)
    assert Q.shape == (50, 8) and R.shape == (8, 8)
    np.testing.assert_allclose(Q.T @ Q, np.eye(8), atol=1e-14)
    np.testing.assert_array_equal(R, np.triu(R))
    np.testing.assert_allclose(Q @ R, Y, atol=1e-13 * (1 + np.abs(Y).max()))


def test_cp_order3_exact_low_rank():
    c = np.einsum("i,j,k->ijk", [1.0, 2.0, 3.0], [1.0, -1.0], [0.5, 1.0, 2.0])
    cp = cp_decompose(c, target_tol=1e-12, seed=0)
    assert cp.rank == 1
    c2 = c + np.einsum("i,j,k->ijk", [0.0, 1.0, 0.0], [2.0, 1.0], [1.0, 0.0, 1.0])
    cp2 = cp_decompose(c2, target_tol=1e-10, seed=0)
    assert cp2.rank == 2
    assert np.linalg.norm(cp2.reconstruct() - c2) <= 1e-10 * np.linalg.norm(c2) + 1e-12


@pytest.mark.parametrize("tol", [-1.0, -1e-300, np.inf, -np.inf, np.nan])
def test_cp_refuses_a_negative_or_non_finite_target(tol):
    # a planted rank-2 tensor: such a target would end at rank 20
    rng = np.random.default_rng(5)
    planted = np.einsum("ri,rj,rk->ijk", rng.standard_normal((2, 4)),
                        rng.standard_normal((2, 5)), rng.standard_normal((2, 6)))
    u = TensorFE(TensorMesh([np.linspace(0, 1, d) for d in planted.shape]),
                 planted)
    for refuse in (lambda: cp_decompose(planted, target_tol=tol),
                   lambda: cp_decompose(np.eye(2), target_tol=tol),
                   lambda: compile_tnn(u, target_tol=tol)):
        with pytest.raises(CompileError, match=r"0 <= tol < inf"):
            refuse()
    assert cp_decompose(planted, target_tol=1e-12).rank == 2


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


@pytest.mark.parametrize("grid, values", [
    ([0.0, 5e-324, 1.0], [0.0, 1.0, 0.0]),  # slope 1 / 5e-324
    ([0.0, 1.0, 2.0], [0.0, 1e308, -1e308]),  # a value difference
    ([0.0, 1.0, 2.0], [0.0, 1.5e308, 0.0]),  # a slope difference
], ids=["slope", "value difference", "slope difference"])
def test_hat_weights_beyond_the_float_range_are_refused(grid, values):
    with pytest.raises(CompileError, match="overflow the float range"):
        compile_1d_hat(grid, values)


def test_compile_tnn_names_the_axis_whose_weights_overflow():
    mesh = TensorMesh([[0.0, 0.5, 1.0], [0.0, 5e-324, 1.0]])
    u = TensorFE(mesh, np.outer([1.0, 2.0, 3.0], [0.0, 1.0, 0.0]))
    with pytest.raises(CompileError, match="^axis 1: hat weights overflow"):
        compile_tnn(u)


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


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
def test_an_all_zero_tensor_compiles_to_a_rank_one_zero_net(shape):
    cp = cp_decompose(np.zeros(shape))
    assert cp.rank == 1 and cp.residual == 0.0
    assert [f.shape for f in cp.factors] == [(1, d) for d in shape]
    assert not any(np.any(f) for f in cp.factors)
    net = compile_tnn(TensorFE(grid_mesh(*shape), np.zeros(shape)))
    assert net.rank == 1 and net.widths == list(shape)
    assert all(not np.any(weights) for _, _, weights in net.branches)
    X = np.random.default_rng(12).uniform(0, 1, (200, len(shape)))
    assert np.all(net(X) == 0.0)


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
