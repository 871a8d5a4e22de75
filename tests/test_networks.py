import contextlib
import os
import signal
import sys
import threading

import numpy as np
import pytest

from relufem import _chunks
from relufem._chunks import CHUNK_ELEMENTS
from relufem.compiler import (compile_compact_support,
                              compile_weak_representation)
from relufem.errors import DocumentError
from relufem.mesh import freudenthal_mesh
from relufem.meshgen import random_polygon_mesh
from relufem.networks import (ReluNet2, TensorNet, deserialize, fnn_forward,
                              serialize, tnn_forward)
from relufem.pwl import PiecewiseLinear, nodal_linear
from relufem.tensorfe import compile_1d_hat


def tiny_net(output_bias=None):
    return ReluNet2(
        W1=[[1.0], [-1.0]],
        b1=[-0.1, 0.9],
        W2_triplets=[(0, 0, -10.0), (0, 1, -10.0)],
        b2=[9.0],
        w3=[1.0],
        output_bias=output_bias,
    )


def test_zero_network():
    net = ReluNet2([[0.0]], [0.0], [], [0.0], [0.0])
    assert fnn_forward(net, [3.0]) == 0.0
    net_b = ReluNet2([[0.0]], [0.0], [], [0.0], [0.0], output_bias=0.25)
    assert fnn_forward(net_b, [3.0]) == 0.25


def test_hand_evaluated_net():
    # relu(-10*relu(x-0.1) - 10*relu(0.9-x) + 9) at x=0.5 is 1
    net = tiny_net()
    assert fnn_forward(net, [0.5]) == pytest.approx(1.0, abs=0)
    assert fnn_forward(net, [0.0]) == 0.0
    assert fnn_forward(net, [2.0]) == 0.0


def test_relu_kills_negative_input():
    net = ReluNet2([[1.0]], [0.0], [(0, 0, 1.0)], [0.0], [1.0])
    assert fnn_forward(net, [-3.0]) == 0.0
    assert fnn_forward(net, [2.0]) == 2.0


def test_dimension_mismatch():
    net = tiny_net()
    with pytest.raises(DocumentError):
        net.forward_batch(np.zeros((4, 2)))


def test_w3_scaling_homogeneity():
    net = tiny_net()
    scaled = ReluNet2(net.W1, net.b1,
                      list(zip(net.W2_rows, net.W2_cols, net.W2_vals)),
                      net.b2, 3.0 * net.w3)
    X = np.linspace(-1, 2, 41)[:, None]
    np.testing.assert_allclose(scaled(X), 3.0 * net(X), atol=1e-12)
    # with an output bias, scaling w3 scales output-minus-bias
    net_b = tiny_net(output_bias=0.5)
    scaled_b = ReluNet2(net_b.W1, net_b.b1,
                        list(zip(net_b.W2_rows, net_b.W2_cols, net_b.W2_vals)),
                        net_b.b2, 3.0 * net_b.w3, output_bias=0.5)
    np.testing.assert_allclose(scaled_b(X) - 0.5, 3.0 * (net_b(X) - 0.5),
                               atol=1e-12)


def test_tnn_constant_rank_one():
    branch = (np.array([[0.0]]), np.array([1.0]), np.array([[1.0]]))
    net = TensorNet([branch, branch])
    assert tnn_forward(net, [0.3, -2.0]) == pytest.approx(1.0, abs=0)


def test_tnn_zero_addend_keeps_rank_one_value():
    b1 = (np.array([[0.0]]), np.array([1.0]), np.array([[1.0], [0.0]]))
    b2 = (np.array([[0.0]]), np.array([1.0]), np.array([[1.0], [0.0]]))
    net = TensorNet([b1, b2])
    assert net.rank == 2
    assert tnn_forward(net, [0.1, 0.7]) == pytest.approx(1.0, abs=0)


def test_tnn_branches_from_1d_hats_hit_nodes():
    grid = np.array([0.0, 0.5, 1.0])
    coeff_x = np.array([0.0, 1.0, 0.25])
    coeff_y = np.array([1.0, -1.0, 0.5])
    Wx, bx, wx = compile_1d_hat(grid, coeff_x)
    Wy, by, wy = compile_1d_hat(grid, coeff_y)
    net = TensorNet([(Wx, bx, wx[None, :]), (Wy, by, wy[None, :])])
    for i, ti in enumerate(grid):
        for j, tj in enumerate(grid):
            expect = coeff_x[i] * coeff_y[j]
            assert tnn_forward(net, [ti, tj]) == pytest.approx(expect, abs=1e-12)


def test_tnn_multilinear_in_combination_weights():
    rng = np.random.default_rng(0)
    grid = np.array([0.0, 0.4, 1.0])
    W, b, _ = compile_1d_hat(grid, np.zeros(3))
    w_a = rng.standard_normal((2, 3))
    w_b = rng.standard_normal((2, 3))
    other = (W, b, rng.standard_normal((2, 3)))
    X = rng.uniform(0, 1, (50, 2))
    vals_a = TensorNet([(W, b, w_a), other])(X)
    vals_b = TensorNet([(W, b, w_b), other])(X)
    vals_ab = TensorNet([(W, b, 0.3 * w_a + 0.7 * w_b), other])(X)
    np.testing.assert_allclose(vals_ab, 0.3 * vals_a + 0.7 * vals_b, atol=1e-10)


def test_tnn_rank_mismatch_rejected():
    b1 = (np.array([[0.0]]), np.array([1.0]), np.ones((2, 1)))
    b2 = (np.array([[0.0]]), np.array([1.0]), np.ones((3, 1)))
    with pytest.raises(DocumentError):
        TensorNet([b1, b2])


def test_fnn_serialize_round_trip_bitwise():
    net = tiny_net(output_bias=-0.375)
    net.provenance = {"epsilon": 0.1, "R": 1.0}
    text = serialize(net)
    again = deserialize(text)
    assert isinstance(again, ReluNet2)
    np.testing.assert_array_equal(again.W1, net.W1)
    np.testing.assert_array_equal(again.b1, net.b1)
    np.testing.assert_array_equal(again.W2_vals, net.W2_vals)
    np.testing.assert_array_equal(again.b2, net.b2)
    np.testing.assert_array_equal(again.w3, net.w3)
    assert again.output_bias == net.output_bias
    X = np.linspace(-5, 5, 101)[:, None]
    np.testing.assert_array_equal(again(X), net(X))  # zero drift
    assert serialize(again) == text


def test_tnn_serialize_round_trip():
    grid = np.array([0.0, 0.25, 1.0])
    W, b, w = compile_1d_hat(grid, np.array([0.5, -1.0, 2.0]))
    net = TensorNet([(W, b, w[None, :]), (W, b, (2 * w)[None, :])])
    again = deserialize(serialize(net))
    assert isinstance(again, TensorNet)
    X = np.random.default_rng(1).uniform(0, 1, (64, 2))
    np.testing.assert_array_equal(again(X), net(X))


def test_missing_field_names_field():
    net = tiny_net()
    doc = net.to_doc()
    del doc["w3"]
    from relufem import docio
    with pytest.raises(DocumentError, match="w3"):
        deserialize(docio.dumps(doc))


def test_triplet_column_out_of_range():
    with pytest.raises(DocumentError, match="column"):
        ReluNet2([[1.0]], [0.0], [(0, 5, 1.0)], [0.0], [1.0])


def test_triplet_row_out_of_range():
    with pytest.raises(DocumentError, match="row"):
        ReluNet2([[1.0]], [0.0], [(7, 0, 1.0)], [0.0], [1.0])


def test_malformed_json_is_parse_error():
    with pytest.raises(DocumentError):
        deserialize("{not json")


def test_unknown_arch_rejected():
    with pytest.raises(DocumentError, match="arch"):
        deserialize('{"arch": "mystery"}')


def test_nonfinite_weights_rejected():
    with pytest.raises(DocumentError):
        ReluNet2([[np.inf]], [0.0], [], [0.0], [1.0])


def test_tnn_forward_in_chunks_is_bitwise_piecewise():
    # width 4096 makes one chunk 64 points, so 5000 points span many
    rng = np.random.default_rng(7)
    grid = np.sort(rng.uniform(0, 1, 4096))
    grid[0], grid[-1] = 0.0, 1.0
    W, b, w1 = compile_1d_hat(grid, rng.standard_normal(4096))
    _, _, w2 = compile_1d_hat(grid, rng.standard_normal(4096))
    net = TensorNet([(W, b, np.vstack([w1, w2])), (W, b, np.vstack([w2, w1]))])
    assert CHUNK_ELEMENTS // max(net.widths) < 5000
    X = rng.uniform(0, 1, (5000, 2))
    pieces = np.concatenate([net(X[lo:lo + 1000]) for lo in range(0, 5000, 1000)])
    np.testing.assert_array_equal(net(X), pieces)


def hat_tensor_net(rng):
    """A rank-6 tensor net of two 300-node branches."""
    branches = []
    for _ in range(2):
        grid = np.sort(rng.uniform(0, 1, 300))
        grid[0], grid[-1] = 0.0, 1.0
        W, b, _ = compile_1d_hat(grid, np.zeros(300))
        weights = np.vstack([compile_1d_hat(grid, rng.standard_normal(300))[2]
                             for _ in range(6)])
        branches.append((W, b, weights))
    return TensorNet(branches)


def test_tnn_forward_does_not_depend_on_the_batch():
    # rank 6 on 300-node branches: a dgemm over the branch width would
    # round differently for 5-point pieces and single points
    rng = np.random.default_rng(17)
    net = hat_tensor_net(rng)
    X = rng.uniform(0, 1, (2000, 2))
    y = net(X)
    pieces = np.concatenate([net(X[lo:lo + 5]) for lo in range(0, 2000, 5)])
    np.testing.assert_array_equal(y, pieces)
    np.testing.assert_array_equal(y[:100], [tnn_forward(net, x) for x in X[:100]])
    # the weights and their CSR copies are read-only, so they cannot part
    with pytest.raises(ValueError):
        net.branches[0][2][0, 0] = 1.0
    with pytest.raises(ValueError):
        net._layers[0].data[0] = 1.0


def compiled_nets():
    """A merged weak-mode net on a 3D Freudenthal mesh and a merged
    compact-support net on a 12-site Voronoi mesh, with their input
    dimensions."""
    rng = np.random.default_rng(3)
    grid = freudenthal_mesh(3, 2)
    verts, _ = grid.vertex_table()
    weak = compile_weak_representation(
        grid, nodal_linear(grid, rng.uniform(-5, 5, len(verts))), 1e-3)
    voronoi = random_polygon_mesh(4, n_sites=12)
    v = PiecewiseLinear(voronoi, rng.uniform(-3, 3, (voronoi.n_cells, 2)),
                        rng.uniform(-3, 3, voronoi.n_cells))
    compact = compile_compact_support(voronoi, v, 1e-3)
    return [(weak, 3), (compact, 2)]


def second_layer_sums(net, X):
    """Second-layer row sums S (before b2), read through forward_batch.

    With b2 = 0 and w3 = e_i the net returns relu(S_i); with the W2 values
    negated every product and partial sum flips sign exactly, so it returns
    relu(-S_i), and the difference of the two is S_i bit for bit.
    """
    S = np.empty((net.h2, len(X)))
    for i in range(net.h2):
        w3 = np.zeros(net.h2)
        w3[i] = 1.0
        plus, minus = (
            ReluNet2(net.W1, net.b1,
                     list(zip(net.W2_rows, net.W2_cols, sign * net.W2_vals)),
                     np.zeros(net.h2), w3)(X)
            for sign in (1.0, -1.0))
        S[i] = plus - minus
    return S


def test_fnn_second_layer_sums_rows_in_storage_order():
    rng = np.random.default_rng(11)
    for net, n in compiled_nets():
        X = rng.uniform(-0.1, 1.1, (40, n))
        expect = np.zeros((net.h2, len(X)))
        for p, x in enumerate(X.tolist()):
            # every row summed left to right, in storage order
            z1 = []
            for w, b in zip(net.W1.tolist(), net.b1.tolist()):
                total = 0.0
                for w_k, x_k in zip(w, x):
                    total += w_k * x_k
                z1.append(max(total + b, 0.0))
            for r, c, v in zip(net.W2_rows, net.W2_cols, net.W2_vals.tolist()):
                expect[r, p] += v * z1[c]
        np.testing.assert_array_equal(second_layer_sums(net, X), expect)


def test_fnn_forward_in_chunks_is_bitwise_piecewise():
    rng = np.random.default_rng(7)
    for net, n in compiled_nets():
        # 12000 points span three or more chunks, whose boundaries fall
        # inside the 1000-point pieces
        assert CHUNK_ELEMENTS // max(net.h1, net.h2) < 6000
        X = rng.uniform(-0.1, 1.1, (12000, n))
        pieces = np.concatenate([net(X[lo:lo + 1000])
                                 for lo in range(0, 12000, 1000)])
        y = net(X)
        np.testing.assert_array_equal(y, pieces)
        singles = [fnn_forward(net, x) for x in X[:50]]
        np.testing.assert_array_equal(y[:50], singles)


def test_fnn_layers_are_frozen():
    # scipy's sparse maximum sorts a CSR matrix's indices in place; on a
    # live layer that would reorder the terms of each row and change bits
    rng = np.random.default_rng(13)
    for net, n in compiled_nets():
        assert not net._layers[1].has_sorted_indices
        X = rng.uniform(-0.1, 1.1, (2000, n))
        y = net(X)
        with pytest.raises(ValueError):
            net._layers[1].maximum(0)
        for layer in net._layers:
            for a in (layer.data, layer.indices, layer.indptr):
                assert not a.flags.writeable
        # W2_vals is the second layer's data: an edit would change outputs
        for a in (net.W2_rows, net.W2_cols, net.W2_vals):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] *= 2
        np.testing.assert_array_equal(net(X), y)


def with_non_finite_rows(X, rng):
    X = X.copy()
    rows = rng.choice(len(X), 12, replace=False)
    X[rows[:4], 0] = np.inf
    X[rows[4:8], -1] = -np.inf
    X[rows[8:], rng.integers(X.shape[1])] = np.nan
    return X


@pytest.mark.parametrize("workers", [2, 3])
def test_forward_passes_keep_their_bits_on_any_worker_count(monkeypatch, workers):
    rng = np.random.default_rng(23)
    nets = [(net, rng.uniform(-0.1, 1.1, (40000, n))) for net, n in compiled_nets()]
    tnn = hat_tensor_net(rng)
    nets.append((tnn, rng.uniform(0, 1, (8000, 2))))
    for net, X in nets:
        widths = [net.h1, net.h2] if isinstance(net, ReluNet2) else net.widths
        assert len(X) > 3 * (CHUNK_ELEMENTS // max(widths))
        X = with_non_finite_rows(X, rng)
        # 0 * inf in a tensor branch's first layer is an invalid operation
        with np.errstate(invalid="ignore"):
            monkeypatch.setattr(_chunks, "_workers", 1)
            serial = net(X)
            monkeypatch.setattr(_chunks, "_workers", workers)
            pooled = net(X)
        assert np.isnan(serial).any()
        assert pooled.tobytes() == serial.tobytes()
    assert _chunks._pool[0] == workers


def test_a_worker_keeps_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(_chunks, "_workers", 2)
    rng = np.random.default_rng(29)
    net = hat_tensor_net(rng)
    X = rng.uniform(0, 1, (8000, 2))
    # one inf coordinate in a late chunk: the branch's constant neuron
    # has weight 0, and 0 * inf is invalid
    X[7000, 1] = np.inf
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError, match="invalid"):
            net(X)
    with np.errstate(invalid="ignore"):
        assert np.isnan(net(X)[7000])
    assert _chunks._pool is not None


def test_small_batches_start_no_thread(monkeypatch):
    monkeypatch.setattr(_chunks, "_workers", 3)
    monkeypatch.setattr(_chunks, "_pool", None)
    rng = np.random.default_rng(31)
    threads = threading.active_count()
    for net, n in compiled_nets():
        chunk = CHUNK_ELEMENTS // max(net.h1, net.h2)
        for count in (0, 1, chunk, 2 * chunk):
            assert len(net(rng.uniform(0, 1, (count, n)))) == count
    tnn = hat_tensor_net(rng)
    tnn(rng.uniform(0, 1, (2 * (CHUNK_ELEMENTS // 300), 2)))
    assert _chunks._pool is None
    assert threading.active_count() == threads
    # one usable CPU runs every batch inline
    monkeypatch.setattr(_chunks, "_workers", 1)
    tnn(rng.uniform(0, 1, (8000, 2)))
    assert _chunks._pool is None
    assert threading.active_count() == threads


def test_concurrent_callers_get_the_serial_bits(monkeypatch):
    # more workers than cores, callers racing to make the pool, and a short
    # switch interval so that their threads interleave finely
    net, n = compiled_nets()[0]
    X = np.random.default_rng(47).uniform(-0.1, 1.1, (40000, n))
    monkeypatch.setattr(_chunks, "_workers", 1)
    expect = net(X).tobytes()
    monkeypatch.setattr(_chunks, "_workers", 3)
    monkeypatch.setattr(_chunks, "_pool", None)
    results = [None] * 6

    def call(i):
        results[i] = net(X).tobytes()

    callers = [threading.Thread(target=call, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [expect] * 6


def test_the_worker_count_is_the_usable_cpu_count():
    if hasattr(os, "sched_getaffinity"):
        assert _chunks._workers == len(os.sched_getaffinity(0))
    else:
        assert _chunks._workers == (os.cpu_count() or 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_the_pool_started_keeps_the_bits(monkeypatch):
    monkeypatch.setattr(_chunks, "_workers", 2)
    net, n = compiled_nets()[0]
    X = np.random.default_rng(37).uniform(-0.1, 1.1, (20000, n))
    y = net(X)
    assert _chunks._pool is not None
    read, write = os.pipe()
    # Python 3.12 warns when a process with threads forks
    forking = (pytest.warns(DeprecationWarning, match="multi-threaded")
               if sys.version_info >= (3, 12) else contextlib.nullcontext())
    with forking:
        pid = os.fork()
        if pid == 0:
            # the child never returns into the test runner; the alarm ends
            # it if its first pooled batch hangs
            code = 1
            try:
                os.close(read)
                signal.alarm(60)
                with os.fdopen(write, "wb") as fh:
                    fh.write(net(X).tobytes())
                code = 0
            finally:
                os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        got = fh.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == y.tobytes()
