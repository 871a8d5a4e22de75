import numpy as np
import pytest

from relufem.compiler import (compile_compact_support,
                              compile_weak_representation)
from relufem.errors import DocumentError
from relufem.mesh import freudenthal_mesh
from relufem.meshgen import random_polygon_mesh
from relufem.networks import (CHUNK_ELEMENTS, FNN_CHUNK_ELEMENTS, ReluNet2,
                              TensorNet, deserialize, fnn_forward, serialize,
                              tnn_forward)
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
    # width 4096 makes one chunk 2048 rows, so 5000 points span three
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
        assert FNN_CHUNK_ELEMENTS // max(net.h1, net.h2) < 6000
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
