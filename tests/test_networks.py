import contextlib
import functools
import os
import signal
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relufem import _chunks, networks
from relufem._chunks import CHUNK_ELEMENTS
from relufem.compiler import (compile_compact_support,
                              compile_weak_representation)
from relufem.errors import DocumentError
from relufem.mesh import freudenthal_mesh
from relufem.meshgen import random_polygon_mesh
from relufem.networks import (ReluNet2, TensorNet, deserialize, fnn_forward,
                              serialize, tnn_forward)
from relufem.pwl import PiecewiseLinear, nodal_linear
from relufem.tensorfe import TensorFE, TensorMesh, compile_1d_hat, compile_tnn

from oracles import (foreign_tensor_net, tnn_branch_values, tnn_forward_batch,
                     tnn_forward_grid)


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


@pytest.mark.parametrize("part", [0, 1, 2], ids=["W", "b", "weights"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_tnn_nonfinite_weights_rejected(part, bad):
    branch = [np.array([[1.0], [0.0]]), np.array([0.0, 1.0]),
              np.array([[1.0, 2.0]])]
    branch[part] = branch[part].copy()
    branch[part].flat[0] = bad
    with pytest.raises(DocumentError, match="must be finite"):
        TensorNet([branch])


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


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_tnn_nan_bits_do_not_depend_on_the_batch(seed):
    """At points mixing +-inf and NaN, whose rank terms can be NaNs of both
    signs, a point's value has the same bits alone, in batches of 2 and in
    one batch of 9, and on a grid: every NaN is the default quiet NaN."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    branches = []
    for _ in range(n):
        width = int(rng.integers(1, 4))
        branches.append((rng.choice([0.0, 1.0, -1.0, 0.5], width),
                         rng.choice([-1.0, 0.0, 0.5, 1.0], width),
                         rng.choice([0.0, 1.0, -1.0, 0.5], (2, width))))
    net = TensorNet(branches)
    X = rng.choice([np.inf, -np.inf, np.nan, 0.0, 0.3, -0.7], (9, n))
    with np.errstate(all="ignore"):
        nine = net(X)
        for size in (1, 2):
            assert_same_bits(np.concatenate([net(X[lo:lo + size])
                                             for lo in range(0, 9, size)]), nine)
        axes = [np.unique(X[:, k]) for k in range(n)]
        assert_grid_is_forward_batch(net, axes)
    assert np.all(nine[np.isnan(nine)].view(np.uint64) == 0x7FF8000000000000)


def test_tnn_nan_of_both_signs_is_the_default_nan():
    # the W = 0 unit makes 0 * inf = NaN on the first axis, the second
    # axis's NaN comes through with its own sign: scipy's rank sum keeps
    # the first NaN on one point and the second on two or more
    net = TensorNet([([1.0, 0.0], [0.0, 1.0], [[1.0, 1.0], [-1.0, 1.0]]),
                     ([1.0], [0.0], [[1.0], [1.0]])])
    X = np.array([[np.inf, np.nan], [np.inf, -np.nan]])
    with np.errstate(invalid="ignore"):
        for batch in (X[:1], X[1:], X):
            assert np.all(net(batch).view(np.uint64) == 0x7FF8000000000000)


def assert_grid_is_forward_batch(net, axes):
    X = np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1).T
    np.testing.assert_array_equal(net.forward_grid(axes).reshape(-1).view(np.uint64),
                                  net.forward_batch(X).view(np.uint64))


@settings(max_examples=80, deadline=None, database=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       foreign=st.booleans())
def test_tnn_grid_values_are_forward_batch_bits(n, seed, foreign):
    """forward_grid at every point of a product grid of nodes, points
    between them and points beyond them has forward_batch's bits, on nets
    compile_tnn writes (hat layers from compile_1d_hat on one axis) and on
    foreign ones."""
    rng = np.random.default_rng(seed)
    counts = tuple(int(c) for c in rng.integers(2, 6, n))
    grids = [np.sort(np.r_[0.0, rng.uniform(0, 1, c - 2), 1.0]) for c in counts]
    if foreign:
        net = foreign_tensor_net(rng, n)
    elif n == 1:
        net = TensorNet([compile_1d_hat(grids[0], rng.standard_normal(counts[0]))])
    else:
        # above order 2 a rank-one tensor, which ALS factors at once; padded
        # to the shape bound, its zero terms are rows of zero weights
        coefficients = rng.standard_normal(counts) if n == 2 else functools.reduce(
            np.multiply.outer, [rng.standard_normal(c) for c in counts])
        net = compile_tnn(TensorFE(TensorMesh(grids), coefficients),
                          whole_space_rank=bool(seed % 2))
    axes = [np.sort(np.r_[g, rng.uniform(-0.5, 1.5, 3)]) for g in grids]
    assert_grid_is_forward_batch(net, axes)


def test_tnn_grid_values_keep_their_bits_across_chunks():
    # 300-point axes at rank 6 make 145-row chunks: three of them, which
    # go to the pool on two or more CPUs
    rng = np.random.default_rng(23)
    net = hat_tensor_net(rng)
    axes = [np.sort(rng.uniform(0, 1, 300)) for _ in range(2)]
    assert CHUNK_ELEMENTS // (net.rank * 300) < 150
    assert_grid_is_forward_batch(net, axes)


SWEEP_W = [-7.3, -1.0, 0.0, 1e-300, 0.5, 1.0, 3.0]
SWEEP_ERRSTATES = [{"all": "ignore"}, {"all": "ignore", "over": "raise"},
                   {"all": "ignore", "invalid": "raise"}]


def sweep_branch(rng, rank, compiled):
    """A compiled hat branch (ramps in kink order, then the constant unit)
    or a foreign one: W from SWEEP_W, unsorted kinks, W = 0 units with
    b > 0 (live everywhere) or b <= 0 (dead) anywhere, zero weights."""
    width = int(rng.integers(1, 13))
    if compiled:
        grid = np.sort(np.r_[0.0, rng.uniform(0, 1, width), 1.0])
        W, b, _ = compile_1d_hat(grid, np.zeros(grid.size))
        weights = np.vstack([compile_1d_hat(grid, rng.standard_normal(grid.size))[2]
                             for _ in range(rank)])
    else:
        W = rng.choice(SWEEP_W, width)
        b = -W * rng.uniform(-0.5, 1.5, width)
        zero = W == 0
        b[zero] = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], int(zero.sum()))
        weights = rng.standard_normal((rank, width))
    weights[rng.random(weights.shape) < 0.2] = 0.0
    return W, b, weights


def sweep_points(rng, branch, count):
    """count coordinates: uniform ones, the branch's float kinks, +-0, and
    some +-inf, NaN and +-1e308 (which overflow W t for |W| > 1)."""
    W, b, _ = branch
    W = np.asarray(W, dtype=float).reshape(-1)
    kinks = -b[W != 0] / W[W != 0]
    pool = np.r_[kinks, 0.0, -0.0, rng.uniform(-0.5, 1.5, 8)]
    t = rng.choice(pool, count)
    special = rng.random(count) < 0.05
    t[special] = rng.choice([np.inf, -np.inf, np.nan, 1e308, -1e308],
                            int(special.sum()))
    return t


def assert_same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64),
                                  np.asarray(b).view(np.uint64))


def run_or_raise(f):
    try:
        return f()
    except FloatingPointError:
        return FloatingPointError


def assert_sweep_is_the_full_contraction(net, axes, errstate, workers=1):
    """branch_values, forward_batch and forward_grid against the oracles'
    full-width contraction, bit for bit, or both raising under errstate."""
    X = np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1).T
    with np.errstate(**errstate), mock.patch.object(_chunks, "_workers", workers):
        pairs = [(lambda k=k, t=t: net.branch_values(k, t),
                  lambda k=k, t=t: tnn_branch_values(net, k, t))
                 for k, t in enumerate(axes)]
        pairs += [(lambda: net.forward_batch(X), lambda: tnn_forward_batch(net, X)),
                  (lambda: net.forward_grid(axes), lambda: tnn_forward_grid(net, axes))]
        for sweep, full in pairs:
            expect = run_or_raise(full)
            got = run_or_raise(sweep)
            if expect is FloatingPointError or got is FloatingPointError:
                assert got is expect
            else:
                assert_same_bits(got, expect)


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(1, 3), rank=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       chunk=st.sampled_from([1, 8, 64, CHUNK_ELEMENTS]),
       workers=st.sampled_from([1, 2]),
       errstate=st.sampled_from(SWEEP_ERRSTATES))
def test_tnn_sweep_is_the_full_contraction(n, rank, seed, chunk, workers, errstate):
    """The live-unit sweep has the bits of the full-width contraction on
    compiled and foreign branches, in blocks of any size (CHUNK_ELEMENTS
    patched down to split a few points into many), at kinks, +-0 and
    non-finite points, or raises where it raises."""
    rng = np.random.default_rng(seed)
    with mock.patch.object(networks, "CHUNK_ELEMENTS", chunk):
        branches = [sweep_branch(rng, rank, bool(rng.integers(2))) for _ in range(n)]
        net = TensorNet(branches)
        axes = [sweep_points(rng, br, int(rng.integers(0, 40 // n + 2)))
                for br in branches]
        assert_sweep_is_the_full_contraction(net, axes, errstate, workers)


def one_branch_net(W, b, weights):
    return TensorNet([(np.array(W), np.array(b), np.array(weights))])


@pytest.mark.parametrize("errstate", SWEEP_ERRSTATES)
@pytest.mark.parametrize("net, t", [
    # every unit has W < 0: a bound at a NaN end would find none live
    (one_branch_net([-1.0, -7.3], [0.5, 2.0], [[1.0, -2.0]]),
     [0.1, np.nan, 0.3, np.nan]),
    # 0 * inf is NaN: a bound at an inf end would drop the dead unit
    (one_branch_net([1.0, 0.0, 1.0], [-0.5, -1.0, 0.0], [[1.0, 3.0, 2.0]]),
     [0.2, np.inf, 0.7, np.inf, -np.inf]),
    # live W = 0 units before, inside and after the run of a block
    (one_branch_net([0.0, 1.0, 0.0, -1.0, 0.0, 3.0, 0.0],
                    [1.0, -0.2, 2.0, 0.8, 0.5, -3.0, -0.0],
                    [[0.5, 1.0, -1.0, 2.0, 0.25, 4.0, 9.0],
                     [1e-300, -1.0, 0.0, 1.0, -7.3, 0.0, 1.0]]),
     [-1e308, -0.0, 0.0, 0.2, 0.8, 1.0, 1e308]),
    # the first unit is dead on the block [1.3, 1e308] of two points and
    # overflows at its far end: with both ends bounded, the sweep raises
    # where the full sum does
    (one_branch_net([-7.3, 0.5], [3.65, -0.1], [[1.0, 2.0]]),
     [1.0, 1.2, 1.3, 1e308]),
], ids=["negative-W-NaN", "dead-constant-inf", "constants-around-the-run",
        "dead-unit-overflows"])
def test_tnn_sweep_on_edge_cases_is_the_full_contraction(net, t, errstate):
    # blocks of one point, of two (on a two-unit branch), and one block
    for chunk in (1, 4, CHUNK_ELEMENTS):
        with mock.patch.object(networks, "CHUNK_ELEMENTS", chunk):
            swept = TensorNet(net.branches)
            assert_sweep_is_the_full_contraction(swept, [np.array(t)], errstate)


def test_tnn_sweep_on_a_fine_net_is_the_full_contraction():
    # 300-unit branches on 20000 points: many blocks through the pool,
    # with non-finite rows in the last one
    rng = np.random.default_rng(37)
    net = hat_tensor_net(rng)
    X = with_non_finite_rows(rng.uniform(-0.1, 1.1, (20000, 2)), rng)
    assert len(net._sweeps[0]._blocks(np.sort(X[np.isfinite(X[:, 0]), 0]))) > 3
    axes = [X[:300, 0], X[:200, 1]]
    with np.errstate(invalid="ignore"):
        assert_same_bits(net(X), tnn_forward_batch(net, X))
    assert_sweep_is_the_full_contraction(net, axes, SWEEP_ERRSTATES[0], 2)
    # the CSC copies and the sweep's own arrays are read-only, like the
    # weights
    for layer in net._layers:
        for a in (layer.data, layer.indices, layer.indptr):
            assert not a.flags.writeable
    for sweep in net._sweeps:
        for a in (sweep.W, sweep.b, sweep.after):
            assert not a.flags.writeable


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
