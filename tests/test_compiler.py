import time

import numpy as np
import pytest

from relufem.compiler import (compile_bumps, compile_compact_support,
                              compile_weak_representation,
                              merge_duplicate_neurons)
from relufem.errors import CompileError, ConditioningWarning
from relufem.mesh import (ConvexCell, PolytopeMesh, freudenthal_mesh,
                          min_inradius, sample_cells)
from relufem.meshgen import (demo_polygon_mesh, random_polygon_mesh,
                             random_simplex_mesh)
from relufem.pwl import PiecewiseLinear, nodal_linear

from oracles import (AffinePiece, compile_cell_bump,
                     positive_combination_bruteforce,
                     positive_normal_combination, shift_t0, solve_mu)

INTERVAL = ConvexCell([[1.0], [-1.0]], [0.0, 1.0])
SQUARE = ConvexCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                    [0.0, 1.0, 0.0, 1.0])
TRIANGLE = ConvexCell([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, 1.0])


def interval_mesh_single():
    cell = ConvexCell.from_simplex([[0.0], [1.0]])
    hull = ConvexCell([[1.0], [-1.0]], [0.0, 1.0])
    return PolytopeMesh(1, [cell], domain_hull=hull)


# --- positive zero-sum combinations -----------------------------------------

def test_lambda_interval():
    np.testing.assert_allclose(positive_normal_combination(INTERVAL), [1.0, 1.0],
                               atol=1e-9)


def test_lambda_square():
    np.testing.assert_allclose(positive_normal_combination(SQUARE),
                               np.ones(4), atol=1e-9)


def test_lambda_triangle():
    np.testing.assert_allclose(positive_normal_combination(TRIANGLE),
                               np.ones(3), atol=1e-9)


def test_lambda_unbounded_cell_fails():
    with pytest.raises(CompileError):
        positive_normal_combination(ConvexCell([[1.0]], [0.0]))


def test_lambda_bruteforce_agrees_on_feasibility():
    for cell in (INTERVAL, SQUARE, TRIANGLE):
        lam = positive_combination_bruteforce(cell)
        assert lam is not None
        assert lam.min() >= 1.0 - 1e-9
        assert np.linalg.norm(cell.W.T @ lam) <= 1e-9 * float(lam @ cell.norms)
    assert positive_combination_bruteforce(ConvexCell([[1.0]], [0.0])) is None


# --- mu ----------------------------------------------------------------------

def test_mu_zero_gradient():
    np.testing.assert_array_equal(solve_mu(TRIANGLE, [0.0, 0.0]), np.zeros(3))


def test_mu_triangle():
    # least-norm solution of the 2x3 system, solved by hand via W W^T
    mu = solve_mu(TRIANGLE, [1.0, 0.0])
    np.testing.assert_allclose(mu, [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
                               atol=1e-12)


def test_mu_interval():
    mu = solve_mu(INTERVAL, [1.0])
    np.testing.assert_allclose(mu, [-0.5, 0.5], atol=1e-12)


def test_mu_shift_family_solves_for_all_t():
    a = np.array([0.7, -0.3])
    mu = solve_mu(TRIANGLE, a)
    lam = positive_normal_combination(TRIANGLE)
    s, t0 = shift_t0(TRIANGLE, mu, lam, 0.1, 1.0, 0.05)
    for t in (0.0, s, t0):
        resid = TRIANGLE.W.T @ (mu + t * lam) + a
        assert np.linalg.norm(resid) <= 1e-9


# --- shift -------------------------------------------------------------------

def test_shift_interval_values():
    # numerator |(mu+s*lam) @ b + c + R| = |1 + 0 + 1| = 2, denominator 0.1
    s, t0 = shift_t0(INTERVAL, np.zeros(2), np.ones(2), 0.0, 1.0, 0.1)
    assert s == pytest.approx(1.0, abs=0)
    assert t0 == pytest.approx(20.0, rel=1e-12)


def test_shift_interval_zero_R():
    s, t0 = shift_t0(INTERVAL, np.zeros(2), np.ones(2), 0.0, 0.0, 0.1)
    assert s == pytest.approx(1.0, abs=0)
    assert t0 == pytest.approx(10.0, rel=1e-12)


def test_shift_s_from_mu_over_lambda():
    s, t0 = shift_t0(INTERVAL, np.ones(2), np.ones(2), 0.0, 1.0, 0.1)
    assert s == pytest.approx(2.0, abs=0)
    assert t0 >= s + 1.0


def test_shift_epsilon_zero_rejected():
    with pytest.raises(CompileError):
        shift_t0(INTERVAL, np.zeros(2), np.ones(2), 0.0, 1.0, 0.0)


# --- single-cell bumps -------------------------------------------------------

def test_bump_interval_frozen_values():
    bump = compile_cell_bump(INTERVAL, AffinePiece(np.zeros(1), 0.0), 1.0, 0.1)
    np.testing.assert_array_equal(bump.W_I, [[1.0], [-1.0]])
    np.testing.assert_allclose(bump.b_I, [-0.1, 0.9], atol=1e-15)
    np.testing.assert_allclose(bump.w_II, [-20.0, -20.0], rtol=1e-8)
    assert bump.b_II == pytest.approx(17.0, rel=1e-8)
    assert bump.value([[0.5]])[0] == pytest.approx(1.0, abs=1e-12)
    assert bump.value([[0.0]])[0] == pytest.approx(0.0, abs=1e-12)
    assert bump.value([[2.0]])[0] == pytest.approx(0.0, abs=1e-12)


def test_bump_vanishes_when_v_is_minus_R():
    bump = compile_cell_bump(INTERVAL, AffinePiece(np.zeros(1), -1.0), 1.0, 0.05)
    xs = np.linspace(0.06, 0.94, 23)[:, None]
    np.testing.assert_allclose(bump.value(xs), 0.0, atol=1e-12)


def test_bump_square_center():
    bump = compile_cell_bump(SQUARE, AffinePiece(np.array([1.0, 0.0]), 0.0),
                             1.0, 0.01)
    assert bump.value([[0.5, 0.5]])[0] == pytest.approx(1.5, abs=1e-10)


@pytest.mark.parametrize("cell,piece,R", [
    (TRIANGLE, AffinePiece(np.array([0.8, -0.4]), 0.2), 1.0),
    (SQUARE, AffinePiece(np.array([-0.5, 1.0]), -0.3), 2.0),
])
def test_bump_region_triple(cell, piece, R):
    eps = 0.03
    bump = compile_cell_bump(cell, piece, R, eps)
    rng = np.random.default_rng(17)
    lo, hi = cell.bounding_box()
    X = rng.uniform(lo, hi, (20000, cell.dim))
    dist = cell.boundary_distance(X)
    vals = bump.value(X)
    target = X @ piece.gradient + piece.constant + R

    core = dist >= eps + 1e-12
    assert core.sum() >= 1000
    np.testing.assert_allclose(vals[core], target[core], atol=1e-9 * (1 + R))

    collar = (dist >= 0) & (dist < eps)
    assert collar.sum() >= 1000
    assert np.all(vals[collar] >= -1e-12)
    assert np.all(vals[collar] <= 2 * R + 1e-9)

    span = hi - lo
    Xout = rng.uniform(lo - span, hi + span, (20000, cell.dim))
    outside = ~cell.contains(Xout, tol=1e-12)
    assert outside.sum() >= 1000
    assert np.all(bump.value(Xout[outside]) <= 1e-12)
    far = rng.uniform(lo - 10 * span, hi + 10 * span, (2000, cell.dim))
    far = far[~cell.contains(far, tol=1e-12)]
    assert np.all(bump.value(far) <= 1e-12)


# --- whole-net compilation ---------------------------------------------------

def test_compile_single_interval_cell():
    mesh = interval_mesh_single()
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    net = compile_weak_representation(mesh, v, 0.05)
    assert (net.h1, net.h2) == (2, 2)
    xs = np.linspace(0.05, 0.95, 37)
    np.testing.assert_allclose(net(xs[:, None]), xs, atol=1e-12)


def test_compile_freudenthal_sizes():
    mesh = freudenthal_mesh(2, 2)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.random.default_rng(0).uniform(-1, 1, len(verts)))
    net = compile_weak_representation(mesh, v, 0.01)
    assert (net.h1, net.h2) == (14, 9)


def test_compile_32_triangle_mesh_sizes():
    mesh = freudenthal_mesh(2, 4)
    v = PiecewiseLinear.constant(
        mesh, np.random.default_rng(1).uniform(-1, 1, mesh.n_cells))
    net = compile_weak_representation(mesh, v, 0.005)
    assert (net.h1, net.h2) == (30, 33)


def test_compile_epsilon_too_large():
    mesh = interval_mesh_single()
    v = PiecewiseLinear(mesh, [[0.0]], [1.0])
    with pytest.raises(CompileError, match="too large"):
        compile_weak_representation(mesh, v, 0.6)


def test_compile_epsilon_zero():
    mesh = interval_mesh_single()
    v = PiecewiseLinear(mesh, [[0.0]], [1.0])
    with pytest.raises(CompileError):
        compile_weak_representation(mesh, v, 0.0)


def test_output_bias_mode_same_function():
    mesh = freudenthal_mesh(2, 2)
    v = PiecewiseLinear.constant(
        mesh, np.random.default_rng(2).uniform(-1, 1, mesh.n_cells))
    plain = compile_weak_representation(mesh, v, 0.02)
    biased = compile_weak_representation(mesh, v, 0.02, use_output_bias=True)
    assert biased.h2 == plain.h2 - 1
    assert biased.output_bias == pytest.approx(-v.sup_norm(), abs=0)
    X = np.random.default_rng(3).uniform(-0.5, 1.5, (800, 2))
    np.testing.assert_allclose(plain(X), biased(X), atol=1e-12)


# --- duplicate-neuron merge --------------------------------------------------

def test_merge_without_duplicates_keeps_function():
    cell = ConvexCell.from_simplex([[0.0], [1.0]])
    mesh = PolytopeMesh(1, [cell])
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    pre = compile_weak_representation(mesh, v, 0.05, merge=False)
    post = merge_duplicate_neurons(pre, mesh.registry())
    assert post.h1 == pre.h1
    X = np.linspace(-1, 2, 301)[:, None]
    np.testing.assert_array_equal(pre(X), post(X))


def test_merge_positive_multiple_duplicate():
    # stacked squares; the upper one's shared-direction facet is stored as
    # (2w, 2b) and must merge with consumer scale 2
    lower = ConvexCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [0.0, 1.0, 0.0, 1.0])
    upper = ConvexCell([[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [0.0, 1.0, -1.0, 2.0])
    mesh = PolytopeMesh(2, [lower, upper])
    reg = mesh.registry()
    assert reg.scale[reg.starts[1] + 0] == pytest.approx(2.0, rel=1e-12)
    v = PiecewiseLinear.constant(mesh, [0.5, -0.25])
    pre = compile_weak_representation(mesh, v, 0.02, merge=False)
    post = merge_duplicate_neurons(pre, reg)
    # the doubled facet and the coincident x<=1 facets both merge
    assert pre.h1 == 8
    assert post.h1 == reg.size == 6
    X = np.random.default_rng(8).uniform(-1, 3, (1000, 2))
    np.testing.assert_allclose(pre(X), post(X), atol=1e-12)


def test_merge_requires_tags():
    mesh = interval_mesh_single()
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    net = compile_weak_representation(mesh, v, 0.05)  # already merged
    with pytest.raises(CompileError, match="tags"):
        merge_duplicate_neurons(net, mesh.registry())


def test_dedup_soundness_on_structured_and_random_meshes():
    rng = np.random.default_rng(9)
    for mesh in (freudenthal_mesh(2, 2), freudenthal_mesh(3, 1),
                 random_simplex_mesh(2, 2, seed=21)):
        verts, _ = mesh.vertex_table()
        v = nodal_linear(mesh, rng.uniform(-1, 1, len(verts)))
        eps = 1e-2 * min_inradius(mesh)
        pre = compile_weak_representation(mesh, v, eps, merge=False)
        post = merge_duplicate_neurons(pre, mesh.registry())
        lo, hi = mesh.bounding_box()
        X = rng.uniform(lo - 0.5, hi + 0.5, (1000, mesh.dimension))
        assert np.max(np.abs(pre(X) - post(X))) <= 1e-12


def test_count_identity_after_merge():
    for mesh in (freudenthal_mesh(1, 4), freudenthal_mesh(2, 3),
                 random_simplex_mesh(2, 2, seed=33)):
        v = PiecewiseLinear.constant(
            mesh, np.random.default_rng(0).uniform(-1, 1, mesh.n_cells))
        net = compile_weak_representation(mesh, v, 1e-3)
        hi, hb, nt = mesh.counts()
        assert net.h1 == 2 * hi + hb
        assert net.h2 == nt + 1


# --- whole-net representation properties ------------------------------------

def test_weak_representation_properties_sampled():
    mesh = freudenthal_mesh(2, 2)
    verts, _ = mesh.vertex_table()
    rng = np.random.default_rng(10)
    v = nodal_linear(mesh, rng.uniform(-1, 1, len(verts)))
    R = v.sup_norm()
    h = min_inradius(mesh)
    for factor in (1e-1, 1e-2, 1e-3, 1e-4):
        eps = factor * h
        net = compile_weak_representation(mesh, v, eps)
        Xi, tags = sample_cells(mesh, 200, seed=1, epsilon=eps)
        np.testing.assert_allclose(net(Xi), v.eval_cells(Xi, tags),
                                   atol=1e-9 * (1 + R))
        Xo, _ = sample_cells(mesh, 200, seed=2)
        assert np.max(np.abs(net(Xo))) <= R + 1e-9
        Xe = rng.uniform(-2, 3, (500, 2))
        outside = np.ones(len(Xe), dtype=bool)
        for cell in mesh.cells:
            outside &= ~cell.contains(Xe, tol=1e-9)
        np.testing.assert_allclose(net(Xe[outside]), -R, atol=1e-9)


def test_compact_support_zero_function():
    mesh = interval_mesh_single()
    v = PiecewiseLinear(mesh, [[0.0]], [0.0])
    net = compile_compact_support(mesh, v, 0.05)
    X = np.linspace(-2, 3, 401)[:, None]
    np.testing.assert_allclose(net(X), 0.0, atol=1e-12)


def test_compact_support_interval():
    mesh = interval_mesh_single()
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    net = compile_compact_support(mesh, v, 0.01)
    assert net.forward([-0.5]) == pytest.approx(0.0, abs=1e-12)
    assert net.forward([2.0]) == pytest.approx(0.0, abs=1e-12)
    weak = compile_weak_representation(mesh, v, 0.01)
    xs = np.linspace(0.011, 0.989, 101)[:, None]
    np.testing.assert_allclose(net(xs), weak(xs), atol=1e-12)


def test_compact_support_needs_hull():
    cell = ConvexCell.from_simplex([[0.0], [1.0]])
    mesh = PolytopeMesh(1, [cell])  # no hull
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    with pytest.raises(CompileError, match="hull"):
        compile_compact_support(mesh, v, 0.05)


def test_compact_support_rejects_halfspace_cell_outside_hull():
    # [0, 2] x [0, 1] given by halfspaces pokes out of the unit-square hull
    wide = ConvexCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [0.0, 2.0, 0.0, 1.0])
    mesh = PolytopeMesh(2, [wide], domain_hull=SQUARE)
    v = PiecewiseLinear.constant(mesh, [1.0])
    with pytest.raises(CompileError, match="does not contain cell 0"):
        compile_compact_support(mesh, v, 0.01)


def test_compact_support_names_the_first_cell_outside_hull():
    # the upper of two stacked unit squares lies outside the unit-square hull
    upper = ConvexCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [0.0, 1.0, -1.0, 2.0])
    mesh = PolytopeMesh(2, [SQUARE, upper, upper], domain_hull=SQUARE)
    v = PiecewiseLinear.constant(mesh, [1.0, 1.0, 1.0])
    with pytest.raises(CompileError, match="does not contain cell 1$"):
        compile_compact_support(mesh, v, 0.01)


def test_compact_support_bound_2R():
    mesh = freudenthal_mesh(2, 2)
    verts, _ = mesh.vertex_table()
    rng = np.random.default_rng(12)
    v = nodal_linear(mesh, rng.uniform(-1, 1, len(verts)))
    R = v.sup_norm()
    net = compile_compact_support(mesh, v, 0.01)
    Xo, _ = sample_cells(mesh, 400, seed=3)
    assert np.max(np.abs(net(Xo))) <= 2 * R + 1e-9


def test_conditioning_warning_for_tiny_epsilon():
    mesh = interval_mesh_single()
    v = PiecewiseLinear(mesh, [[1.0]], [0.0])
    with pytest.warns(ConditioningWarning):
        compile_weak_representation(mesh, v, 1e-13)


def test_compile_time_scales_about_linearly_in_cells():
    # smoke check against super-linear blowup: 4x the cells should not
    # cost anywhere near 16x the time
    times = {}
    for N in (4, 8):
        mesh = freudenthal_mesh(2, N)
        v = PiecewiseLinear.constant(mesh, np.zeros(mesh.n_cells))
        t0 = time.perf_counter()
        compile_weak_representation(mesh, v, 1e-3 / N)
        times[N] = time.perf_counter() - t0
    assert times[8] <= 8.0 * times[4] + 0.1


# --- the batched compile against the one-cell oracle -------------------------

@pytest.fixture(scope="module")
def batched_corpus():
    """(mesh, general affine function, epsilon) on one-cell meshes (each
    cell its own hull), Freudenthal 1-3D, jittered 3D, 20-site Voronoi and
    the demo polygon mesh."""
    rng = np.random.default_rng(40)
    corpus = []
    meshes = [PolytopeMesh(c.dim, [c], domain_hull=c)
              for c in (INTERVAL, SQUARE, TRIANGLE)]
    meshes += [freudenthal_mesh(n, N) for n, N in ((1, 3), (2, 2), (3, 1))]
    meshes += [random_simplex_mesh(3, 2, seed=41),
               random_polygon_mesh(42, n_sites=20), demo_polygon_mesh()]
    for mesh in meshes:
        v = PiecewiseLinear(mesh,
                            rng.uniform(-1, 1, (mesh.n_cells, mesh.dimension)),
                            rng.uniform(-1, 1, mesh.n_cells))
        corpus.append((mesh, v, 1e-2 * min_inradius(mesh)))
    return corpus


def assert_close(got, want):
    """Within 1e-12 of the largest entry of the oracle's value."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", ["weak", "output-bias", "compact"])
def test_batched_compile_matches_one_cell_oracle(batched_corpus, mode):
    for mesh, v, eps in batched_corpus:
        R = v.sup_norm()
        N = mesh.n_cells
        hull = mesh.domain_hull if mode == "compact" else None
        if hull is None:
            net = compile_weak_representation(
                mesh, v, eps, use_output_bias=mode == "output-bias",
                merge=False)
        else:
            net = compile_compact_support(mesh, v, eps, merge=False)
        bumps = compile_bumps(mesh, v, R, eps, hull)
        oracle = [compile_cell_bump(cell, AffinePiece(v.gradients[ci],
                                                      v.constants[ci]),
                                    R, eps, cell_index=ci)
                  for ci, cell in enumerate(mesh.cells)]
        if hull is not None:
            oracle.append(compile_cell_bump(
                hull, AffinePiece(np.zeros(mesh.dimension), R / 2.0),
                R / 2.0, eps, cell_index=-1))
        W, b, starts, tags = mesh.facets(hull)
        for c, rows in enumerate(np.split(np.arange(len(b)), starts[1:])):
            bump = oracle[c]
            assert_close(bumps.lam[rows], bump.provenance["lam"])
            assert_close(bumps.mu[rows], bump.provenance["mu"])
            assert_close(bumps.s[c], bump.provenance["s"])
            assert_close(bumps.t0[c], bump.provenance["t0"])
            assert_close(bumps.b_I[rows], bump.b_I)
            assert_close(bumps.w_II[rows], bump.w_II)
            assert_close(bumps.b_II[c], bump.b_II)
        # the unmerged net is those arrays, placed: row r of the facet
        # table feeds its cell's second-layer row (the hull's is row N)
        np.testing.assert_array_equal(net.W1, W)
        np.testing.assert_array_equal(net.b1, bumps.b_I)
        np.testing.assert_array_equal(net.W2_rows,
                                      np.where(tags[:, 0] < 0, N, tags[:, 0]))
        np.testing.assert_array_equal(net.W2_cols, np.arange(len(b)))
        np.testing.assert_array_equal(net.W2_vals, bumps.w_II)
        np.testing.assert_array_equal(
            net.b2, np.append(bumps.b_II, R) if mode == "weak" else bumps.b_II)
        assert net.provenance["t0"] == bumps.t0[:N].tolist()
        assert net.provenance["s"] == bumps.s[:N].tolist()
        if hull is not None:
            assert net.provenance["t0_hull"] == bumps.t0[N]
