from fractions import Fraction

import numpy as np
import pytest

from relufem.compiler import compile_compact_support, compile_weak_representation
from relufem.errors import MeshError, VerifyError
from relufem.mesh import ConvexCell, PolytopeMesh, freudenthal_mesh, min_inradius
from relufem.meshgen import random_polygon_mesh
from relufem.networks import ReluNet2, TensorNet
from relufem.pwl import PiecewiseLinear, nodal_linear
from relufem.tensorfe import TensorFE, TensorMesh, compile_tnn
from relufem.verify import (TensorNetReport, check_counts, check_tensor_net,
                            check_weak_representation, convergence_experiment,
                            estimate_lp_error, estimate_lp_error_with_stderr,
                            sample_exterior)

from oracles import (foreign_tensor_net, tensor_fe_exact, tnn_exact,
                     tnn_rounding_majorant)


def interval_mesh(*breaks):
    cells = [ConvexCell.from_simplex([[breaks[i]], [breaks[i + 1]]])
             for i in range(len(breaks) - 1)]
    hull = ConvexCell([[1.0], [-1.0]], [-breaks[0], breaks[-1]])
    return PolytopeMesh(1, cells, domain_hull=hull)


def zero_net(n):
    return ReluNet2(np.zeros((1, n)), [0.0], [], [0.0], [0.0])


def test_fresh_compile_passes_across_epsilon_decades():
    mesh = freudenthal_mesh(2, 2)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.random.default_rng(0).uniform(-1, 1, len(verts)))
    h = min_inradius(mesh)
    for factor in (1e-1, 1e-2, 1e-3, 1e-4):
        eps = factor * h
        net = compile_weak_representation(mesh, v, eps)
        rep = check_weak_representation(net, v, mesh, eps,
                                        samples_per_cell=200, seed=1)
        assert rep.passed, rep.as_text()


def test_zero_network_fails_on_constant_one():
    mesh = interval_mesh(0.0, 1.0)
    v = PiecewiseLinear.constant(mesh, [1.0])
    rep = check_weak_representation(zero_net(1), v, mesh, 0.05,
                                    samples_per_cell=100, seed=0)
    assert not rep.interior_pass
    assert rep.max_interior_mismatch == pytest.approx(1.0, abs=1e-12)


def test_zero_function_compiles_to_zero_net():
    mesh = interval_mesh(0.0, 0.5, 1.0)
    v = PiecewiseLinear.constant(mesh, [0.0, 0.0])
    net = compile_weak_representation(mesh, v, 0.02)
    rep = check_weak_representation(net, v, mesh, 0.02,
                                    samples_per_cell=100, seed=0)
    assert rep.passed
    assert rep.R == 0.0
    assert rep.sup_omega <= 1e-12


def test_compact_mode_checks_zero_exterior():
    mesh = freudenthal_mesh(2, 2)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.random.default_rng(3).uniform(-1, 1, len(verts)))
    net = compile_compact_support(mesh, v, 0.01)
    rep = check_weak_representation(net, v, mesh, 0.01, samples_per_cell=200,
                                    seed=2, compact=True)
    assert rep.passed, rep.as_text()
    assert rep.mode == "compact"


def test_check_counts_freudenthal():
    mesh = freudenthal_mesh(2, 2)
    v = PiecewiseLinear.constant(mesh, np.zeros(mesh.n_cells))
    net = compile_weak_representation(mesh, v, 0.01)
    res = check_counts(mesh, net)
    assert res.passed
    assert (res.expected_h1, res.expected_h2) == (14, 9)

    mesh13 = freudenthal_mesh(1, 3)
    v13 = PiecewiseLinear.constant(mesh13, np.zeros(3))
    net13 = compile_weak_representation(mesh13, v13, 0.01)
    res13 = check_counts(mesh13, net13)
    assert res13.passed
    assert (res13.expected_h1, res13.expected_h2) == (6, 4)


def test_check_counts_detects_mismatch():
    mesh = freudenthal_mesh(1, 3)
    res = check_counts(mesh, zero_net(1))
    assert not res.passed


def test_lp_error_identical_functions():
    mesh = freudenthal_mesh(2, 1)
    v = PiecewiseLinear.constant(mesh, [0.3, 0.3])
    assert estimate_lp_error(v, v, mesh, 2.0, 1000, seed=0) == 0.0


def test_lp_error_constant_offset():
    # |f - v| = 1 on a unit-volume mesh gives error 1 for every p
    mesh = freudenthal_mesh(2, 1)
    v = PiecewiseLinear.constant(mesh, [0.25, -0.5])
    offset = lambda X: v.eval_batch(X)[0] + 1.0
    for p in (1.0, 2.0, 3.5):
        err = estimate_lp_error(offset, v, mesh, p, 2000, seed=1)
        assert err == pytest.approx(1.0, abs=1e-9)


def test_lp_error_bounded_by_collar_volume():
    # mismatch lives on the collar: error <= 2R * vol(collar)^(1/p)
    mesh = interval_mesh(0.0, 0.5, 1.0)
    v = PiecewiseLinear(mesh, [[1.0], [-1.0]], [0.0, 1.0])
    R = v.sup_norm()
    h = min_inradius(mesh)
    eps = 1e-3 * h
    net = compile_weak_representation(mesh, v, eps)
    err = estimate_lp_error(net, v, mesh, 2.0, 40000, seed=2)
    collar_volume = 4 * eps  # two cells, two collar ends each
    assert err <= 2 * R * collar_volume ** 0.5 * 1.5 + 1e-9


def test_lp_error_monotone_in_epsilon():
    mesh = freudenthal_mesh(2, 2)
    verts, _ = mesh.vertex_table()
    v = nodal_linear(mesh, np.random.default_rng(4).uniform(-1, 1, len(verts)))
    errs = []
    for eps in (1e-4, 1e-3, 1e-2):
        net = compile_weak_representation(mesh, v, eps)
        errs.append(estimate_lp_error(net, v, mesh, 2.0, 20000, seed=5))
    assert errs[0] <= errs[1] <= errs[2]


def test_lp_error_rejects_bad_p():
    mesh = interval_mesh(0.0, 1.0)
    v = PiecewiseLinear.constant(mesh, [0.0])
    with pytest.raises(VerifyError):
        estimate_lp_error(v, v, mesh, 0.5, 100, seed=0)


def test_lp_error_stderr_scales():
    mesh = freudenthal_mesh(2, 1)
    v = PiecewiseLinear.constant(mesh, [0.0, 0.0])
    bump = lambda X: (X[:, 0] > 0.5).astype(float)
    err, se = estimate_lp_error_with_stderr(bump, v, mesh, 2.0, 4000, seed=6)
    assert err == pytest.approx(0.5 ** 0.5, abs=0.05)
    assert 0 < se < 0.05


def test_sample_exterior_is_outside():
    mesh = freudenthal_mesh(2, 2)
    X = sample_exterior(mesh, 300, seed=7)
    for cell in mesh.cells:
        assert not np.any(cell.contains(X, tol=0.0))
    # includes far points at ten diameters
    assert np.max(np.linalg.norm(X - 0.5, axis=1)) > 5.0


def test_compact_exterior_shortfall_raises():
    # the hull covers the whole inflated box, so no exterior point exists
    mesh = freudenthal_mesh(2, 2)
    mesh.domain_hull = ConvexCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                   [0.0, -1.0]], [100.0, 100.0, 100.0, 100.0])
    v = PiecewiseLinear.constant(mesh, np.zeros(mesh.n_cells))
    with pytest.raises(MeshError, match="exterior"):
        check_weak_representation(zero_net(2), v, mesh, 0.01,
                                  samples_per_cell=50, seed=0, compact=True)


def test_convergence_affine_target_error_is_collar_level():
    # affine targets are reproduced away from facets, so the sampled error
    # is only the collar contribution, which scales like sqrt(eps * N)
    table = convergence_experiment(lambda x: 0.25 + 0.5 * x[0], 2.0, [2, 4],
                                   1, samples=20000, seed=8)
    for row in table.rows:
        assert row.error <= 1.0 * np.sqrt(4e-3) # (2R)*sqrt(2 eps (N+1))-ish
        assert row.h1 == 2 * row.N  # 2 n^2 N - n^2 + n at n=1


def test_convergence_reports_sizes_and_csv():
    target = lambda x: float(x[0] ** 2)
    table = convergence_experiment(target, 2.0, [2, 4], 1, samples=5000, seed=9)
    assert [r.N for r in table.rows] == [2, 4]
    assert [r.h2 for r in table.rows] == [3, 5]
    csv = table.to_csv()
    assert csv.splitlines()[0] == "N,h1,h2,error,stderr"
    assert len(csv.splitlines()) == 3
    assert np.isfinite(table.slope)


def test_convergence_slope_1d_quadratic():
    # second-order decay of the sampled error under the default shrink
    # schedule epsilon(N) = 1e-3 * N^-(2p+1)
    target = lambda x: float(x[0] ** 2)
    table = convergence_experiment(target, 2.0, [2, 4, 8, 16, 32], 1,
                                   samples=30000, seed=10)
    assert -2.3 <= table.slope <= -1.7, table.as_text()


def test_convergence_slope_emerges_for_fast_shrink():
    # with epsilon decaying much faster than the mesh size, the collar
    # contribution is negligible and the interpolation rate shows through
    target = lambda x: float(x[0] ** 2)
    table = convergence_experiment(target, 2.0, [2, 4, 8, 16, 32], 1,
                                   samples=30000, seed=11,
                                   epsilon_rule=lambda N: 1e-9 / N)
    assert -2.3 <= table.slope <= -1.7, table.as_text()
    target2 = lambda x: float(np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    table2 = convergence_experiment(target2, 2.0, [2, 4, 8, 16], 2,
                                    samples=30000, seed=12,
                                    epsilon_rule=lambda N: 1e-9 / N)
    assert -2.3 <= table2.slope <= -1.7, table2.as_text()


def test_convergence_refuses_ill_conditioned_rows():
    # at p=4 the default schedule drives epsilon below the conditioning
    # limit well before N=32; such a row must not be reported
    target = lambda x: float(x[0] ** 2)
    with pytest.raises(VerifyError, match=r"N=\d+, p=4, eps="):
        convergence_experiment(target, 4, [2, 4, 8, 16, 32], 1,
                               samples=2000, seed=13)


def test_check_weak_rejects_bad_epsilon():
    mesh = interval_mesh(0.0, 1.0)
    v = PiecewiseLinear.constant(mesh, [0.0])
    with pytest.raises(VerifyError):
        check_weak_representation(zero_net(1), v, mesh, 0.0)


def test_polygon_mesh_weak_representation():
    mesh = random_polygon_mesh(19)
    v = PiecewiseLinear.constant(
        mesh, np.random.default_rng(20).uniform(-1, 1, mesh.n_cells))
    h = min_inradius(mesh)
    net = compile_weak_representation(mesh, v, 0.05 * h)
    rep = check_weak_representation(net, v, mesh, 0.05 * h,
                                    samples_per_cell=200, seed=3)
    assert rep.passed, rep.as_text()


@pytest.mark.parametrize("dev, rho, passed", [
    (0.5, 0.25, True), (0.5, 0.2500001, False), (0.0, 0.5, True),
    (float("nan"), 0.0, False), (0.0, float("nan"), False)])
def test_a_tensor_net_passes_iff_deviation_and_twice_the_bound_fit(dev, rho, passed):
    rep = TensorNetReport(dev, rho, 1.0)
    assert rep.passed is passed
    assert rep.as_text().endswith(f"tolerance=1.0\npassed={passed}\n")


def close_pair_grid(nodes, gap):
    """nodes points spread over [0, 1], the middle two of them gap apart."""
    g = np.linspace(0.0, 1.0, nodes)
    g[nodes // 2 + 1] = g[nodes // 2] + gap
    return g


def assert_report_covers(u, net, rep, X):
    """At every row of X, exactly: |fl(net) - net| <= rounding_bound, and
    |fl(net) - u| <= max_deviation + 2 rounding_bound, the claim a passing
    report makes for the whole grid box."""
    rho = Fraction(rep.rounding_bound)
    claim = Fraction(rep.max_deviation) + 2 * rho
    worst = Fraction(0)
    for x, y in zip(X, net.forward_batch(X)):
        off = abs(Fraction(float(y)) - tnn_exact(net, x))
        assert off <= rho
        worst = max(worst, off)
        assert abs(Fraction(float(y)) - tensor_fe_exact(u, x)) <= claim
    return worst


@pytest.mark.parametrize("seed", range(3))
def test_the_rounding_bound_covers_the_exact_net_between_nodes(seed):
    """Hat layers on a grid with two nodes 1e-7 apart cancel heavily: the
    computed net is off the exact one by far more than at well spaced
    nodes, between nodes as at them, and the bound still covers it."""
    rng = np.random.default_rng(seed)
    grids = [close_pair_grid(12, 1e-7), np.linspace(0.0, 1.0, 9)]
    u = TensorFE(TensorMesh(grids), rng.standard_normal((12, 3))
                 @ rng.standard_normal((3, 9)))
    net = compile_tnn(u)
    rep = check_tensor_net(u, net)
    nodes = np.array(np.meshgrid(*grids, indexing="ij")).reshape(2, -1).T
    near = np.column_stack([grids[0][6] + rng.uniform(-1e-6, 1e-6, 100),
                            rng.uniform(0, 1, 100)])
    X = np.vstack([nodes, rng.uniform(0, 1, (150, 2)), near])
    worst = assert_report_covers(u, net, rep, X)
    # the rounding is real, and the bound is not vacuous
    assert worst > 0
    assert rep.rounding_bound < 1e5 * float(worst)


@pytest.mark.parametrize("seed", range(8))
def test_the_report_covers_foreign_nets_at_their_kinks(seed):
    """A foreign net's kinks fl(-b / W) join the axis grids: exactly at
    them, between them and at random points, the report's claim holds."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    counts = tuple(int(c) for c in rng.integers(2, 5, n))
    grids = [np.sort(np.r_[0.0, rng.uniform(0, 1, c - 2), 1.0]) for c in counts]
    u = TensorFE(TensorMesh(grids), rng.standard_normal(counts))
    net = foreign_tensor_net(rng, n)
    rep = check_tensor_net(u, net)
    axes = []
    for (W, b, _), g in zip(net.branches, grids):
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = -b / W[:, 0]
        kinks = kinks[(kinks >= 0.0) & (kinks <= 1.0)]
        mids = (kinks[:, None] + rng.uniform(-1e-3, 1e-3, 2)).ravel()
        axes.append(np.clip(np.r_[g, kinks, mids], 0.0, 1.0))
    X = np.array(np.meshgrid(*axes, indexing="ij")).reshape(n, -1).T
    X = np.vstack([X, rng.uniform(0, 1, (100, n))])
    assert_report_covers(u, net, rep, X)
    # the rounding bound is the neuron-by-neuron majorant's largest value,
    # which lies on the grid of nodes and kinks that X holds (plus an
    # underflow term below 1e-300)
    majorant = max(tnn_rounding_majorant(net, x) for x in X)
    assert rep.rounding_bound == pytest.approx(float(majorant), rel=1e-9, abs=1e-300)
    assert rep.rounding_bound >= majorant


def test_a_kink_hidden_between_nodes_fails_the_check():
    """A tent c [relu(x - t_i) - 2 relu(x - m) + relu(x - t_i+1)] added to
    one branch is 0 at every node: the node grid alone passes the net, and
    the check, which evaluates its kink m too, fails it."""
    rng = np.random.default_rng(4)
    grids = [np.array([0.0, 0.3, 0.55, 1.0]), np.array([0.0, 0.4, 1.0])]
    u = TensorFE(TensorMesh(grids), rng.standard_normal((4, 3)))
    net = compile_tnn(u)
    assert check_tensor_net(u, net).passed
    (W, b, weights), other = net.branches
    lo, hi = grids[0][1], grids[0][2]
    tent = np.zeros((net.rank, 3))
    tent[0] = [1e-3, -2e-3, 1e-3]
    mutant = TensorNet([(np.r_[W[:, 0], 1.0, 1.0, 1.0],
                         np.r_[b, -lo, -(lo + hi) / 2, -hi],
                         np.hstack([weights, tent])), other])
    rep = check_tensor_net(u, mutant)
    nodes = np.array(np.meshgrid(*grids, indexing="ij")).reshape(2, -1).T
    at_nodes = float(np.max(np.abs(mutant(nodes) - u.coefficients.ravel())))
    assert at_nodes + 2 * rep.rounding_bound <= rep.tolerance
    assert not rep.passed
    assert rep.max_deviation > 100 * rep.tolerance


def test_the_check_passes_an_800x800_rank_6_net():
    """The benchmark's fine case: every one of the 640,000 nodes and the
    rounding bound between them, well inside the tolerance. The nodes are
    jittered about a uniform grid, as the benchmark's are: sorted uniform
    draws bring two nodes close enough to fail (see the close-pair test)."""
    rng = np.random.default_rng(1)
    jitter = [np.r_[0.0, rng.uniform(-0.25, 0.25, 798), 0.0] for _ in range(2)]
    grids = [(np.arange(800) + j) / 799 for j in jitter]
    u = TensorFE(TensorMesh(grids), rng.standard_normal((800, 6))
                 @ rng.standard_normal((6, 800)))
    rep = check_tensor_net(u, compile_tnn(u))
    assert rep.passed
    assert rep.max_deviation + 2 * rep.rounding_bound < 0.9 * rep.tolerance
