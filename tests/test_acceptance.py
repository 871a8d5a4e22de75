"""Acceptance suite: every numbered criterion runs at its stated tolerance
and prints one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from relufem.compiler import (compile_compact_support,
                              compile_weak_representation,
                              merge_duplicate_neurons)
from relufem.mesh import freudenthal_mesh, min_inradius
from relufem.meshgen import (demo_polygon_mesh, demo_simplex_mesh,
                             random_bounded_polytope, random_partition_mesh_1d,
                             random_polygon_mesh, random_simplex_mesh)
from relufem.pwl import PiecewiseLinear, nodal_linear
from relufem.tensorfe import TensorFE, TensorMesh, compile_1d_hat, compile_tnn
from relufem.verify import check_weak_representation, convergence_experiment

from oracles import (positive_combination_bruteforce,
                     positive_normal_combination)


def criterion(num, passed, description):
    line = f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {description}"
    print(line)
    assert passed, line


# --- criterion 1: exact layer sizes on the standard simplicial family --------

def test_criterion_1_count_identity():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    ok = True
    for n in (1, 2, 3):
        for N in (1, 2, 3, 4):
            mesh = freudenthal_mesh(n, N)
            v = PiecewiseLinear.constant(
                mesh, rng.uniform(-1, 1, mesh.n_cells))
            eps = 0.01 / N
            net = compile_weak_representation(mesh, v, eps)
            expect_h1 = 2 * (n * n * N - n * (n + 1) // 2) + 2 * n
            expect_h2 = N ** n * math.factorial(n) + 1
            ok &= (net.h1, net.h2) == (expect_h1, expect_h2)
            biased = compile_weak_representation(mesh, v, eps,
                                                 use_output_bias=True)
            ok &= (biased.h1, biased.h2) == (expect_h1, expect_h2 - 1)
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    criterion(1, ok, f"layer sizes exact for 12 grid meshes ({elapsed:.1f}s)")


# --- criterion 2: the two worked mesh size examples ---------------------------

def test_criterion_2_worked_examples():
    rng = np.random.default_rng(2)
    polygon = demo_polygon_mesh()
    v_poly = PiecewiseLinear.constant(polygon,
                                      rng.uniform(-1, 1, polygon.n_cells))
    net_poly = compile_weak_representation(polygon, v_poly,
                                           0.01 * min_inradius(polygon))
    simplex = demo_simplex_mesh()
    verts, _ = simplex.vertex_table()
    v_simp = nodal_linear(simplex, rng.uniform(-1, 1, len(verts)))
    net_simp = compile_weak_representation(simplex, v_simp,
                                           0.01 * min_inradius(simplex))
    ok = (net_poly.h1, net_poly.h2) == (53, 19)
    ok &= (net_simp.h1, net_simp.h2) == (30, 33)
    criterion(2, ok, f"polygon mesh -> ({net_poly.h1},{net_poly.h2}), "
                     f"triangle mesh -> ({net_simp.h1},{net_simp.h2})")


# --- criteria 3 and 4: randomized representation suite ------------------------

def _suite_case(i):
    seed = 1000 + i
    kind = i % 5
    if kind == 0:
        mesh = random_partition_mesh_1d(seed, n_cells=4 + i % 3)
    elif kind == 1:
        mesh = random_simplex_mesh(2, 2, seed)
    elif kind == 2:
        mesh = random_simplex_mesh(3, 1, seed)
    elif kind == 3:
        mesh = random_polygon_mesh(seed)
    else:
        mesh = random_simplex_mesh(2, 3, seed)
    rng = np.random.default_rng(seed)
    use_nodal = (kind != 3) and ((i // 5) % 2 == 0)
    if use_nodal:
        verts, _ = mesh.vertex_table()
        v = nodal_linear(mesh, rng.uniform(-1, 1, len(verts)))
    else:
        v = PiecewiseLinear.constant(mesh, rng.uniform(-1, 1, mesh.n_cells))
    eps = (1e-1, 1e-2, 1e-3)[i % 3] * min_inradius(mesh)
    return mesh, v, eps, seed


@pytest.fixture(scope="module")
def representation_suite():
    cases = []
    for i in range(50):
        mesh, v, eps, seed = _suite_case(i)
        cases.append({
            "mesh": mesh, "v": v, "eps": eps, "seed": seed,
            "weak": compile_weak_representation(mesh, v, eps),
            "compact": compile_compact_support(mesh, v, eps),
        })
    return cases


def test_criterion_3_weak_representation_suite(representation_suite):
    start = time.monotonic()
    failures = []
    for i, case in enumerate(representation_suite):
        rep = check_weak_representation(
            case["weak"], case["v"], case["mesh"], case["eps"],
            samples_per_cell=1000, seed=case["seed"])
        if not rep.passed:
            failures.append((i, rep.as_text()))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    criterion(3, ok, f"50 randomized weak-representation cases "
                     f"({elapsed:.1f}s){failures[:2]}")


def test_criterion_4_compact_support_suite(representation_suite):
    failures = []
    for i, case in enumerate(representation_suite):
        rep = check_weak_representation(
            case["compact"], case["v"], case["mesh"], case["eps"],
            samples_per_cell=1000, seed=case["seed"] + 7, compact=True)
        if not rep.passed:
            failures.append((i, rep.as_text()))
    criterion(4, not failures,
              f"50 compactly supported cases: exterior 0, bound 2R"
              f"{failures[:2]}")


# --- criterion 5: the duplicate-neuron merge never changes the function ------

def test_criterion_5_dedup_soundness():
    rng = np.random.default_rng(5)
    corpus = [freudenthal_mesh(1, 3), freudenthal_mesh(2, 2),
              freudenthal_mesh(3, 1), freudenthal_mesh(2, 4),
              demo_polygon_mesh(), random_simplex_mesh(2, 2, 71),
              random_simplex_mesh(3, 1, 72), random_polygon_mesh(73),
              random_partition_mesh_1d(74)]
    worst = 0.0
    for mesh in corpus:
        if mesh.is_simplicial():
            verts, _ = mesh.vertex_table()
            v = nodal_linear(mesh, rng.uniform(-1, 1, len(verts)))
        else:
            v = PiecewiseLinear.constant(mesh,
                                         rng.uniform(-1, 1, mesh.n_cells))
        eps = 1e-2 * min_inradius(mesh)
        pre = compile_weak_representation(mesh, v, eps, merge=False)
        post = merge_duplicate_neurons(pre, mesh.registry())
        lo, hi = mesh.bounding_box()
        span = hi - lo
        X = rng.uniform(lo - 0.5 * span, hi + 0.5 * span,
                        (1000, mesh.dimension))
        worst = max(worst, float(np.max(np.abs(pre(X) - post(X)))))
    criterion(5, worst <= 1e-12,
              f"pre/post-merge agreement, worst drift {worst:.2e}")


# --- criterion 6: refinement convergence rate ---------------------------------

def test_criterion_6_convergence_rate():
    start = time.monotonic()
    target = lambda x: float(np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    table = convergence_experiment(target, 2.0, [2, 4, 8, 16], 2,
                                   samples=100_000, seed=6)
    elapsed = time.monotonic() - start
    sizes_ok = all(r.h1 == 2 * 4 * r.N - 4 + 2 for r in table.rows)
    ok = sizes_ok and (-2.3 <= table.slope <= -1.7) and elapsed < 300.0
    criterion(6, ok, f"slope {table.slope:.3f} in [-2.3,-1.7] at "
                     f"eps=1e-3*N^-(2p+1) ({elapsed:.0f}s)\n"
                     + table.as_text())


# --- criterion 7: exact tensor network compilation ----------------------------

def test_criterion_7_tnn_strict_representation():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(20):
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(2, 8))
        g1 = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n1 - 1))])
        g2 = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n2 - 1))])
        c = rng.standard_normal((n1, n2))
        u = TensorFE(TensorMesh([g1, g2]), c)
        net = compile_tnn(u)
        sv = np.linalg.svd(c, compute_uv=False)
        svd_rank = int(np.sum(sv > 1e-12 * sv[0]))
        ok &= net.rank == svd_rank
        nodes = np.array([[a, b] for a in g1 for b in g2])
        X = np.column_stack([rng.uniform(g1[0], g1[-1], 10_000),
                             rng.uniform(g2[0], g2[-1], 10_000)])
        pts = np.vstack([nodes, X])
        dev = float(np.max(np.abs(net(pts) - u(pts))))
        ok &= dev <= 1e-9 * (1.0 + float(np.max(np.abs(c))))
    generic = TensorFE(TensorMesh([np.linspace(0, 1, 4), np.linspace(0, 1, 5)]),
                       rng.standard_normal((4, 5)))
    gnet = compile_tnn(generic)
    ok &= gnet.rank == 4 and gnet.widths == [4, 5]
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    criterion(7, ok, f"20 random tensor compilations exact, generic 4x5 "
                     f"instance rank 4 widths (4,5) ({elapsed:.1f}s)")


# --- criterion 8: positive zero-sum combinations against a brute oracle ------

def test_criterion_8_positive_combination_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    ok = True
    for i in range(100):
        n = 2 if i < 50 else 3
        m = int(rng.integers(n + 1, 7))
        cell = random_bounded_polytope(n, m, seed=3000 + i)
        lam = positive_normal_combination(cell)
        ok &= lam.min() >= 1.0 - 1e-9
        ok &= (np.linalg.norm(cell.W.T @ lam)
               <= 1e-10 * float(lam @ cell.norms))
        oracle = positive_combination_bruteforce(cell)
        ok &= oracle is not None
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    criterion(8, ok, f"100 random polytopes: lambda >= 1, tiny residual, "
                     f"brute-force oracle feasible ({elapsed:.1f}s)")


# --- criterion 9: 1D interpolation layer --------------------------------------

def test_criterion_9_1d_hat_oracle():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(50):
        size = int(rng.integers(2, 10))
        grid = np.concatenate([[rng.uniform(-1, 0)],
                               np.cumsum(rng.uniform(0.05, 1.0, size - 1))])
        values = rng.standard_normal(size)
        W, b, w = compile_1d_hat(grid, values)

        def l(x):
            return np.maximum(np.outer(x, W.ravel()) + b, 0.0) @ w

        ok &= bool(np.max(np.abs(l(grid) - values)) <= 1e-10)
        mids = 0.5 * (grid[:-1] + grid[1:])
        second_diff = l(mids) - 0.5 * (l(grid[:-1]) + l(grid[1:]))
        ok &= bool(np.max(np.abs(second_diff)) <= 1e-9)
    criterion(9, ok, "50 random 1D interpolants exact and piecewise linear")
