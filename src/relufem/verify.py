"""Numerical verification: representation checks on sampled regions, the
exhaustive check of a tensor net on its breakpoint grid, neuron-count
checks, Monte-Carlo L^p error estimation, and the mesh refinement
convergence experiment.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._chunks import CHUNK_ELEMENTS, run_chunks
from .errors import ConditioningWarning, DocumentError, VerifyError
from .mesh import PolytopeMesh
from .sampling import sample_cells, sample_exterior, sample_mesh
from .networks import ReluNet2, TensorNet, grid_rank_sum
from .pwl import PiecewiseLinear
from .tensorfe import TensorFE

INTERIOR_RTOL = 1e-9
EXTERIOR_TOL = 1e-9
BOUND_TOL = 1e-9
TNN_RTOL = 1e-9
# unit roundoff of binary64 rounding to nearest, and the smallest normal
UNIT_ROUNDOFF = 2.0 ** -53
TINY = 2.0 ** -1022


@dataclass
class WeakRepReport:
    """Sampled evidence for the three representation clauses."""

    mode: str
    epsilon: float
    R: float
    max_interior_mismatch: float
    sup_omega: float
    max_exterior_deviation: float
    interior_samples: int
    omega_samples: int
    exterior_samples: int
    interior_tol: float
    bound_limit: float
    exterior_tol: float

    @property
    def interior_pass(self) -> bool:
        return self.max_interior_mismatch <= self.interior_tol

    @property
    def bound_pass(self) -> bool:
        return self.sup_omega <= self.bound_limit

    @property
    def exterior_pass(self) -> bool:
        return self.max_exterior_deviation <= self.exterior_tol

    @property
    def passed(self) -> bool:
        return self.interior_pass and self.bound_pass and self.exterior_pass

    def as_text(self) -> str:
        out = io.StringIO()
        for key in ("mode", "epsilon", "R", "max_interior_mismatch",
                    "sup_omega", "max_exterior_deviation", "interior_samples",
                    "omega_samples", "exterior_samples", "interior_tol",
                    "bound_limit", "exterior_tol"):
            out.write(f"{key}={getattr(self, key)!r}\n")
        for key in ("interior_pass", "bound_pass", "exterior_pass", "passed"):
            out.write(f"{key}={getattr(self, key)}\n")
        return out.getvalue()


def check_weak_representation(net: ReluNet2, v: PiecewiseLinear,
                              mesh: PolytopeMesh, epsilon: float,
                              samples_per_cell: int = 1000, seed: int = 0,
                              compact: bool = False) -> WeakRepReport:
    """Sample the shrunk cells, the whole mesh, and the exterior, and
    compare the network against the target clause by clause.

    Weak mode expects f = v inside the shrunk cells, |f| <= R over the
    mesh, and f = -R outside. Compact mode expects exterior 0 and the
    relaxed bound 2R, measured outside the domain hull.
    """
    if not epsilon > 0:
        raise VerifyError("epsilon must be > 0")
    R = v.sup_norm()

    Xi, tags = sample_cells(mesh, samples_per_cell, seed, epsilon=epsilon)
    if Xi.shape[0] == 0:
        raise VerifyError("no interior samples: epsilon too large")
    mismatch = np.abs(net(Xi) - v.eval_cells(Xi, tags))

    Xo, _ = sample_cells(mesh, samples_per_cell, seed + 1, epsilon=0.0)
    sup_omega = float(np.max(np.abs(net(Xo))))

    region = mesh.domain_hull if compact else None
    Xe = sample_exterior(mesh, max(500, samples_per_cell), seed + 2,
                         region=region)
    target = 0.0 if compact else -R
    exterior_dev = float(np.max(np.abs(net(Xe) - target)))

    bound_limit = (2.0 * R if compact else R) + BOUND_TOL
    return WeakRepReport(
        mode="compact" if compact else "weak",
        epsilon=epsilon,
        R=R,
        max_interior_mismatch=float(np.max(mismatch)),
        sup_omega=sup_omega,
        max_exterior_deviation=exterior_dev,
        interior_samples=int(Xi.shape[0]),
        omega_samples=int(Xo.shape[0]),
        exterior_samples=int(Xe.shape[0]),
        interior_tol=INTERIOR_RTOL * (1.0 + R),
        bound_limit=bound_limit,
        exterior_tol=EXTERIOR_TOL,
    )


@dataclass
class TensorNetReport:
    """The grid check of a tensor net against a tensor FE function."""

    max_deviation: float
    rounding_bound: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # False when either term is NaN
        return self.max_deviation + 2.0 * self.rounding_bound <= self.tolerance

    def as_text(self) -> str:
        return (f"max_deviation={self.max_deviation!r}\n"
                f"rounding_bound={self.rounding_bound!r}\n"
                f"tolerance={self.tolerance!r}\n"
                f"passed={self.passed}\n")


def _exact_products(W):
    """Entries w for which w * t is exact for every float t whose product
    does not underflow: 0 and the powers of two."""
    return (W == 0) | (np.abs(np.frexp(W)[0]) == 0.5)


def _breakpoints(g, W, b):
    """(points, delta) of one axis: its nodes g merged with the branch's
    float kinks fl(-b_j / W_j) strictly inside (g_0, g_N), and the largest
    distance from an exact kink that may lie in the box to its float one
    (np.spacing of the float kink; 0 when every kink is exact)."""
    live = W != 0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        kinks = -b[live] / W[live]
        gap = np.spacing(np.abs(kinks))
    inside = kinks[(kinks > g[0]) & (kinks < g[-1]) & ~np.isin(kinks, g)]
    exact = _exact_products(W[live]) & ((kinks == 0) | (np.abs(kinks) >= TINY))
    near = ~exact & (kinks >= g[0] - gap) & (kinks <= g[-1] + gap)
    return np.union1d(g, inside), float(np.max(gap[near], initial=0.0))


def _branch_rounding(net, k, t):
    """phi, (rank, len(t)), with u phi bounding the rounding of
    net.branch_values(k, t), u the unit roundoff (see check_tensor_net):
    the |partial sums| of each rank row in column order, twice its
    |products|, and |weights| @ |W t| over the rows whose W * t rounds. A
    zero weight is not stored, so its partial sum is the one before it,
    counted twice: a looser bound, no weaker."""
    W, _, weights = net.branches[k]
    r = net.branch_inputs(k, t)
    wabs = np.abs(weights)
    rounds = ~_exact_products(W[:, 0])
    phi = 2.0 * np.einsum("pj,jm->pm", wabs, r)
    if rounds.any():
        phi += np.einsum("pj,jm->pm", wabs[:, rounds], np.abs(W[rounds] * t))
    # points in the middle axis, so each row's partial sums run along the
    # contiguous last axis
    rt = np.ascontiguousarray(r.T)

    def body(lo, hi):
        s = weights[:, None, :] * rt[lo:hi]
        np.cumsum(s, axis=2, out=s)
        phi[:, lo:hi] += np.sum(np.abs(s, out=s), axis=2)

    run_chunks(body, t.size, max(1, CHUNK_ELEMENTS // weights.size))
    return phi


def check_tensor_net(u: TensorFE, net: TensorNet) -> TensorNetReport:
    """Check net against u on the whole grid box, exhaustively.

    The check. Each branch of net is piecewise linear in its coordinate,
    with kinks at -b_j / W_j, and u is multilinear on each grid cell. So on
    each box of the product grid of nodes and kinks, net - u is multilinear
    and its extremes lie at the box's corners: sup |net - u| over the grid
    box is its maximum on that finite grid. The float kinks inside the box
    are merged into the axis grids (a net compiled by compile_tnn has its
    kinks at the nodes already). grid_rank_sum of the branch values G_k on
    each axis, contracted once, gives the net there (forward_grid's bits
    up to a NaN's sign), and u.eval_grid gives u (its coefficients at the
    nodes). max_deviation is the grid maximum of |net - u|.

    The bound. Between nodes the computed net can be further off than at
    any node, so rounding_bound rho bounds |fl(net) - net| everywhere in
    the box, and the check passes iff max_deviation + 2 rho <= tolerance
    (1e-9 (1 + max|c|)): the computed net then lies within tolerance of u
    at every point of the box. The analysis is running-error analysis
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3),
    in the model fl(x op y) = (x op y) / (1 + d), |d| <= u = 2^-53, so an
    operation's error is at most u times its computed result. At a point
    t of axis k, branch_values forms a_j = fl(W_j t), z_j = fl(a_j + b_j),
    r_j = max(z_j, 0), then, along row p's stored entries J in storage
    order, q_J = fl(w_J r_J) and the partial sums s_J = fl(s_prev + q_J):
      - the sum of a_j and b_j moves relu by at most u r_j: z_j and a_j + b_j
        share their sign, and where positive differ by at most u z_j;
      - a_j is exact where W_j is 0 or a power of two, else within u |a_j|;
      - each q_J and s_J is within u |q_J| and u |s_J|.
    So |fl(G_kp) - G_kp| <= mu_kp = u phi_kp, with phi_kp = sum_J |s_J| +
    2 sum_J |w_J| r_J + sum over the rounding rows |w_J| |a_J|. The
    textbook bound gamma_m |w| @ relu(W t + b) (m the width) would not do:
    ramp sums cancel, and on the benchmark's 800 x 800 rank-6 nets it
    exceeds the tolerance about 50-fold, where this one stays at 0.15-0.18
    of it. The branches multiply in axis order from ones
    (n - 1 roundings) and the rank terms add in order (term p = 0, ...,
    r - 1 is in r - p partial sums), so with g_k = |G_k|:
        |fl(net) - net| <= sum_p (1 + c_p) prod_k (g_kp + mu_kp)
                                 - prod_k g_kp,   c_p = (n - 1 + r - p) u'.
    Written with exact quantities (the exact partial sums, relu(W t + b)
    and |W t| in phi), this majorant is, in each coordinate with the others
    fixed, a nonnegative combination of |affine| and relu(affine) pieces
    between the kinks: convex there. So its maximum over the box also lies
    on the grid. At the grid points, the computed quantities stand in for
    the exact ones: a_k = fl(|G_k| + mu_k) bounds |exact G_k| up to its
    own rounding, and that rounding, every gap between the computed and
    the exact phi, and the float evaluation of the majorant are relative
    errors of at most D u for D = max width + n + r + 4, which the factor
    inflate = 1 + 8 D u covers (it is the u' above too). The difference is
    evaluated as its nonnegative telescoped terms, c_p prod_k a_k and
    (1 + c_p) mu_k prod_{j<k} a_j prod_{j>k} (a_j + mu_j), so that neither
    cancellation nor a mu rounded away in a sum spoils the bound. (The
    verdict's own two sums round by at most 2u of the tolerance.)

    The slack terms, zero for a net compiled by compile_tnn:
      - u between nodes (an axis with merged kinks) is computed within
        12 n u (max|c| + 2^-1022) (TensorFE.eval_grid), added to
        max_deviation;
      - a float kink fl(-b_j / W_j) that may differ from the exact one by
        up to delta_k (np.spacing) moves the corner the analysis needs by
        delta_k; net, u and 2 rho change by at most delta_k (6 L_k + Lu_k)
        there, with L_k = sum_p S_kp prod_{j != k} B_jp, S_kp = sum_J |w_J
        W_J| bounding G_kp's slope, B_jp = max(a_j + mu_j) + 2 S_jp delta_j
        bounding |G_jp| + mu_jp on the whole axis, and Lu_k u's steepest
        slope along axis k; added to max_deviation;
      - a product that underflows may lose 2^-1075 where the model allows
        nothing. Fewer than K = 4 r (sum of widths + 2n + 2) products reach
        a point's value or its bound, each multiplied afterwards by at most
        2 max(1, max|w|) prod_k max(1, max_p B_kp); rho adds that total.

    A net whose branch count is not u's dimension raises DocumentError.
    """
    n = u.mesh.n
    if net.n != n:
        raise DocumentError(f"input dimension {n}, expected {net.n}")
    axes, deltas = zip(*(_breakpoints(g, W[:, 0], b) for g, (W, b, _)
                         in zip(u.mesh.grids, net.branches)))
    deltas = np.array(deltas)
    cmax = float(np.max(np.abs(u.coefficients)))
    tol = TNN_RTOL * (1.0 + cmax)
    G = [net.branch_values(k, t) for k, t in enumerate(axes)]
    dev = float(np.max(np.abs(grid_rank_sum(G, np.ones(net.rank))
                              - u.eval_grid(axes))))
    if any(t.size != g.size for t, g in zip(axes, u.mesh.grids)):
        dev += 12 * n * UNIT_ROUNDOFF * (cmax + TINY)

    rank = net.rank
    inflate = 1.0 + 8 * (max(net.widths) + n + rank + 4) * UNIT_ROUNDOFF
    mu = [UNIT_ROUNDOFF * inflate * _branch_rounding(net, k, t)
          for k, t in enumerate(axes)]
    a = [np.abs(g) + m for g, m in zip(G, mu)]
    h = [x + m for x, m in zip(a, mu)]
    c = (n - 1 + rank - np.arange(rank)) * UNIT_ROUNDOFF * inflate
    bound = grid_rank_sum(a, c)
    for k in range(n):
        bound += grid_rank_sum(a[:k] + [mu[k]] + h[k + 1:], 1.0 + c)
    rho = float(np.max(bound)) * inflate

    slopes = np.array([np.einsum("pj,j->p", np.abs(w), np.abs(W[:, 0]))
                       for W, _, w in net.branches])
    B = np.array([np.max(x + m, axis=1) for x, m in zip(a, mu)])
    B += 2.0 * slopes * deltas[:, None]
    for k in np.flatnonzero(deltas):
        L = np.sum(slopes[k] * np.prod(np.delete(B, k, axis=0), axis=0))
        Lu = np.max(np.abs(np.diff(u.coefficients, axis=k))
                    / np.diff(u.mesh.grids[k]).reshape((-1,) + (1,) * (n - k - 1)))
        dev += deltas[k] * (6.0 * L + Lu) * inflate

    K = 4 * rank * (sum(net.widths) + 2 * n + 2)
    wmax = max(float(np.max(np.abs(w), initial=0.0)) for _, _, w in net.branches)
    scale = (math.log2(K) + math.log2(max(1.0, wmax))
             + float(np.sum(np.log2(np.maximum(1.0, np.max(B, axis=1))))))
    rho += math.ldexp(1.0, math.ceil(scale) + 2 - 1074) if scale < 2000 else math.inf
    return TensorNetReport(dev, rho, tol)


@dataclass
class CountCheck:
    expected_h1: int
    expected_h2: int
    actual_h1: int
    actual_h2: int
    interior: int
    boundary: int
    n_cells: int

    @property
    def passed(self) -> bool:
        return (self.expected_h1 == self.actual_h1
                and self.expected_h2 == self.actual_h2)

    def as_text(self) -> str:
        return (f"H_interior={self.interior}\nH_boundary={self.boundary}\n"
                f"N_cells={self.n_cells}\n"
                f"expected_h1={self.expected_h1}\nactual_h1={self.actual_h1}\n"
                f"expected_h2={self.expected_h2}\nactual_h2={self.actual_h2}\n"
                f"passed={self.passed}\n")


def check_counts(mesh: PolytopeMesh, net: ReluNet2) -> CountCheck:
    """Hidden-layer sizes against the mesh hyperplane/cell counts:
    h1 = 2 H_i + H_b and h2 = N_cells + 1 (N_cells in output-bias mode)."""
    hi, hb, nt = mesh.counts()
    expected_h1 = 2 * hi + hb
    if net.provenance.get("mode") == "compact":
        expected_h1 = mesh.registry(mesh.domain_hull).size
        expected_h2 = nt + 1
    elif net.provenance.get("output_bias_mode"):
        expected_h2 = nt
    else:
        expected_h2 = nt + 1
    return CountCheck(expected_h1, expected_h2, net.h1, net.h2, hi, hb, nt)


def _as_batch(f, mesh):
    if isinstance(f, PiecewiseLinear):
        return lambda X: f.eval_batch(X)[0]
    if callable(f):
        return f
    raise VerifyError(f"cannot evaluate object of type {type(f).__name__}")


def estimate_lp_error_with_stderr(f, v, mesh: PolytopeMesh, p: float,
                                  samples: int, seed: int):
    """(error, stderr): (vol * mean |f-v|^p)^(1/p) over uniform mesh samples,
    with the delta-method standard error of the estimate."""
    if not (1.0 <= p < np.inf):
        raise VerifyError("p must satisfy 1 <= p < inf")
    if samples < 1:
        raise VerifyError("samples must be >= 1")
    X = sample_mesh(mesh, samples, seed)
    fv = _as_batch(f, mesh)(X)
    vv = _as_batch(v, mesh)(X)
    power = np.abs(fv - vv) ** p
    vol = mesh.volume()
    mean = float(np.mean(power))
    err = (vol * mean) ** (1.0 / p)
    if mean <= 0.0:
        return 0.0, 0.0
    sd = float(np.std(power)) / np.sqrt(samples)
    stderr = (vol ** (1.0 / p)) * (1.0 / p) * mean ** (1.0 / p - 1.0) * sd
    return float(err), float(stderr)


def estimate_lp_error(f, v, mesh: PolytopeMesh, p: float, samples: int,
                      seed: int) -> float:
    """Monte-Carlo L^p distance between two evaluable functions on the mesh."""
    return estimate_lp_error_with_stderr(f, v, mesh, p, samples, seed)[0]


@dataclass
class ConvergenceRow:
    N: int
    h1: int
    h2: int
    error: float
    stderr: float


@dataclass
class ConvergenceTable:
    rows: list
    slope: float
    p: float
    n: int

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("N,h1,h2,error,stderr\n")
        for r in self.rows:
            out.write(f"{r.N},{r.h1},{r.h2},{r.error!r},{r.stderr!r}\n")
        return out.getvalue()

    def as_text(self) -> str:
        out = io.StringIO()
        out.write(f"{'N':>6} {'h1':>8} {'h2':>8} {'error':>14} {'stderr':>12}\n")
        for r in self.rows:
            out.write(f"{r.N:>6} {r.h1:>8} {r.h2:>8} "
                      f"{r.error:>14.6e} {r.stderr:>12.2e}\n")
        out.write(f"fitted log-log slope: {self.slope:.4f}\n")
        return out.getvalue()


def convergence_experiment(target, p: float, Ns, n: int,
                           samples: int = 100_000, seed: int = 0,
                           epsilon_rule=None) -> ConvergenceTable:
    """Refine the standard simplicial grid, compile the nodal interpolant
    of the target at epsilon = epsilon_rule(N), and record the sampled L^p
    error of the compiled network against the target, with a fitted log-log
    slope.

    The network matches the interpolant only on the shrunk cells; on the
    collar of width ~epsilon around every facet it is merely bounded by
    R = sup|v|. On the grid of [0,1]^n the total facet measure grows like N,
    so the collar adds up to about 2R (C epsilon N)^(1/p) to the error. The
    default schedule epsilon(N) = 1e-3 * N^-(2p+1) keeps that term at
    O(N^-2), the interpolation rate, so the fitted slope shows the
    refinement rate rather than a fixed collar floor.

    The first-layer size is verified against 2 n^2 N - n^2 + n at every N.
    A row whose compilation trips the conditioning guard (a
    ConditioningWarning, which large p or large N can cause under the
    default schedule, as can a user-given epsilon_rule) is refused with a
    VerifyError naming N, p and epsilon, rather than reported with an error
    that rounding has spoilt.
    """
    from .compiler import compile_weak_representation
    from .mesh import freudenthal_mesh
    from .pwl import nodal_linear

    Ns = [int(N) for N in Ns]
    if len(Ns) < 2 or any(N < 1 for N in Ns) or sorted(set(Ns)) != Ns:
        raise VerifyError("Ns must be at least two strictly increasing "
                          "positive integers, to fit a slope")
    # checked before any compile, since the default schedule depends on p
    if not (1.0 <= p < np.inf):
        raise VerifyError("p must satisfy 1 <= p < inf")
    if epsilon_rule is None:
        epsilon_rule = lambda N: 1e-3 * N ** -(2.0 * p + 1.0)
    rows = []
    for N in Ns:
        mesh = freudenthal_mesh(n, N)
        verts, _ = mesh.vertex_table()
        values = np.array([target(v) for v in verts])
        v = nodal_linear(mesh, values)
        eps = epsilon_rule(N)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            try:
                net = compile_weak_representation(mesh, v, eps)
            except ConditioningWarning as exc:
                raise VerifyError(
                    f"N={N}, p={p}, eps={eps:.3e}: {exc}") from exc
        expected_h1 = 2 * n * n * N - n * n + n
        if net.h1 != expected_h1:
            raise VerifyError(
                f"first layer has {net.h1} neurons at N={N}, "
                f"expected {expected_h1}")
        err, se = estimate_lp_error_with_stderr(
            net, lambda X: np.apply_along_axis(target, 1, np.atleast_2d(X)),
            mesh, p, samples, seed)
        rows.append(ConvergenceRow(N, net.h1, net.h2, err, se))
    logN = np.log([r.N for r in rows])
    logE = np.log([max(r.error, 1e-300) for r in rows])
    slope = float(np.polyfit(logN, logE, 1)[0])
    return ConvergenceTable(rows=rows, slope=slope, p=p, n=n)
