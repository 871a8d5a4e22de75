"""Numerical verification: representation checks on sampled regions,
neuron-count checks, Monte-Carlo L^p error estimation, and the mesh
refinement convergence experiment.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, VerifyError
from .mesh import PolytopeMesh, sample_cells, sample_exterior, sample_mesh
from .networks import ReluNet2
from .pwl import PiecewiseLinear

INTERIOR_RTOL = 1e-9
EXTERIOR_TOL = 1e-9
BOUND_TOL = 1e-9


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
