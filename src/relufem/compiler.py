"""Constructive compilation of piecewise linear mesh functions into
two-hidden-layer ReLU networks.

For every cell the compiler builds a compactly supported "bump"
subnetwork equal to v + R strictly inside the cell, bounded by 2R in the
epsilon collar, and zero outside; summing the bumps against a constant -R
reproduces v away from cell boundaries while keeping |f| <= R. The exact
ingredients per cell: a strictly positive combination of the facet normals
summing to zero, a least-norm solution of normals @ mu = -gradient, and a
shift t0 large enough to kill the bump outside the cell. First-layer
neurons belonging to the same directed hyperplane are merged afterwards.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CompileError, ConditioningWarning
from .mesh import (ConvexCell, DirectedHyperplaneRegistry, PolytopeMesh,
                   build_registry)
from .networks import ReluNet2, relu
from .pwl import AffinePiece, PiecewiseLinear

# multiplied onto t0 to absorb rounding in the exterior <= 0 inequality
T0_SAFETY = 1.0 + 1e-9

WEIGHT_GUARD = 1e12


def positive_normal_combination(cell: ConvexCell) -> np.ndarray:
    """Strictly positive lambda with sum_i lambda_i w_i = 0 and lambda >= 1.

    This is the cell's cached combination, checked; its absence means the
    cell is unbounded or degenerate.
    """
    lam = cell.normal_combination()
    if lam is None:
        raise CompileError(
            "no positive zero-sum combination of facet normals exists "
            "(cell unbounded or degenerate)")
    combo = cell.W.T @ lam
    if np.linalg.norm(combo) > 1e-10 * float(lam @ cell.norms):
        raise CompileError("facet-normal combination residual too large")
    if lam.min() < 1.0 - 1e-9:
        raise CompileError("LP returned lambda below 1")
    return lam


def solve_mu(cell: ConvexCell, gradient) -> np.ndarray:
    """Least-norm mu with (w_1^T ... w_m^T) mu = -gradient^T."""
    a = np.asarray(gradient, dtype=float).reshape(-1)
    A = cell.W.T  # (n, m)
    mu, _, rank, _ = np.linalg.lstsq(A, -a, rcond=None)
    if rank < cell.dim:
        raise CompileError(
            f"facet normal matrix is rank deficient ({rank} < {cell.dim})")
    if np.linalg.norm(A @ mu + a) > 1e-10 * (1.0 + np.linalg.norm(a)):
        raise CompileError("mu residual too large")
    return mu


def shift_t0(cell: ConvexCell, mu, lam, c: float, R: float, epsilon: float):
    """(s, t0): s makes mu + s*lam positive, t0 kills the bump outside.

    t0 is the closed-form value
    max((|sum (mu_i + s lam_i) b_i + c + R| + sum eps |mu_i||w_i|)
        / min_i eps lam_i |w_i|, s + 1).
    """
    if epsilon <= 0:
        raise CompileError("epsilon must be > 0 (t0 divides by eps*lam*|w|)")
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    s = float(np.max(np.abs(mu / lam))) + 1.0
    numerator = abs(float((mu + s * lam) @ cell.b) + c + R) \
        + epsilon * float(np.abs(mu) @ cell.norms)
    denominator = epsilon * float(np.min(lam * cell.norms))
    t0 = max(numerator / denominator, s + 1.0)
    return s, t0


@dataclass
class CellBump:
    """One-cell subnetwork x -> relu(w_II @ relu(W_I x + b_I) + b_II)."""

    W_I: np.ndarray
    b_I: np.ndarray
    w_II: np.ndarray
    b_II: float
    provenance: dict = field(default_factory=dict)

    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return relu(relu(X @ self.W_I.T + self.b_I) @ self.w_II + self.b_II)


def compile_cell_bump(cell: ConvexCell, piece: AffinePiece, R: float,
                      epsilon: float, cell_index: int = 0) -> CellBump:
    """Bump equal to v + R on the shrunk cell, in [0, 2R] on the collar,
    zero outside the cell."""
    lam = positive_normal_combination(cell)
    mu = solve_mu(cell, piece.gradient)
    c = float(piece.constant)
    s, t0 = shift_t0(cell, mu, lam, c, R, epsilon)
    t_used = t0 * T0_SAFETY
    coeff = mu + t_used * lam
    if coeff.min() <= 0.0:
        raise CompileError(f"cell {cell_index}: shifted weights not positive")
    b_I = cell.b - epsilon * cell.norms
    w_II = -coeff
    with np.errstate(over="ignore", invalid="ignore"):
        b_II = float(coeff @ b_I) + c + R
    if not (np.all(np.isfinite(w_II)) and np.isfinite(b_II)):
        raise CompileError(
            f"cell {cell_index}: weights overflow the float range for "
            f"R = sup|v| = {R:.3e}")
    if np.max(np.abs(w_II)) > WEIGHT_GUARD:
        warnings.warn(
            f"cell {cell_index}: second-layer weight magnitude "
            f"{np.max(np.abs(w_II)):.3e} exceeds {WEIGHT_GUARD:.0e}; tiny "
            f"epsilon relative to the cell makes the construction "
            f"ill-conditioned", ConditioningWarning)
    return CellBump(
        W_I=cell.W.copy(),
        b_I=b_I,
        w_II=w_II,
        b_II=b_II,
        provenance={"cell_index": cell_index, "t0": t_used, "t0_formula": t0,
                    "s": s, "mu": mu, "lam": lam, "epsilon": epsilon,
                    "R": R, "c": c},
    )


def _check_shrunk_nonempty(mesh: PolytopeMesh, epsilon: float):
    for ci, cell in enumerate(mesh.cells):
        if not cell.inradius() > epsilon:
            raise CompileError(
                f"epsilon {epsilon} too large: cell {ci} shrinks to empty")


def _compile_bumps(mesh, v, R, epsilon):
    return [compile_cell_bump(cell, v.piece(ci), R, epsilon, cell_index=ci)
            for ci, cell in enumerate(mesh.cells)]


def _assemble(mesh, bumps, R, epsilon, use_output_bias, hull_bump=None):
    """Stack bumps into the full (pre-merge) network: first-layer row r is
    row r of the mesh's facet table, with the hull's facets appended."""
    every = bumps + ([hull_bump] if hull_bump is not None else [])
    b1 = np.concatenate([b.b_I for b in every])
    triplets = np.column_stack([
        np.repeat(np.arange(len(every)), [b.b_I.size for b in every]),
        np.arange(b1.size),
        np.concatenate([b.w_II for b in every])])
    NT = len(bumps)
    if hull_bump is not None:
        b2 = np.array([b.b_II for b in bumps] + [hull_bump.b_II])
        w3 = np.concatenate([np.ones(NT), [-1.0]])
        output_bias = None
        mode = "compact"
    elif use_output_bias:
        b2 = np.array([b.b_II for b in bumps])
        w3 = np.ones(NT)
        output_bias = -R
        mode = "weak"
    else:
        b2 = np.array([b.b_II for b in bumps] + [R])
        w3 = np.concatenate([np.ones(NT), [-1.0]])
        output_bias = None
        mode = "weak"
    hull = mesh.domain_hull if hull_bump is not None else None
    provenance = {
        "mode": mode,
        "mesh_hash": mesh.content_hash(),
        "epsilon": epsilon,
        "R": R,
        "t0": [b.provenance["t0"] for b in bumps],
        "s": [b.provenance["s"] for b in bumps],
        "output_bias_mode": bool(use_output_bias),
        "merged": False,
        "first_layer_tags": mesh.facets(hull)[3],
    }
    if hull_bump is not None:
        provenance["t0_hull"] = hull_bump.provenance["t0"]
    return ReluNet2(np.vstack([b.W_I for b in every]), b1, triplets, b2, w3,
                    output_bias=output_bias, provenance=provenance)


def merge_duplicate_neurons(net: ReluNet2,
                            registry: DirectedHyperplaneRegistry) -> ReluNet2:
    """Collapse first-layer neurons that share a directed hyperplane.

    A duplicate facet (w, b) = scale * (w*, b*) satisfies
    relu(w x + b - eps|w|) = scale * relu(w* x + b* - eps|w*|), so each
    consumer weight absorbs the scale and the function is unchanged. The
    merged neuron keeps the raw floats of the registry's representative
    facet, which makes the merge numerically exact for bit-identical
    duplicates.

    First-layer row r of the unmerged net is row r of the registry's facet
    table, as its tags must show. Terms that land on one (row, column) are
    summed in storage order and kept where the first of them stood, so the
    merged net sums the same floats in the same order as the unmerged one
    (bitwise-equal for exact merges).
    """
    tags = net.provenance.get("first_layer_tags")
    if tags is None or len(tags) != net.h1:
        raise CompileError("network lacks first-layer facet tags")
    if not np.array_equal(np.asarray(tags, dtype=int), registry.tags[:net.h1]):
        raise CompileError(
            "first-layer facet tags do not match the registry's facet table")
    rep = registry.rep
    W1 = registry.W[rep]
    b1 = registry.b[rep] - net.provenance["epsilon"] * registry.norms[rep]
    rows = net.W2_rows
    cols = registry.entry[net.W2_cols]
    vals = net.W2_vals * registry.scale[net.W2_cols]
    _, first, slot = np.unique(rows * registry.size + cols, return_index=True,
                               return_inverse=True)
    # merged terms in order of first occurrence, each summed from 0.0
    order = np.argsort(first)
    merged = np.zeros(order.size)
    np.add.at(merged, np.argsort(order)[slot.reshape(-1)], vals)
    keep = first[order]
    provenance = dict(net.provenance)
    provenance.pop("first_layer_tags", None)
    provenance["merged"] = True
    return ReluNet2(W1, b1, np.column_stack([rows[keep], cols[keep], merged]),
                    net.b2.copy(), net.w3.copy(),
                    output_bias=net.output_bias, provenance=provenance)


def compile_weak_representation(mesh: PolytopeMesh, v: PiecewiseLinear,
                                epsilon: float, use_output_bias: bool = False,
                                merge: bool = True) -> ReluNet2:
    """Network equal to v on every epsilon-shrunk cell with |f| <= sup|v|
    on the mesh and f = -sup|v| outside (or with -sup|v| moved into an
    output bias).

    With merge=True (default) the first layer has exactly one neuron per
    directed hyperplane of the mesh: h1 = 2 H_i + H_b, h2 = N_cells + 1
    (N_cells in output-bias mode).
    """
    if epsilon <= 0:
        raise CompileError("epsilon must be > 0")
    if v.mesh is not mesh:
        raise CompileError("function is not defined on the given mesh")
    _check_shrunk_nonempty(mesh, epsilon)
    R = v.sup_norm()
    bumps = _compile_bumps(mesh, v, R, epsilon)
    net = _assemble(mesh, bumps, R, epsilon, use_output_bias)
    if merge:
        net = merge_duplicate_neurons(net, mesh.registry())
    return net


def _check_hull_contains(mesh: PolytopeMesh, hull: ConvexCell):
    for ci, cell in enumerate(mesh.cells):
        if np.min(hull.facet_values(cell.vertex_set())) < -1e-9:
            raise CompileError(f"domain hull does not contain cell {ci}")


def compile_compact_support(mesh: PolytopeMesh, v: PiecewiseLinear,
                            epsilon: float, merge: bool = True) -> ReluNet2:
    """Compactly supported variant: f = v on the shrunk cells, |f| <= 2 sup|v|
    on the domain, and f = 0 outside the convex domain hull.

    The constant -R row is replaced by a hull bump built for the constant
    function R/2, which plateaus at R inside the shrunk hull and vanishes
    outside it.
    """
    if epsilon <= 0:
        raise CompileError("epsilon must be > 0")
    if mesh.domain_hull is None:
        raise CompileError("mesh has no domain hull")
    if v.mesh is not mesh:
        raise CompileError("function is not defined on the given mesh")
    hull = mesh.domain_hull
    _check_hull_contains(mesh, hull)
    _check_shrunk_nonempty(mesh, epsilon)
    R = v.sup_norm()
    bumps = _compile_bumps(mesh, v, R, epsilon)
    hull_piece = AffinePiece(np.zeros(mesh.dimension), R / 2.0)
    hull_bump = compile_cell_bump(hull, hull_piece, R / 2.0, epsilon,
                                  cell_index=-1)
    net = _assemble(mesh, bumps, R, epsilon, False, hull_bump=hull_bump)
    if merge:
        net = merge_duplicate_neurons(net, build_registry(mesh, hull=hull))
    return net
