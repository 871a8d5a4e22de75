"""Constructive compilation of piecewise linear mesh functions into
two-hidden-layer ReLU networks.

For every cell the compiler builds a compactly supported "bump"
subnetwork equal to v + R strictly inside the cell, bounded by 2R in the
epsilon collar, and zero outside; summing the bumps against a constant -R
reproduces v away from cell boundaries while keeping |f| <= R. The exact
ingredients per cell: a strictly positive combination lambda of the facet
normals summing to zero (the cell's cached fact), a least-norm solution of
normals @ mu = -gradient, and a shift t0 large enough to kill the bump
outside the cell. Every bump is compiled at once, as arrays over the rows
of the mesh's facet table (PolytopeMesh.facets), so first-layer row r is
table row r; the compact-support hull bump is the table's last block.
First-layer neurons belonging to the same directed hyperplane are merged
afterwards.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import CompileError, ConditioningWarning
from .mesh import ConvexCell, DirectedHyperplaneRegistry, PolytopeMesh
from .networks import ReluNet2
from .pwl import PiecewiseLinear

# multiplied onto t0 to absorb rounding in the exterior <= 0 inequality
T0_SAFETY = 1.0 + 1e-9

WEIGHT_GUARD = 1e12


class Bumps(NamedTuple):
    """Every bump of one compile: per facet-table row lam, mu, b_I and w_II,
    per cell s, t0 and b_II. Cell c's bump is
    x -> relu(w_II . relu(W x + b_I) + b_II) over its rows."""

    lam: np.ndarray
    mu: np.ndarray
    b_I: np.ndarray
    w_II: np.ndarray
    s: np.ndarray
    t0: np.ndarray
    b_II: np.ndarray


def _name(c, n_cells):
    """Cell c of the facet table, where the hull is the cell after the
    mesh's."""
    return "domain hull" if c == n_cells else f"cell {c}"


def _refuse(bad, message, n_cells):
    """CompileError naming the first cell flagged in `bad`."""
    if np.any(bad):
        raise CompileError(f"{_name(int(np.argmax(bad)), n_cells)}: {message}")


def _dot(groups, x, y):
    """x . y over each cell's rows, by the stacked form of x[rows] @ y[rows],
    which runs the same dot kernel and so gives the same bits."""
    out = np.empty(sum(len(cells) for cells, _ in groups))
    for cells, rows in groups:
        out[cells] = np.matmul(x[rows][:, None], y[rows][..., None])[:, 0, 0]
    return out


def _least_norm(groups, W, gradients):
    """Least-norm mu with W_c^T mu_c = -a_c for every cell c, and the rank
    of W_c, stacked per group, both with lstsq's cut-off (singular values
    up to eps * max(n, m) times the largest count as zero)."""
    mu = np.empty(len(W))
    rank = np.empty(len(gradients), dtype=int)
    for cells, rows in groups:
        A = W[rows].transpose(0, 2, 1)
        pinv = np.linalg.pinv(A, np.finfo(float).eps * max(A.shape[1:]))
        mu[rows] = np.matmul(pinv, -gradients[cells, :, None])[..., 0]
        rank[cells] = np.linalg.matrix_rank(A)
    return mu, rank


def compile_bumps(mesh: PolytopeMesh, v: PiecewiseLinear, R: float,
                  epsilon: float, hull: ConvexCell | None = None) -> Bumps:
    """Every cell's bump at once, plus, when a hull is given, the hull's
    bump for the constant R/2 with sup norm R/2 (plateau R).

    Per cell: lambda from the cached fact; s = max|mu/lambda| + 1 makes
    mu + s lambda positive; t0 is the closed-form value
    max((|sum (mu_i + s lam_i) b_i + c + R| + sum eps |mu_i||w_i|)
        / min_i eps lam_i |w_i|, s + 1), times T0_SAFETY. Each check runs
    over all cells and raises CompileError naming the first that fails.
    """
    if not epsilon > 0:
        raise CompileError("epsilon must be > 0")
    if v.mesh is not mesh:
        raise CompileError("function is not defined on the given mesh")
    N = mesh.n_cells
    mesh.solve_facts()
    r = np.array([cell.inradius() for cell in mesh.cells])
    _refuse(~(r > epsilon), f"shrinks to empty: epsilon {epsilon} too large", N)
    W, b, starts, _ = mesh.facets(hull)
    table_cells = mesh.cells + ([hull] if hull is not None else [])
    sizes = np.diff(np.append(starts, len(b)))
    row_cell = np.repeat(np.arange(len(table_cells)), sizes)
    # cells grouped by facet count m, with their table rows, shape (k, m)
    groups = [(cells, starts[cells, None] + np.arange(m))
              for m in np.unique(sizes) for cells in [np.flatnonzero(sizes == m)]]
    gradients, c, Rc = v.gradients, v.constants, np.full(len(table_cells), R)
    if hull is not None:
        gradients = np.vstack([gradients, np.zeros(W.shape[1])])
        c = np.append(c, R / 2.0)
        Rc[-1] = R / 2.0
    norms = np.linalg.norm(W, axis=1)

    lams = [cell.normal_combination() for cell in table_cells]
    _refuse([lam is None for lam in lams],
            "no positive zero-sum combination of facet normals exists "
            "(cell unbounded or degenerate)", N)
    lam = np.concatenate(lams)
    combo = np.linalg.norm(np.add.reduceat(lam[:, None] * W, starts), axis=1)
    _refuse(combo > 1e-10 * np.add.reduceat(lam * norms, starts),
            "facet-normal combination residual too large", N)
    _refuse(np.minimum.reduceat(lam, starts) < 1.0 - 1e-9,
            "normal combination has lambda below 1", N)

    mu, rank = _least_norm(groups, W, gradients)
    n = mesh.dimension
    _refuse(rank < n, "facet normal matrix is rank deficient "
            f"({rank[np.argmax(rank < n)]} < {n})", N)
    resid = np.linalg.norm(np.add.reduceat(mu[:, None] * W, starts)
                           + gradients, axis=1)
    _refuse(resid > 1e-10 * (1.0 + np.linalg.norm(gradients, axis=1)),
            "mu residual too large", N)

    with np.errstate(over="ignore", invalid="ignore"):
        s = np.maximum.reduceat(np.abs(mu / lam), starts) + 1.0
        numerator = np.abs(_dot(groups, mu + s[row_cell] * lam, b) + c + Rc) \
            + epsilon * _dot(groups, np.abs(mu), norms)
        denominator = epsilon * np.minimum.reduceat(lam * norms, starts)
        t0 = np.maximum(numerator / denominator, s + 1.0) * T0_SAFETY
        coeff = mu + t0[row_cell] * lam
        b_I = b - epsilon * norms
        b_II = _dot(groups, coeff, b_I) + c + Rc
    _refuse(np.minimum.reduceat(coeff, starts) <= 0.0,
            "shifted weights not positive", N)
    big = np.maximum.reduceat(np.abs(coeff), starts)
    _refuse(~(np.isfinite(big) & np.isfinite(b_II)),
            f"weights overflow the float range for R = sup|v| = {R:.3e}", N)
    for ci in np.flatnonzero(big > WEIGHT_GUARD):
        warnings.warn(
            f"{_name(ci, N)}: second-layer weight magnitude "
            f"{big[ci]:.3e} exceeds {WEIGHT_GUARD:.0e}; "
            f"tiny epsilon relative to the cell makes the construction "
            f"ill-conditioned", ConditioningWarning)
    return Bumps(lam, mu, b_I, -coeff, s, t0, b_II)


def _assemble(mesh, v, epsilon, use_output_bias, merge, hull=None):
    """The network straight from the bump arrays: first-layer row r is row
    r of the facet table and feeds the second-layer row of its cell (the
    hull's is row N_cells); with merge, merged by the table's registry."""
    R = v.sup_norm()
    bumps = compile_bumps(mesh, v, R, epsilon, hull)
    W, _, _, tags = mesh.facets(hull)
    N = mesh.n_cells
    triplets = np.column_stack([np.where(tags[:, 0] < 0, N, tags[:, 0]),
                                np.arange(len(W)), bumps.w_II])
    if use_output_bias:
        b2, w3, output_bias = bumps.b_II, np.ones(N), -R
    else:
        b2 = bumps.b_II if hull is not None else np.append(bumps.b_II, R)
        w3, output_bias = np.append(np.ones(N), -1.0), None
    provenance = {
        "mode": "weak" if hull is None else "compact",
        "mesh_hash": mesh.content_hash(),
        "epsilon": epsilon,
        "R": R,
        "t0": bumps.t0[:N].tolist(),
        "s": bumps.s[:N].tolist(),
        "output_bias_mode": bool(use_output_bias),
        "merged": False,
        "first_layer_tags": tags,
    }
    if hull is not None:
        provenance["t0_hull"] = float(bumps.t0[N])
    net = ReluNet2(W, bumps.b_I, triplets, b2, w3, output_bias=output_bias,
                   provenance=provenance)
    return merge_duplicate_neurons(net, mesh.registry(hull)) if merge else net


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
    return _assemble(mesh, v, epsilon, use_output_bias, merge)


def _check_hull_contains(mesh: PolytopeMesh, hull: ConvexCell):
    V = mesh.vertex_sets()
    outside = np.min(hull.facet_values(np.concatenate(V)), axis=1) < -1e-9
    if np.any(outside):
        owner = np.repeat(np.arange(mesh.n_cells), [len(x) for x in V])
        raise CompileError(
            f"domain hull does not contain cell {owner[np.argmax(outside)]}")


def compile_compact_support(mesh: PolytopeMesh, v: PiecewiseLinear,
                            epsilon: float, merge: bool = True) -> ReluNet2:
    """Compactly supported variant: f = v on the shrunk cells, |f| <= 2 sup|v|
    on the domain, and f = 0 outside the convex domain hull.

    The constant -R row is replaced by a hull bump built for the constant
    function R/2, which plateaus at R inside the shrunk hull and vanishes
    outside it.
    """
    if mesh.domain_hull is None:
        raise CompileError("mesh has no domain hull")
    hull = mesh.domain_hull
    _check_hull_contains(mesh, hull)
    return _assemble(mesh, v, epsilon, False, merge, hull=hull)
