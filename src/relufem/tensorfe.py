"""Tensor-product grids, multilinear finite element functions, CP
factorization of nodal coefficient tensors, and their exact compilation
into rank-structured tensor networks.

A multilinear function on an axis-aligned grid is determined by its nodal
coefficient tensor. Factoring that tensor as a sum of rank-one terms turns
the function into a sum of products of 1D piecewise linear interpolants,
and each 1D interpolant is realized exactly by one ReLU layer whose output
weights are the differences of consecutive interval slopes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import docio
from ._chunks import CHUNK_ELEMENTS, run_chunks
from .errors import CompileError, DocumentError, VerifyError
from .networks import TensorNet

# order-2 rank rule: singular values above RANK_RTOL of the largest count
RANK_RTOL = 1e-12
# order-2 sketch rungs (see _svd_factors): rung k has k + SKETCH_OVERSAMPLE
# Gaussian columns, k doubling from SKETCH_START, while that width is at
# most SKETCH_MAX_WIDTH and 1/SKETCH_SPAN of the short side. At that width
# the SVD of the width-square R factor stays below OpenBLAS's threading
# thresholds (m n k <= 65536 * 4 for a GEMM, m n < 2304 * 4 for a GEMV),
# so it runs on one thread whatever the CPU count.
SKETCH_START = 8
SKETCH_OVERSAMPLE = 8
SKETCH_MAX_WIDTH = 64
SKETCH_SPAN = 16
# a rung's leftover |T - Q B|_F may be at most this share of the rank
# cutoff: well above the rounding of the rung's products (about 3e-3 of the
# cutoff on an 800 x 800 rank-6 grid), and the rank can differ from the
# full SVD's only by a singular value within 0.5% above the cutoff
SKETCH_SLACK = 1e-1


class TensorMesh:
    """Axis grids t^k_0 < ... < t^k_{N_k} defining a box-product mesh."""

    def __init__(self, grids):
        self.grids = [np.asarray(g, dtype=float).reshape(-1) for g in grids]
        for k, g in enumerate(self.grids):
            if g.size < 2:
                raise DocumentError(f"axis {k} grid needs at least 2 nodes")
            if not np.all(np.diff(g) > 0):
                raise DocumentError(f"axis {k} grid must be strictly increasing")
            if not np.all(np.isfinite(g)):
                raise DocumentError(f"axis {k} grid must be finite")

    @property
    def n(self) -> int:
        return len(self.grids)

    @property
    def node_counts(self):
        return tuple(g.size for g in self.grids)

    def to_doc(self) -> dict:
        return {"grids": [g for g in self.grids]}


class TensorFE:
    """Continuous piecewise multilinear function from nodal coefficients."""

    def __init__(self, mesh: TensorMesh, coefficients):
        self.mesh = mesh
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape != mesh.node_counts:
            raise DocumentError(
                f"coefficients shape {self.coefficients.shape} does not match "
                f"node counts {mesh.node_counts}")
        if not np.all(np.isfinite(self.coefficients)):
            raise DocumentError("coefficients must be finite")

    def eval_batch(self, X):
        """Values at the rows of X, point by point.

        Each point's value is its grid cell's corner coefficients weighted
        by the products of its per-axis (1 - loc, loc), summed corner by
        corner. The batch is evaluated in fixed point chunks through the
        chunk runner (see relufem._chunks), each chunk writing its own
        slice of the output, so a value does not depend on the batch, the
        chunk or the thread it is evaluated in. A point outside the grid
        box raises VerifyError naming the first such axis.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = self.mesh.n
        if X.shape[1] != n:
            raise DocumentError(f"input dimension {X.shape[1]}, expected {n}")
        for k, g in enumerate(self.mesh.grids):
            x = X[:, k]
            if np.any(x < g[0] - 1e-12) or np.any(x > g[-1] + 1e-12):
                raise VerifyError(f"point outside the grid box on axis {k}")
        counts = self.mesh.node_counts
        strides = [math.prod(counts[k + 1:]) for k in range(n)]
        coefficients = self.coefficients.ravel()
        out = np.zeros(X.shape[0])

        def body(lo, hi):
            # one C-order flat index per point and each axis's (1 - loc,
            # loc), so each grid corner is one take; w multiplies axis by axis
            flat = np.zeros(hi - lo, dtype=np.intp)
            factors = []
            for k, g in enumerate(self.mesh.grids):
                x = X[lo:hi, k]
                i = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
                flat = flat * g.size + i
                loc = (x - g[i]) / (g[i + 1] - g[i])
                factors.append((1.0 - loc, loc))
            o = out[lo:hi]
            for corner in itertools.product((0, 1), repeat=n):
                w = factors[0][corner[0]] if n else np.ones(hi - lo)
                for k in range(1, n):
                    w = w * factors[k][corner[k]]
                shift = sum(c * s for c, s in zip(corner, strides))
                o += w * coefficients.take(flat + shift)

        # a chunk's per-axis factors, w and gathered coefficients together
        # hold about CHUNK_ELEMENTS floats
        run_chunks(body, X.shape[0], max(1, CHUNK_ELEMENTS // (2 * n + 2)))
        return out

    def eval_grid(self, axes):
        """Values on the product grid of the 1-D arrays axes, inside the
        grid box.

        An axis whose points are its nodes is taken as it stands; along any
        other, each value is (1 - loc) times its interval's left-node value
        plus loc times the right one's, axis by axis. A node's value is its
        coefficient (loc is 0 there, or 1 at the last node). Elsewhere a
        value is within 12 n u (max|c| + 2^-1022) of the exact one, u =
        2^-53: each axis step rounds loc (at most 3u relatively), 1 - loc,
        two products and a sum, about 9u of the largest value, and a
        product that underflows loses at most u 2^-1022.
        """
        out = self.coefficients
        for k, (g, t) in enumerate(zip(self.mesh.grids, axes)):
            if np.array_equal(t, g):
                continue
            i = np.clip(np.searchsorted(g, t, side="right") - 1, 0, g.size - 2)
            loc = (t - g[i]) / (g[i + 1] - g[i])
            shape = (-1,) + (1,) * (self.mesh.n - k - 1)
            out = ((1.0 - loc).reshape(shape) * out.take(i, axis=k)
                   + loc.reshape(shape) * out.take(i + 1, axis=k))
        return out

    def eval(self, x) -> float:
        return float(self.eval_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def __call__(self, X):
        return self.eval_batch(X)

    def to_doc(self) -> dict:
        return {
            "grids": [g for g in self.mesh.grids],
            "shape": list(self.coefficients.shape),
            "coefficients": self.coefficients.reshape(-1),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TensorFE":
        grids = docio.get(doc, "grids", list)
        mesh = TensorMesh([docio.as_float_array(g, "grids") for g in grids])
        shape = tuple(docio.as_int(s, "shape") for s in docio.get(doc, "shape", list))
        if min(shape, default=0) < 0:
            raise DocumentError("field 'shape' must hold sizes >= 0")
        flat = docio.as_float_array(docio.get(doc, "coefficients"), "coefficients")
        if flat.size != int(np.prod(shape)):
            raise DocumentError("coefficients length does not match shape")
        return cls(mesh, flat.reshape(shape))

    def save(self, path):
        docio.save(self.to_doc(), path)

    @classmethod
    def load(cls, path) -> "TensorFE":
        return cls.from_doc(docio.load(path))


def eval_tensor_fe(u: TensorFE, x) -> float:
    """Multilinear interpolation of the nodal coefficients at x."""
    return u.eval(x)


@dataclass
class CPFactors:
    """Rank-r factorization c = sum_p outer(rows_1[p], ..., rows_n[p])."""

    rank: int
    factors: list  # per axis: (rank, N_k + 1) array of factor rows
    residual: float

    def reconstruct(self) -> np.ndarray:
        shape = tuple(f.shape[1] for f in self.factors)
        out = np.zeros(shape)
        for p in range(self.rank):
            term = self.factors[0][p]
            for f in self.factors[1:]:
                term = np.multiply.outer(term, f[p])
            out += term
        return out


def _khatri_rao(mats):
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


def _unfold(T, mode):
    return np.moveaxis(T, mode, 0).reshape(T.shape[mode], -1)


def _als(T, rank, seed, sweeps=500, rel_impr=1e-12):
    """Alternating least squares at fixed rank; returns (factors, residual)."""
    rng = np.random.default_rng(seed)
    dims = T.shape
    A = [rng.standard_normal((d, rank)) for d in dims]
    normT = _frobenius(T)
    prev = np.inf
    resid = np.inf
    for _ in range(sweeps):
        for k in range(len(dims)):
            # unfolding columns enumerate the remaining axes in C order
            # (last axis fastest), matching the Khatri-Rao row order
            others = [A[j] for j in range(len(dims)) if j != k]
            kr = _khatri_rao(others)
            gram = np.ones((rank, rank))
            for j in range(len(dims)):
                if j != k:
                    gram *= A[j].T @ A[j]
            rhs = _unfold(T, k) @ kr
            A[k] = rhs @ np.linalg.pinv(gram)
        rec = CPFactors(rank, [a.T for a in A], 0.0).reconstruct()
        resid = _frobenius(T, rec)
        if prev - resid < rel_impr * max(normT, 1.0):
            break
        prev = resid
    return [a.T for a in A], resid


def _fibre_expansion(T):
    """Exact CP with rank prod(dims)/max(dims): unit vectors on all axes but
    the largest, raw fibres along the largest."""
    dims = T.shape
    axis = int(np.argmax(dims))
    other_axes = [k for k in range(len(dims)) if k != axis]
    ranks = int(np.prod([dims[k] for k in other_axes]))
    factors = [np.zeros((ranks, d)) for d in dims]
    p = 0
    for combo in itertools.product(*(range(dims[k]) for k in other_axes)):
        sel = [slice(None)] * len(dims)
        for k, i in zip(other_axes, combo):
            sel[k] = i
            factors[k][p, i] = 1.0
        factors[axis][p] = T[tuple(sel)]
        p += 1
    return CPFactors(ranks, factors, 0.0)


def matricization_rank_bound(shape) -> int:
    shape = tuple(int(s) for s in shape)
    return int(np.prod(shape) // max(shape))


def _frobenius(x, minus=0.0) -> float:
    """|x - minus|_F as the square root of numpy's pairwise sum of squares,
    which rounds the same on any thread count (np.linalg.norm's BLAS dot
    does not), through one temporary array."""
    d = np.subtract(x, minus)
    np.square(d, out=d)
    return math.sqrt(float(np.sum(d)))


def _householder(Y):
    """(Q, R) with Y = Q R for Y of shape (m, w), m >= w: Q has orthonormal
    columns and R is upper triangular. The reflections are numpy
    elementwise ops and einsum, so the bits do not depend on the BLAS
    thread count, as LAPACK's QR's do. A zero column's reflection is the
    identity."""
    m, w = Y.shape
    R = np.array(Y, dtype=float)
    reflectors = []
    for j in range(w):
        v = R[j:, j].copy()
        v[0] += math.copysign(_frobenius(v), v[0])
        vv = float(np.sum(np.square(v)))
        if vv > 0.0:
            R[j:, j:] -= np.outer(v, np.einsum("i,ij->j", v, R[j:, j:]) * (2.0 / vv))
        reflectors.append((v, vv))
    Q = np.eye(m, w)
    for j in reversed(range(w)):
        v, vv = reflectors[j]
        if vv > 0.0:
            Q[j:, j:] -= np.outer(v, np.einsum("i,ij->j", v, Q[j:, j:]) * (2.0 / vv))
    return Q, np.triu(R[:w])


def _numerical_rank(S) -> int:
    return max(int(np.sum(S > RANK_RTOL * S[0])), 1)


def _svd_factors(T, seed):
    """Order-2 factors (rank, [left rows, right rows]) of the SVD, keeping
    the singular values above RANK_RTOL of the largest.

    Rungs sketch the range of T: Q = qr(T Omega) for a Gaussian Omega of
    k + SKETCH_OVERSAMPLE columns drawn from the seed, B = Q^T T, and the
    SVD of the small B (through B^T = Q2 R2, as LAPACK takes a wide SVD). A
    rung is accepted when some singular value of B falls below the cutoff
    RANK_RTOL * sigma_1(B) and E = T - Q B has |E|_F at most SKETCH_SLACK
    of that cutoff. As Q^T E = 0, T^T T = B^T B + E^T E, so sigma_i(B) <=
    sigma_i(T) <= sqrt(sigma_i(B)^2 + |E|^2): near the cutoff T's singular
    values exceed B's by at most SKETCH_SLACK^2 / 2 of it. The factors are
    T V_r and V_r^T for B's leading right singular vectors V_r. Otherwise
    k doubles (see SKETCH_MAX_WIDTH and SKETCH_SPAN for the last sketch).
    The last rung is the SVD of T itself.

    A rung costs O(m n k). Its products are einsums and its QRs
    _householder; its one LAPACK call, the SVD of the (k + p)-square R2,
    is too small to be threaded. So a factorization accepted on a rung has
    the same bits on any BLAS thread count; the last rung's may not. A
    matrix whose max|T| is outside 2^-400..2^400 goes straight to the last
    rung: within, no sum of squares of the sketch overflows, nor underflows
    at the scale of the cutoff.
    """
    m, n = T.shape
    rng = np.random.default_rng(seed)
    size = max(float(T.max()), -float(T.min()))
    sketch = 2.0 ** -400 <= size <= 2.0 ** 400
    k = SKETCH_START
    while sketch and k + SKETCH_OVERSAMPLE <= min(SKETCH_MAX_WIDTH,
                                                  min(m, n) // SKETCH_SPAN):
        omega = rng.standard_normal((k + SKETCH_OVERSAMPLE, n))
        Q, _ = _householder(np.einsum("ij,kj->ik", T, omega))
        B = np.einsum("ik,ij->kj", Q, T)
        Q2, R2 = _householder(B.T)
        _, S, Vt = np.linalg.svd(R2.T)
        r = _numerical_rank(S)
        if r < S.size and (_frobenius(T, np.einsum("ik,kj->ij", Q, B))
                           <= SKETCH_SLACK * RANK_RTOL * S[0]):
            right = np.einsum("pk,jk->pj", Vt[:r], Q2)
            return r, [np.einsum("ij,pj->pi", T, right), right]
        k *= 2
    U, S, Vt = np.linalg.svd(T, full_matrices=False)
    r = _numerical_rank(S)
    return r, [(U[:, :r] * S[:r]).T, Vt[:r]]


def cp_decompose(coeffs, target_tol: float = 1e-12, seed: int = 0) -> CPFactors:
    """CP factorization of a coefficient tensor.

    Order 2 is factored exactly with the numerical rank: singular values
    above RANK_RTOL (1e-12) of the largest. _svd_factors takes them from a
    seeded Gaussian range sketch that widens rung by rung, a rung counting
    only when its own residual shows it holds all of T, so a rank-r n x n
    matrix costs O(n^2 r) instead of the SVD's O(n^3). Small and high-rank
    inputs reach the last rung, the SVD of T itself, and keep its bits. The
    seed fixes the sketch, hence the factors' bits, not the rank.

    Higher orders run ALS with increasing rank until the relative residual
    reaches target_tol, falling back to the exact fibre expansion at the
    matricization bound. The search starts at the largest numerical
    unfolding rank (singular values above target_tol * |T|): a rank-r
    tensor has unfoldings of rank at most r, so |T - T_r| >=
    sigma_{r+1}(unfolding) and no smaller rank can reach the target. Each
    rank reseeds ALS, so skipping changes nothing else. Norms are pairwise
    sums of squares (_frobenius). A negative or non-finite target_tol
    raises CompileError.
    """
    if not 0.0 <= target_tol < math.inf:
        raise CompileError(f"target_tol must satisfy 0 <= tol < inf, "
                           f"got {target_tol!r}")
    T = np.asarray(coeffs, dtype=float)
    if T.ndim < 2:
        raise DocumentError("coefficient tensor must have order >= 2")
    normT = _frobenius(T)
    if normT == 0.0:
        factors = [np.zeros((1, d)) for d in T.shape]
        return CPFactors(1, factors, 0.0)
    if T.ndim == 2:
        cp = CPFactors(*_svd_factors(T, seed), 0.0)
        cp.residual = _frobenius(T, cp.reconstruct())
        return cp
    bound = matricization_rank_bound(T.shape)
    start = max(int(np.sum(np.linalg.svd(_unfold(T, k), compute_uv=False)
                           > target_tol * normT)) for k in range(T.ndim))
    for rank in range(max(start, 1), bound):
        factors, resid = _als(T, rank, seed)
        if resid <= target_tol * normT:
            return CPFactors(rank, factors, float(resid))
    cp = _fibre_expansion(T)
    cp.residual = _frobenius(T, cp.reconstruct())
    return cp


def compile_1d_hat(grid, values):
    """One-layer data (W, b, w) with w @ relu(W x + b) interpolating
    (grid, values) and piecewise linear with breakpoints at the grid.

    W = (1,...,1,0)^T and b = (-t_0,...,-t_{N-1}, 1). The slope of l on
    [t_j, t_{j+1}] is w_0 + ... + w_j, so the weights are the slope
    differences w_0 = s_0, w_j = s_j - s_{j-1}, and the final neuron
    relu(1) = 1 carries the constant w_N = values_0. Weights beyond the
    float range (nodes too close for their value differences) raise
    CompileError.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    values = np.asarray(values, dtype=float).reshape(-1)
    if grid.size != values.size:
        raise CompileError("grid/values length mismatch")
    if grid.size < 2:
        raise CompileError("grid needs at least 2 nodes")
    gaps = np.diff(grid)
    if np.any(gaps <= 0):
        raise CompileError("grid nodes must be strictly increasing")
    N = grid.size - 1
    W = np.concatenate([np.ones(N), [0.0]]).reshape(-1, 1)
    b = np.concatenate([-grid[:-1], [1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(values) / gaps
        w = np.concatenate([slopes[:1], np.diff(slopes), values[:1]])
    if not np.all(np.isfinite(w)):
        raise CompileError("hat weights overflow the float range "
                           f"(smallest node gap {gaps.min():.3e})")
    return W, b, w


def compile_tnn(u: TensorFE, target_tol: float = 1e-12, seed: int = 0,
                whole_space_rank: bool = False) -> TensorNet:
    """Tensor network evaluating exactly as the multilinear function.

    Branch k has width N_k + 1; the rank equals the factorization rank of
    the coefficient tensor (or the matricization bound when
    whole_space_rank is set, padding with zero terms).
    """
    cp = cp_decompose(u.coefficients, target_tol=target_tol, seed=seed)
    factors = [f.copy() for f in cp.factors]
    rank = cp.rank
    if whole_space_rank:
        bound = matricization_rank_bound(u.coefficients.shape)
        if bound > rank:
            factors = [np.vstack([f, np.zeros((bound - rank, f.shape[1]))])
                       for f in factors]
            rank = bound
    branches = []
    for k, grid in enumerate(u.mesh.grids):
        weights = np.zeros((rank, grid.size))
        W = b = None
        for p in range(rank):
            try:
                W, b, w = compile_1d_hat(grid, factors[k][p])
            except CompileError as exc:
                raise CompileError(f"axis {k}: {exc}") from exc
            weights[p] = w
        branches.append((W, b, weights))
    return TensorNet(branches, provenance={
        "rank": rank,
        "cp_rank": cp.rank,
        "cp_residual": cp.residual,
        "node_counts": list(u.mesh.node_counts),
    })
