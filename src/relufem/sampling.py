"""Uniform samples of a mesh's (shrunk) cells from their simplex tilings
(PolytopeMesh.tilings), and of its exterior."""

from __future__ import annotations

import math

import numpy as np

from .errors import MeshError

# sample_exterior: the bounding box's inflation, and the far ring's points
EXTERIOR_INFLATE = 3.0
EXTERIOR_FAR_POINTS = 100


def _rng(seed: int, *stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in stream))
    return np.random.Generator(np.random.Philox(ss))


def _simplex_volumes(T):
    """Volumes of simplices given as vertex arrays, shape (k, n+1, n)."""
    n = T.shape[2]
    return np.abs(np.linalg.det(T[:, 1:] - T[:, :1])) / float(math.factorial(n))


def _sample(tiles, quotas, rng: np.random.Generator):
    """quotas[c] uniform points of each cell c, tagged by cell, from the
    tiling tiles[c] (k_c, n+1, n) of its (shrunk) interior.

    Exact, with no rejection: each point picks a tile of its cell with
    probability proportional to the tile's volume, then barycentric weights
    from normalised exponentials, which are uniform on a simplex (Devroye
    1986, ch. XI). A cell with no tiles or no quota gets no points.
    """
    tiles = [t if q else t[:0] for t, q in zip(tiles, quotas)]
    n = tiles[0].shape[2]
    k = np.array([len(t) for t in tiles], dtype=int)
    tags = np.repeat(np.arange(len(tiles)), np.where(k > 0, quotas, 0))
    T = np.concatenate(tiles)
    vol = _simplex_volumes(T)
    cum = np.cumsum(vol)
    last = np.cumsum(k)[tags] - 1
    first = last - k[tags] + 1
    # inverse CDF over the cell's tiles; the clip keeps rounding in the cell
    target = cum[last] - rng.random(tags.size) * (cum[last] - cum[first] + vol[first])
    pick = np.clip(np.searchsorted(cum, target), first, last)
    E = rng.standard_exponential((tags.size, n + 1))
    X = np.einsum("pk,pkd->pd", E / E.sum(axis=1, keepdims=True), T[pick])
    return X, tags


def sample_shrunk_domain(mesh, epsilon: float, count: int, seed: int):
    """Uniform samples of the union of epsilon-shrunk cells, tagged by cell.

    Returns (points, cell_indices). The count is split evenly over the
    cells whose shrunk interior is non-empty; if every cell is empty the
    epsilon is too large.
    """
    if not epsilon > 0:
        raise MeshError("epsilon must be > 0")
    if count < 1:
        raise MeshError("count must be >= 1")
    tiles = mesh.tilings(epsilon)
    alive = np.flatnonzero([len(t) for t in tiles])
    if not alive.size:
        raise MeshError("epsilon too large: every shrunk cell is empty")
    base, extra = divmod(count, alive.size)
    quotas = np.zeros(mesh.n_cells, dtype=int)
    quotas[alive] = base + (np.arange(alive.size) < extra)
    return _sample(tiles, quotas, _rng(seed, 0))


def sample_cells(mesh, per_cell: int, seed: int, epsilon: float = 0.0):
    """Per-cell uniform samples (optionally of the shrunk cells), tagged;
    per_cell points in every cell whose shrunk interior is non-empty."""
    return _sample(mesh.tilings(epsilon), [per_cell] * mesh.n_cells, _rng(seed, 0))


def sample_mesh(mesh, count: int, seed: int) -> np.ndarray:
    """count uniform points of the whole mesh: cell counts drawn
    multinomially by cell volume, then sampled cell by cell."""
    rng = _rng(seed, 77)
    tiles = mesh.tilings(0.0)
    vols = np.array([np.sum(_simplex_volumes(t)) for t in tiles])
    return _sample(tiles, rng.multinomial(count, vols / vols.sum()), rng)[0]


def sample_exterior(mesh, count: int, seed: int, region=None):
    """Points safely outside the mesh (or outside `region` when given):
    rejection samples from the bounding box inflated EXTERIOR_INFLATE
    times, plus EXTERIOR_FAR_POINTS on a far ring at ten diameters.
    MeshError when the box yields fewer than count."""
    lo, hi = mesh.bounding_box()
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * EXTERIOR_INFLATE
    diam = float(np.linalg.norm(hi - lo))
    rng = _rng(seed, 90)
    batches = []
    got = 0
    for _ in range(400):
        X = rng.uniform(center - half, center + half,
                        size=(max(2 * count, 128), mesh.dimension))
        if region is None:
            X = X[mesh.containing(X, tol=1e-9)[1] == 0]
        else:
            X = X[~region.contains(X, tol=1e-9)]
        batches.append(X)
        got += X.shape[0]
        if got >= count:
            break
    if got < count:
        raise MeshError(f"exterior sampling found {got} of {count} points "
                        f"outside the {'mesh' if region is None else 'region'}")
    dirs = rng.standard_normal((EXTERIOR_FAR_POINTS, mesh.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.vstack([np.vstack(batches)[:count], center + dirs * (10.0 * diam)])
