"""Exact point location by a Morton box tree over the query points, for
cells given as facet blocks W (n, m, cells), b (m, cells) padded with
copies of one facet (PolytopeMesh.containing). Its corner value has a 1-D
caller too: the tensor net's branch sweep (networks._RampSweep) bounds
each unit relu(W t + b) over a block of points by it."""

from __future__ import annotations

import numpy as np

from ._chunks import CHUNK_ELEMENTS

# deepest Morton level, and the candidate count at which a box stops
# splitting
TREE_LEVELS = 16
LEAF_CANDIDATES = 4


def _corner_values(lo, hi, W, b):
    """Each facet's value at the corner of its box [lo, hi] that maximises
    it, hi_d where w_d > 0 and lo_d elsewhere, by mesh._affine's operations
    in its order: fl(...fl(fl(c_0 w_0) + fl(c_1 w_1)) ... + b). lo, hi
    and W put the coordinate first and broadcast over the rest.

    Every rounded product c_d w_d is monotone in c_d and every rounded sum
    is nondecreasing in both terms (Higham 2002, ch. 2), so the corner value
    bounds the value at any point of the box from above: a point whose
    value is not NaN or -inf has a value <= the corner's, which is not NaN.
    """
    C = lo if hi is lo else np.where(W > 0, hi, lo)
    out = C[0] * W[0]
    for d in range(1, len(W)):
        out += C[d] * W[d]
    return out + b


def _pairs_pass(lo, hi, box, cell, W, b, tol):
    """Per pair i, whether every facet of cell[i] is >= -tol at the corners
    of the box lo[:, box[i]], hi[:, box[i]]. W (n, m, cells) and b (m,
    cells) hold each cell's facets, padded with copies; boxes are (n,
    boxes). On a point (lo = hi = x) this is ConvexCell.contains, with the
    same bits."""
    passed = np.empty(box.size, dtype=bool)
    step = max(1, CHUNK_ELEMENTS // (W.shape[0] * W.shape[1]))
    for s in range(0, box.size, step):
        i, c = box[s:s + step], cell[s:s + step]
        # take keeps the gathered blocks contiguous, unlike fancy indexing
        lo_i = np.take(lo, i, axis=1)[:, None]
        hi_i = lo_i if hi is lo else np.take(hi, i, axis=1)[:, None]
        values = _corner_values(lo_i, hi_i, np.take(W, c, axis=2), np.take(b, c, axis=1))
        passed[s:s + step] = np.min(values, axis=0) >= -tol
    return passed


def _morton_order(X, levels):
    """Order of the points X (n, P) by a Morton key (Morton 1966) on a
    2^levels grid over their bounding box, and the sorted keys: each grid
    box at each level holds a contiguous run of the sorted points."""
    n = X.shape[0]
    lo, hi = X.min(axis=1, keepdims=True), X.max(axis=1, keepdims=True)
    with np.errstate(all="ignore"):
        t = np.nan_to_num((X - lo) / (hi - lo), nan=0.0, posinf=0.0)
    q = np.minimum(t * 2.0 ** levels, 2 ** levels - 1).astype(np.uint64)
    # spread a byte's bits n apart by table lookup, one byte of q at a time
    bits = np.arange(8, dtype=np.uint64)
    spread = np.sum((np.arange(256, dtype=np.uint64)[:, None] >> bits & np.uint64(1))
                    << (bits * np.uint64(n)), axis=1, dtype=np.uint64)
    key = np.zeros(X.shape[1], dtype=np.uint64)
    for d in range(n):
        for byte in range(0, levels, 8):
            key |= spread[q[d] >> np.uint64(byte) & np.uint64(255)] \
                << np.uint64(byte * n + n - 1 - d)
    order = np.argsort(key)
    return order, key[order]


def _box_tree_leaves(X, W, b, tol):
    """The (point range, cell) pairs that may pass ConvexCell.contains(tol)
    for finite points X (n, P); W and b as for _pairs_pass.

    A tree of Morton boxes over the points, walked level by level from the
    root with every cell a candidate: a (box, cell) pair is dropped when a
    facet's corner value fails the test, so no point of the box can pass,
    and a box's children inherit its survivors. A box stops splitting with
    at most LEAF_CANDIDATES survivors, when it is one point, or at the last
    level. Returns the Morton order of the points and one (start, end,
    cell) per leaf and survivor: points order[start:end] may lie in cell.
    """
    n, P = X.shape
    levels = min(TREE_LEVELS, 63 // n)
    order = np.arange(P)  # sorted when the root splits
    leaves = []
    # the nodes holding pairs, as ranges of the sorted points
    start, end = np.zeros(1, dtype=int), np.full(1, P)
    box, cell = np.zeros(b.shape[1], dtype=int), np.arange(b.shape[1])
    for level in range(levels + 1):
        cuts = np.column_stack([start, end]).ravel()
        cuts = cuts[:-1] if cuts[-1] == P else cuts
        lo = np.minimum.reduceat(X, cuts, axis=1)[:, ::2]
        hi = np.maximum.reduceat(X, cuts, axis=1)[:, ::2]
        with np.errstate(over="ignore", invalid="ignore"):
            keep = _pairs_pass(lo, hi, box, cell, W, b, tol)
        box, cell = box[keep], cell[keep]
        leaf = ((np.bincount(box, minlength=start.size) <= LEAF_CANDIDATES)
                | np.all(lo == hi, axis=0) | (level == levels))[box]
        leaves.append((start[box[leaf]], end[box[leaf]], cell[leaf]))
        box, cell = box[~leaf], cell[~leaf]
        if not box.size:
            break
        if level == 0:
            order, key = _morton_order(X, levels)
            X = np.take(X, order, axis=1)
        # split each node that keeps pairs at the next level's key bits
        split = np.zeros(start.size, dtype=bool)
        split[box] = True
        prefix = key >> np.uint64(n * (levels - level - 1))
        child_starts = np.concatenate([[0], np.flatnonzero(np.diff(prefix)) + 1])
        child_ends = np.append(child_starts[1:], P)
        first = np.searchsorted(child_starts, start[split])
        children = np.searchsorted(child_starts, end[split]) - first
        offsets = np.cumsum(children) - children
        kids = np.repeat(first - offsets, children) + np.arange(children.sum())
        start, end = child_starts[kids], child_ends[kids]
        parent = (np.cumsum(split) - 1)[box]
        per_pair = children[parent]
        cell = np.repeat(cell, per_pair)
        box = (np.repeat(offsets[parent] - np.cumsum(per_pair) + per_pair, per_pair)
               + np.arange(cell.size))
    start, end, cell = (np.concatenate(a) for a in zip(*leaves))
    return order, start, end, cell


def containing(X, W, b, tol):
    """(first containing cell or -1, number of containing cells) per point
    of X (P, n): the finite points' candidates from _box_tree_leaves, every
    cell a non-finite point's."""
    cells = b.shape[1]
    X = np.ascontiguousarray(X.T)  # (n, P): coordinates first, as W
    finite = np.isfinite(X).all(axis=0)
    rows, rest = np.flatnonzero(finite), np.flatnonzero(~finite)
    start = end = cell = np.zeros(0, dtype=int)
    if rows.size:
        order, start, end, cell = _box_tree_leaves(
            np.take(X, rows, axis=1), W, b, tol)
        rows = rows[order]
    if rest.size:  # one leaf, every cell a candidate
        start = np.append(start, np.full(cells, rows.size))
        end = np.append(end, np.full(cells, X.shape[1]))
        cell = np.append(cell, np.arange(cells))
    rows = np.concatenate([rows, rest])
    X = np.take(X, rows, axis=1)
    span = end - start
    offsets = np.cumsum(span) - span
    total = int(span.sum())
    first = np.full(rows.size, cells)  # by the points' original index
    count = np.zeros(rows.size, dtype=int)
    step = max(1, CHUNK_ELEMENTS // (W.shape[0] * W.shape[1]))
    for lo in range(0, total, step):
        t = np.arange(lo, min(lo + step, total))
        leaf = np.searchsorted(offsets, t, side="right") - 1
        point, c = start[leaf] + t - offsets[leaf], cell[leaf]
        inside = _pairs_pass(X, X, point, c, W, b, tol)
        hit = rows[point[inside]]
        count += np.bincount(hit, minlength=rows.size)
        np.minimum.at(first, hit, c[inside])
    return np.where(first < cells, first, -1), count
