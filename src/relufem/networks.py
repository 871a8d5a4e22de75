"""Network containers, exact ReLU forward evaluation, and file round trips.

Two architectures live here: the two-hidden-layer fully connected net
(dense first layer, sparse second layer stored as triplets) and the
rank-r tensor network made of per-axis one-hidden-layer branches whose
outputs multiply across axes and sum over the rank index.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy import sparse

from . import docio
from ._boxtree import _corner_values
from ._chunks import CHUNK_ELEMENTS, run_chunks
from .errors import DocumentError


def relu(x):
    return np.maximum(x, 0.0)


def _provenance(doc: dict) -> dict:
    """A network document's provenance: an object, {} when absent or null."""
    value = doc.get("provenance")
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise DocumentError("field 'provenance' must be an object or null, "
                            f"not {type(value).__name__}")
    return value


# scipy's sparse maximum, minimum and abs sort a matrix's indices in place,
# which would reorder the terms of a row and change the output bits;
# read-only CSR arrays make such a call fail instead
def _freeze(layers, *arrays):
    for a in arrays + tuple(x for m in layers for x in (m.data, m.indices, m.indptr)):
        a.flags.writeable = False


class ReluNet2:
    """x -> w3 @ relu(W2 @ relu(W1 @ x + b1) + b2) (+ output_bias).

    W2 is given as an array of (row, col, value) triplets with integral
    rows and columns, and kept as the read-only arrays W2_rows, W2_cols
    and W2_vals, grouped by row with the original order kept inside a
    row. The forward pass multiplies by each layer as a CSR matrix built
    in that storage order (W1 and w3 row by row, W2 from the triplets as
    they stand), and scipy's CSR product sums each row's terms left to
    right in storage order. Every output is therefore the same float
    whatever batch or chunk its point falls in, and evaluation stays
    bit-stable under serialization and under the duplicate-neuron merge.
    The point chunks, of about CHUNK_ELEMENTS floats per layer temporary,
    go through relufem._chunks.run_chunks, which spreads them over the
    usable CPUs; each writes its own slice of the output, so the thread
    count changes no bit either.
    """

    def __init__(self, W1, b1, W2_triplets, b2, w3, output_bias=None,
                 provenance=None):
        self.W1 = np.atleast_2d(np.asarray(W1, dtype=float))
        self.b1 = np.asarray(b1, dtype=float).reshape(-1)
        self.b2 = np.asarray(b2, dtype=float).reshape(-1)
        self.w3 = np.asarray(w3, dtype=float).reshape(-1)
        self.output_bias = None if output_bias is None else float(output_bias)
        self.provenance = provenance or {}
        T = np.asarray(W2_triplets, dtype=float).reshape(-1, 3)
        T = T[np.argsort(T[:, 0], kind="stable")]
        self._validate(T)
        self.W2_rows = T[:, 0].astype(int)
        self.W2_cols = T[:, 1].astype(int)
        self.W2_vals = T[:, 2].copy()
        # from the stored order as it stands: no sum_duplicates or
        # sort_indices, which would reorder the terms of a row
        indptr = np.searchsorted(self.W2_rows, np.arange(self.h2 + 1))
        self._layers = (
            sparse.csr_matrix(self.W1),
            sparse.csr_matrix((self.W2_vals, self.W2_cols, indptr),
                              shape=(self.h2, self.h1)),
            sparse.csr_matrix(self.w3[None, :]))
        # the triplet arrays are frozen with the layers: W2_vals is the
        # second layer's data
        _freeze(self._layers, self.W2_rows, self.W2_cols, self.W2_vals)

    def _validate(self, T):
        if self.h1 < 1 or self.h2 < 1:
            raise DocumentError("hidden layers must be non-empty")
        if self.b1.shape[0] != self.h1:
            raise DocumentError("b1 length does not match W1")
        if self.w3.shape[0] != self.h2:
            raise DocumentError("w3 length does not match b2")
        arrays = [self.W1, self.b1, self.b2, self.w3, T]
        if any(not np.all(np.isfinite(a)) for a in arrays):
            raise DocumentError("network weights must be finite")
        rows, cols = T[:, 0], T[:, 1]
        if np.any(rows % 1 != 0) or np.any(cols % 1 != 0):
            raise DocumentError("W2 triplet rows and columns must be integers")
        if np.any(rows < 0) or np.any(rows >= self.h2):
            raise DocumentError("W2 triplet row out of range")
        if np.any(cols < 0) or np.any(cols >= self.h1):
            raise DocumentError("W2 triplet column out of range")

    @property
    def n(self) -> int:
        return self.W1.shape[1]

    @property
    def h1(self) -> int:
        return self.W1.shape[0]

    @property
    def h2(self) -> int:
        return self.b2.shape[0]

    def forward_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n:
            raise DocumentError(f"input dimension {X.shape[1]}, expected {self.n}")
        out = np.empty(X.shape[0])
        W1, W2, w3 = self._layers
        b1 = self.b1[:, None]
        b2 = self.b2[:, None]

        def body(lo, hi):
            # transposed layout: one column per point
            Z1 = W1 @ X[lo:hi].T
            Z1 += b1
            np.maximum(Z1, 0.0, out=Z1)
            Z2 = W2 @ Z1
            Z2 += b2
            np.maximum(Z2, 0.0, out=Z2)
            out[lo:hi] = (w3 @ Z2)[0]

        run_chunks(body, X.shape[0],
                   max(1, CHUNK_ELEMENTS // max(self.h1, self.h2)))
        if self.output_bias is not None:
            out += self.output_bias
        return out

    def forward(self, x) -> float:
        return float(self.forward_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def __call__(self, X):
        return self.forward_batch(X)

    def to_doc(self) -> dict:
        # triplets written in storage order so reloaded nets sum rows
        # identically (bit-for-bit evaluation after a round trip)
        doc = {
            "arch": "fnn2",
            "n": self.n,
            "h1": self.h1,
            "h2": self.h2,
            "W1": self.W1,
            "b1": self.b1,
            "W2": [list(t) for t in zip(self.W2_rows.tolist(),
                                        self.W2_cols.tolist(),
                                        self.W2_vals.tolist())],
            "b2": self.b2,
            "w3": self.w3,
            "output_bias": self.output_bias,
            "provenance": self.provenance,
        }
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ReluNet2":
        if docio.get(doc, "arch", str) != "fnn2":
            raise DocumentError("field 'arch' must be 'fnn2'")
        n = docio.as_int(docio.get(doc, "n"), "n")
        h1 = docio.as_int(docio.get(doc, "h1"), "h1")
        h2 = docio.as_int(docio.get(doc, "h2"), "h2")
        W1 = docio.as_float_array(docio.get(doc, "W1"), "W1", (h1, n))
        b1 = docio.as_float_array(docio.get(doc, "b1"), "b1", (h1,))
        b2 = docio.as_float_array(docio.get(doc, "b2"), "b2", (h2,))
        w3 = docio.as_float_array(docio.get(doc, "w3"), "w3", (h2,))
        trip = docio.as_float_array(docio.get(doc, "W2", list), "W2")
        if trip.size and (trip.ndim != 2 or trip.shape[1] != 3):
            raise DocumentError("W2 triplets must be [row, col, value]")
        ob = doc.get("output_bias")
        return cls(W1, b1, trip, b2, w3,
                   output_bias=None if ob is None
                   else docio.as_float(ob, "output_bias"),
                   provenance=_provenance(doc))


def _csc(dense):
    """The CSC matrix of a 2-D float array: its nonzero entries column by
    column, row order inside a column, as scipy's own conversion gives."""
    nonzero = dense.T != 0
    _, rows = np.nonzero(nonzero)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(nonzero, axis=1))])
    return sparse.csc_matrix((dense.T[nonzero], rows, indptr), shape=dense.shape)


class _RampSweep:
    """One branch's contraction weights @ relu(W t + b), unit by unit
    (the rows of W and b, the columns of weights), over its live units.

    The points are sorted and cut into blocks. A unit is live on a block of
    finite points when fl(fl(W t) + b) > 0 at one of the block's two ends
    (relufem._boxtree._corner_values with n = 1): a rounded product with W
    and a rounded sum with b are monotone in t (Higham 2002, ch. 2), so a
    unit whose end values are <= 0 is relu = +-0 at every point between
    them, and one that overflows anywhere in the block overflows at an
    end. The block's run reaches from its first live unit to its last live
    unit with W != 0; a live unit after the run has W = 0 and b > 0, hence
    the value b. One CSC product sums the run's terms, then those units'
    terms, in storage order. Every skipped term is w * (+-0) = +-0, and
    adding +-0 to a partial sum that started at +0, as the CSC product's
    do, leaves it unchanged (a rounded sum is -0 only when both terms
    are): each value has the bits of the full contraction in storage
    order. Non-finite points (NaN, +-inf) go in last blocks that keep every
    unit, as 0 * inf is NaN; the NaNs of one point all come from its NaN
    or are the default NaN of 0 * inf and inf - inf, so their sums keep
    one sign whatever the block. A call of at most step points is one
    block of every unit: bounding it would take more numpy calls than it
    could save, as unsorted points span most kinks.
    """

    def __init__(self, W, b, csc):
        w = W[:, 0]
        self.W, self.b, self.csc = W, b, csc
        self.rank, self.width = csc.shape
        # one past each unit with W != 0, 0 at the others
        self.after = np.where(w != 0, np.arange(1, self.width + 1), 0)[:, None]
        # the units with W = 0 and b > 0: relu(fl(+-0 + b)) = b at every
        # finite point
        self.const = np.flatnonzero((w == 0) & (b > 0)).tolist()
        # units with W = 1 before each index: a run of them skips the
        # multiply, as fl(1 t) = t
        self.ones = np.concatenate([[0], np.cumsum(w == 1)]).tolist()
        self.step = max(1, CHUNK_ELEMENTS // self.width)
        _freeze([], self.after)

    def _matrix(self, j0, j1, const):
        """The weights' CSC columns j0:j1, then the columns const."""
        if j0 == 0 and j1 == self.width:
            return self.csc
        p = self.csc.indptr
        spans = [(p[j0], p[j1])] + [(p[j], p[j + 1]) for j in const]
        counts = np.concatenate([np.diff(p[j0:j1 + 1]),
                                 [c - a for a, c in spans[1:]]])
        return sparse.csc_matrix(
            (np.concatenate([self.csc.data[a:c] for a, c in spans]),
             np.concatenate([self.csc.indices[a:c] for a, c in spans]),
             np.concatenate([[0], np.cumsum(counts)])),
            shape=(self.rank, counts.size))

    def _runs(self, lo, hi):
        """(j0, j1) per block with finite ends lo <= hi, as lists: the
        block's run is the units j0:j1, and (0, 0) when no unit with W != 0
        is live on it."""
        ends = np.concatenate([lo, hi])[None]
        z = _corner_values(ends, ends, self.W[None], self.b[:, None])
        live = np.maximum(z[:, :lo.size], z[:, lo.size:]) > 0
        j1 = (live * self.after).max(axis=0)
        j0 = np.minimum(live.argmax(axis=0), j1)
        return j0.tolist(), j1.tolist()

    def _blocks(self, s):
        """(start, end, j0, j1) per block of the sorted finite points s:
        blocks of self.step points, each merged into the one before while
        the units from the first run start to the last run end, and the
        constant units, times the points stay within CHUNK_ELEMENTS (a run
        holding more units than the block's live ones adds zeros)."""
        if not s.size:
            return []
        starts = np.arange(0, s.size, self.step)
        ends = np.append(starts[1:], s.size)
        blocks = []
        for start, end, j0, j1 in zip(starts.tolist(), ends.tolist(),
                                      *self._runs(s[starts], s[ends - 1])):
            if blocks:
                first, _, a, c = blocks[-1]
                a, c = min(a, j0), max(c, j1)
                if (c - a + len(self.const)) * (end - first) <= CHUNK_ELEMENTS:
                    blocks[-1] = (first, end, a, c)
                    continue
            blocks.append((start, end, j0, j1))
        return blocks

    def _contract(self, t, j0, j1):
        """(rank, len(t)): the units j0:j1 at the points t, then the
        constant units from j1 on, in one CSC product."""
        const = self.const[bisect.bisect_left(self.const, j1):]
        if len(const) == self.width - j1:  # they are the units from j1 on
            j1, const = self.width, []
        run = j1 - j0
        # a block's Z fits in CHUNK_ELEMENTS floats (one point's if the
        # branch is wider); allocated at that one size, a freed Z serves
        # the next block, where blocks of varying sizes grow the
        # allocator's per-thread heaps
        size = (run + len(const)) * t.size
        Z = np.empty(max(size, CHUNK_ELEMENTS))[:size].reshape(run + len(const), t.size)
        z = Z[:run]
        if self.ones[j1] - self.ones[j0] == run:
            np.add(self.b[j0:j1, None], t, out=z)
        else:
            np.multiply(self.W[j0:j1], t, out=z)
            z += self.b[j0:j1, None]
        np.maximum(z, 0.0, out=z)
        if const:
            Z[run:] = self.b[const, None]
        return self._matrix(j0, j1, const) @ Z

    def values(self, t):
        """(rank, len(t)) at the 1-D float array t."""
        if t.size <= self.step:
            return self._contract(t, 0, self.width)
        finite = np.isfinite(t)
        rows = np.flatnonzero(finite)
        rows = rows[np.argsort(t[rows])]
        s = t[rows]
        tasks = [(rows[i:e], s[i:e], j0, j1) for i, e, j0, j1 in self._blocks(s)]
        rest = np.flatnonzero(~finite)
        for i in range(0, rest.size, self.step):
            idx = rest[i:i + self.step]
            tasks.append((idx, t[idx], 0, self.width))
        out = np.empty((self.rank, t.size))

        def body(lo, hi):
            for idx, ts, j0, j1 in tasks[lo:hi]:
                out[:, idx] = self._contract(ts, j0, j1)

        run_chunks(body, len(tasks), 1)
        return out


class TensorNet:
    """Sum over the rank index of products of per-axis branch nets.

    Branch k holds (W_k, b_k, weights_k); its contribution for rank p is
    weights_k[p] @ relu(W_k * x_k + b_k). Both evaluators contract each
    branch through branch_values, then multiply the branches in axis order
    into a product that starts at ones, and sum over the rank in storage
    order from 0. forward_batch does so point by point, in chunks of about
    CHUNK_ELEMENTS / rank points; forward_grid on a product grid
    (grid_rank_sum), where each branch needs only its own axis's
    coordinates. A grid point's value is therefore the same float from
    both. Both write every NaN as the default quiet NaN: a rank sum of
    NaNs of both signs keeps either sign, depending on the batch.

    branch_values sweeps an axis's points in sorted order, in blocks of at
    most CHUNK_ELEMENTS run units times points that go through
    relufem._chunks.run_chunks, and evaluates on each block only its live
    units (_RampSweep): a unit relu(W_j t + b_j) is live on a block when it
    is positive at one of the block's two ends, which bounds it on the
    whole block because rounded products and sums are monotone. The units
    it skips would add exact zeros, so every rank row is the float of the
    full sum over the units in storage order (frozen CSC columns of the
    weights), whatever the batch, block or thread. Non-finite coordinates
    go in blocks that keep every unit (0 * inf is NaN), as they would in
    the full sum.

    On each box of the product grid of the axes' breakpoints (the kinks
    -b_j / W_j), every branch is linear, so the net is multilinear there;
    relufem.verify.check_tensor_net rests its exhaustive check on this.
    """

    def __init__(self, branches, provenance=None):
        self.branches = []
        rank = None
        for W, b, weights in branches:
            W = np.asarray(W, dtype=float).reshape(-1, 1)
            b = np.asarray(b, dtype=float).reshape(-1)
            weights = np.atleast_2d(np.array(weights, dtype=float))
            if W.shape[0] != b.shape[0] or weights.shape[1] != W.shape[0]:
                raise DocumentError("inconsistent branch shapes")
            if not all(np.all(np.isfinite(a)) for a in (W, b, weights)):
                raise DocumentError("network weights must be finite")
            if rank is None:
                rank = weights.shape[0]
            elif weights.shape[0] != rank:
                raise DocumentError("all branches must share the rank")
            self.branches.append((W, b, weights))
        if not self.branches:
            raise DocumentError("tensor net needs at least one branch")
        self.rank = int(rank)
        self.provenance = provenance or {}
        # the rank sum stays a CSR row: on one point, scipy's CSR and CSC
        # products keep different signs of a sum of NaNs of both signs
        self._layers = tuple(_csc(w) for _, _, w in self.branches) + (
            sparse.csr_matrix((np.ones(self.rank), np.arange(self.rank),
                               [0, self.rank]), shape=(1, self.rank)),)
        # the weights and the branch arrays are frozen with their CSC
        # copies, so the sweeps and the branches agree
        _freeze(self._layers, *(a for br in self.branches for a in br))
        self._sweeps = [_RampSweep(W, b, csc) for (W, b, _), csc
                        in zip(self.branches, self._layers)]

    @property
    def n(self) -> int:
        return len(self.branches)

    @property
    def widths(self):
        return [W.shape[0] for W, _, _ in self.branches]

    def branch_inputs(self, k, t):
        """relu(W_k t + b_k) at the points t of axis k, as a (width, len(t))
        array: one rounded product per W entry, then one rounded sum."""
        W, b, _ = self.branches[k]
        Z = W * t
        Z += b[:, None]
        np.maximum(Z, 0.0, out=Z)
        return Z

    def branch_values(self, k, t):
        """weights_k @ branch_inputs(k, t), as a (rank, len(t)) array: the
        sums of each rank row in storage order, over the live units."""
        return self._sweeps[k].values(np.asarray(t, dtype=float).reshape(-1))

    def forward_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n:
            raise DocumentError(f"input dimension {X.shape[1]}, expected {self.n}")
        out = np.empty(X.shape[0])
        total = self._layers[-1]
        step = max(1, CHUNK_ELEMENTS // self.rank)
        for lo in range(0, X.shape[0], step):
            Xc = X[lo:lo + step]
            prod = np.ones((self.rank, Xc.shape[0]))
            for k in range(self.n):
                prod *= self.branch_values(k, Xc[:, k])
            out[lo:lo + step] = (total @ prod)[0]
        out[np.isnan(out)] = np.nan
        return out

    def forward_grid(self, axes):
        """Values on the product grid of the 1-D arrays axes, shaped
        (len(axes[0]), ..., len(axes[-1])): each branch contracted once on
        its own axis, then grid_rank_sum with unit weights."""
        if len(axes) != self.n:
            raise DocumentError(f"input dimension {len(axes)}, expected {self.n}")
        out = grid_rank_sum(
            [self.branch_values(k, np.asarray(t, dtype=float).reshape(-1))
             for k, t in enumerate(axes)], np.ones(self.rank))
        out[np.isnan(out)] = np.nan
        return out

    def forward(self, x) -> float:
        return float(self.forward_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def __call__(self, X):
        return self.forward_batch(X)

    def to_doc(self) -> dict:
        doc = {"arch": "tnn", "rank": self.rank, "n": self.n,
               "provenance": self.provenance}
        for k, (W, b, weights) in enumerate(self.branches):
            doc[f"branch_{k + 1}"] = {"W": W.reshape(-1), "b": b, "weights": weights}
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "TensorNet":
        if docio.get(doc, "arch", str) != "tnn":
            raise DocumentError("field 'arch' must be 'tnn'")
        rank = docio.as_int(docio.get(doc, "rank"), "rank")
        n = docio.as_int(docio.get(doc, "n"), "n")
        branches = []
        for k in range(n):
            bd = docio.get(doc, f"branch_{k + 1}", dict)
            W = docio.as_float_array(docio.get(bd, "W"), "W")
            b = docio.as_float_array(docio.get(bd, "b"), "b", (W.shape[0],))
            weights = docio.as_float_array(docio.get(bd, "weights"), "weights",
                                           (rank, W.shape[0]))
            branches.append((W, b, weights))
        return cls(branches, provenance=_provenance(doc))


def grid_rank_sum(factors, weights):
    """sum_p weights[p] prod_k factors[k][p, i_k] at every point (i_1, ...,
    i_n) of a product grid, from per-axis arrays of shape (rank, M_k); the
    result has shape (M_1, ..., M_n).

    The operations are TensorNet.forward_batch's, in its order: the product
    starts at ones and multiplies in axis order, and the rank sum is a CSR
    product of the weights that adds the terms in storage order from 0. The
    grid goes through run_chunks in chunks along its first axis.
    """
    rank, n = len(weights), len(factors)
    shape = tuple(f.shape[1] for f in factors)
    inner = math.prod(shape[1:])
    out = np.empty(shape)
    flat = out.reshape(shape[0], inner)
    total = sparse.csr_matrix(np.reshape(weights, (1, rank)))

    def body(lo, hi):
        prod = np.ones((rank, hi - lo) + shape[1:])
        for k, f in enumerate(factors):
            f = f[:, lo:hi] if k == 0 else f
            prod *= f.reshape((rank,) + (1,) * k + f.shape[1:] + (1,) * (n - k - 1))
        flat[lo:hi] = (total @ prod.reshape(rank, -1)).reshape(hi - lo, inner)

    run_chunks(body, shape[0], max(1, CHUNK_ELEMENTS // max(1, rank * inner)))
    return out


def fnn_forward(net: ReluNet2, x) -> float:
    """Exact forward pass of the two-hidden-layer net at a single point."""
    return net.forward(x)


def tnn_forward(net: TensorNet, x) -> float:
    """Exact forward pass of the tensor net at a single point."""
    return net.forward(x)


def serialize(net) -> str:
    """Render a network as its JSON document text."""
    return docio.dumps(net.to_doc())


def deserialize(text: str):
    """Inverse of serialize."""
    return from_doc(docio.loads(text))


def from_doc(doc: dict):
    """The network of a document, dispatched on its 'arch' field."""
    arch = docio.get(doc, "arch", str)
    if arch == "fnn2":
        return ReluNet2.from_doc(doc)
    if arch == "tnn":
        return TensorNet.from_doc(doc)
    raise DocumentError(f"unknown arch '{arch}'")


def save(net, path):
    docio.save(net.to_doc(), path)


def load(path):
    return from_doc(docio.load(path))
