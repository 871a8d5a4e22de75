"""Network containers, exact ReLU forward evaluation, and file round trips.

Two architectures live here: the two-hidden-layer fully connected net
(dense first layer, sparse second layer stored as triplets) and the
rank-r tensor network made of per-axis one-hidden-layer branches whose
outputs multiply across axes and sum over the rank index.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from . import docio
from ._chunks import CHUNK_ELEMENTS, run_chunks
from .errors import DocumentError


def relu(x):
    return np.maximum(x, 0.0)


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
        n = docio.get(doc, "n", int)
        h1 = docio.get(doc, "h1", int)
        h2 = docio.get(doc, "h2", int)
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
                   provenance=doc.get("provenance") or {})


class TensorNet:
    """Sum over the rank index of products of per-axis branch nets.

    Branch k holds (W_k, b_k, weights_k); its contribution for rank p is
    weights_k[p] @ relu(W_k * x_k + b_k). The forward pass contracts each
    branch, then sums over the rank, through frozen CSR matrices with points
    in columns, so every sum runs in storage order whatever the batch. Its
    point chunks go through the same runner as ReluNet2's.
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
            if rank is None:
                rank = weights.shape[0]
            elif weights.shape[0] != rank:
                raise DocumentError("all branches must share the rank")
            self.branches.append((W, b, weights))
        if not self.branches:
            raise DocumentError("tensor net needs at least one branch")
        self.rank = int(rank)
        self.provenance = provenance or {}
        self._layers = tuple(sparse.csr_matrix(w) for _, _, w in self.branches) \
            + (sparse.csr_matrix(np.ones((1, self.rank))),)
        # the weights are frozen with their CSR copies, so the two agree
        _freeze(self._layers, *(w for _, _, w in self.branches))

    @property
    def n(self) -> int:
        return len(self.branches)

    @property
    def widths(self):
        return [W.shape[0] for W, _, _ in self.branches]

    def forward_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n:
            raise DocumentError(f"input dimension {X.shape[1]}, expected {self.n}")
        out = np.empty(X.shape[0])
        *contract, total = self._layers

        def body(lo, hi):
            Xc = X[lo:hi]
            prod = np.ones((self.rank, hi - lo))
            for k, ((W, b, _), weights) in enumerate(zip(self.branches, contract)):
                # one rounded product per entry, as the k=1 matmul gave
                Z = W * Xc[:, k]
                Z += b[:, None]
                np.maximum(Z, 0.0, out=Z)
                prod *= weights @ Z
            out[lo:hi] = (total @ prod)[0]

        run_chunks(body, X.shape[0],
                   max(1, CHUNK_ELEMENTS // max(self.widths + [self.rank])))
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
        rank = docio.get(doc, "rank", int)
        n = docio.get(doc, "n", int)
        branches = []
        for k in range(n):
            bd = docio.get(doc, f"branch_{k + 1}", dict)
            W = docio.as_float_array(docio.get(bd, "W"), "W")
            b = docio.as_float_array(docio.get(bd, "b"), "b", (W.shape[0],))
            weights = docio.as_float_array(docio.get(bd, "weights"), "weights",
                                           (rank, W.shape[0]))
            branches.append((W, b, weights))
        return cls(branches, provenance=doc.get("provenance") or {})


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
    with open(path, "w") as fh:
        fh.write(serialize(net))


def load(path):
    return from_doc(docio.load(path))
