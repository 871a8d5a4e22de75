"""Reference implementations that tests compare the program against.

Each is the plain, loop-by-loop form of something the program computes
with arrays: they are slow on purpose and must stay independent of the
code they check.
"""

import itertools

import numpy as np


def positive_combination_bruteforce(cell):
    """Independent oracle for the positive normal combination (small facet
    counts).

    Enumerates basic solutions of {W^T lam = 0, lam >= 1}: every vertex of
    that (pointed) feasible set fixes m - n coordinates at 1 and solves the
    square remainder. Returns a feasible lambda or None.
    """
    m, n = cell.W.shape
    if m - n < 0:
        return None
    A = cell.W.T  # (n, m)
    for ones in itertools.combinations(range(m), m - n):
        free = [i for i in range(m) if i not in ones]
        M = A[:, free]
        if np.linalg.matrix_rank(M) < n:
            continue
        rhs = -A[:, ones] @ np.ones(len(ones)) if ones else np.zeros(n)
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.linalg.norm(M @ sol - rhs) > 1e-9 * (1.0 + np.linalg.norm(rhs)):
            continue
        lam = np.ones(m)
        lam[free] = sol
        if lam.min() >= 1.0 - 1e-9 and \
                np.linalg.norm(A @ lam) <= 1e-9 * float(lam @ cell.norms):
            return lam
    return None


class ScanRegistry:
    """The directed-hyperplane registry as a linear scan: facets are
    inserted one at a time, in cell order and then the hull's, and each
    maps to the first entry whose first-inserted key (unit normal, unit
    offset) is within `tol` in every coordinate, else founds a new entry.
    Facets are numbered by insertion order, as in the stacked facet table.
    """

    def __init__(self, mesh, tol=1e-9, hull=None):
        self.tol = tol
        self.keys = []       # (unit normal, unit offset) of each entry
        self.rep = []        # insertion number of each entry's first facet
        self.rep_wb = []     # raw (w, b) of each entry's first facet
        self.entry = []
        self.scale = []
        cells = list(mesh.cells) + ([hull] if hull is not None else [])
        for cell in cells:
            for w, b in zip(cell.W, cell.b):
                self._insert(w, float(b))
        self._classify()

    def _find(self, u, beta):
        """First entry within tol of (u, beta), or -1."""
        if not self.keys:
            return -1
        units = np.array([ue for ue, _ in self.keys])
        offsets = np.array([be for _, be in self.keys])
        hits = np.flatnonzero((np.max(np.abs(units - u), axis=1) <= self.tol)
                              & (np.abs(offsets - beta) <= self.tol))
        return int(hits[0]) if hits.size else -1

    def _insert(self, w, b):
        nw = float(np.linalg.norm(w))
        u, beta = w / nw, b / nw
        e = self._find(u, beta)
        if e < 0:
            e = len(self.keys)
            self.keys.append((u, beta))
            self.rep.append(len(self.entry))
            self.rep_wb.append((w.copy(), b))
            scale = 1.0
        else:
            rw, rb = self.rep_wb[e]
            scale = 1.0 if np.array_equal(w, rw) and b == rb \
                else nw / float(np.linalg.norm(rw))
        self.entry.append(e)
        self.scale.append(scale)

    def _classify(self):
        self.undirected = [-1] * len(self.keys)
        self.interior = [False] * len(self.keys)
        next_id = 0
        for i, (u, beta) in enumerate(self.keys):
            if self.undirected[i] >= 0:
                continue
            self.undirected[i] = next_id
            j = self._find(-u, -beta)
            if j >= 0 and j != i and self.undirected[j] < 0:
                self.undirected[j] = next_id
                self.interior[i] = self.interior[j] = True
            next_id += 1
        pairs = sum(self.interior) // 2
        self.interior_count = pairs
        self.boundary_count = next_id - pairs

    @property
    def size(self):
        return len(self.keys)


def dict_merge(rows, cols, vals, entry, scale):
    """Merged second-layer triplets: each term (r, c, v) becomes
    (r, entry[c], v * scale[c]), and terms landing on one (row, column)
    are summed in storage order, starting from 0.0, in a dict kept in
    first-occurrence order."""
    merged = {}
    for r, c, v in zip(rows, cols, vals):
        key = (int(r), int(entry[c]))
        merged[key] = merged.get(key, 0.0) + v * scale[c]
    return [(r, c, v) for (r, c), v in merged.items()]
