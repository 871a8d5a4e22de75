"""The benchmark's three workloads.

Each workload draws its random parameters from the benchmark seed
(`draw`, untimed), builds and writes its inputs with the program's own
generators and document writers (`setup`, timed), computes reference
values apart from the program (`prepare`, untimed), and runs rounds of
timed CLI calls whose outputs are checked against those references
(`run_round`). Checks never use the program's answer as their
own reference: layer sizes are counted from the vertex lists, values come
from barycentric interpolation, nearest-site geometry or scipy's
RegularGridInterpolator.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from collections import Counter

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from relufem import meshgen, networks
from relufem.pwl import PiecewiseLinear, nodal_linear
from relufem.tensorfe import TensorFE, TensorMesh

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
# interior check points keep this multiple of eps from every facet, so
# rounding at the collar's ReLU kinks cannot decide a check
INTERIOR_MARGIN = 1.01
# exterior check points lie at least this far outside the domain box
EXTERIOR_GAP = 1e-6
CHECK_POINTS = 20_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _outside_box(rng, count, dim):
    """Uniform points of [-1, 2]^dim at least EXTERIOR_GAP outside the unit
    cube."""
    got = []
    total = 0
    while total < count:
        X = rng.uniform(-1.0, 2.0, size=(2 * count, dim))
        gap = np.max(np.maximum(-X, X - 1.0), axis=1)
        X = X[gap >= EXTERIOR_GAP]
        got.append(X)
        total += len(X)
    return np.vstack(got)[:count]


def _max_err(y, ref) -> float:
    return float(np.max(np.abs(np.asarray(y) - ref)))


class Workload:
    """Shared plumbing: file paths, byte-determinism bookkeeping."""

    name = ""
    setup_reps = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self._first_digest: dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def same_bytes(self, path: str) -> bool:
        """True when `path` holds the bytes it held after the first round."""
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return self._first_digest.setdefault(path, digest) == digest

    def sizes(self) -> dict:
        return {}


class FnnWorkload(Workload):
    """build / verify / eval of one mesh function with a two-layer net."""

    eps = 0.0
    verify_samples = 1000
    extra_flags: list[str] = []

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.mesh_path = self.path("mesh.json")
        self.fn_path = self.path("function.json")
        self.net_path = self.path("net.json")
        self.net = None

    def _common(self):
        return ["--mesh", self.mesh_path, "--function", self.fn_path,
                "--epsilon", repr(self.eps)] + self.extra_flags

    def run_round(self, s) -> dict:
        t_build, _ = s.cli("build", ["build"] + self._common()
                           + ["--output", self.net_path])
        t_verify, _ = s.cli("verify", ["verify"] + self._common()
                            + ["--network", self.net_path,
                               "--samples", str(self.verify_samples)])
        with s.span("bench.eval"):
            t0 = time.perf_counter()
            net = networks.load(self.net_path)
            y = net(self.eval_X)
            t_eval = time.perf_counter() - t0
        self.net = net
        with s.checking():
            s.check("network file bytes repeat",
                    self.same_bytes(self.net_path))
            self.check_outputs(s, net, y)
        return {"build_s": t_build, "verify_s": t_verify, "eval_s": t_eval,
                "eval_points": len(self.eval_X),
                "net_bytes": os.path.getsize(self.net_path)}

    def sizes(self) -> dict:
        net = self.net
        nnz = int(net.W2_vals.size)
        return {"networks.fnn_h1": net.h1, "networks.fnn_h2": net.h2,
                "networks.fnn_w2_nnz": nnz,
                "networks.fnn_flops_per_point":
                    2 * (net.n * net.h1 + nnz + net.h2)}


class Simplex3D(FnnWorkload):
    """Nodal interpolant of sin(k.x + phi) on a jittered Freudenthal mesh
    of the unit cube (N=2: 48 tetrahedra), weak mode."""

    name = "simplex3d"
    N = 2
    eps = 1e-3 / N
    # one set-up takes about 30 ms; many of them spread its median over a
    # few seconds, as the longer set-ups of the other workloads are
    setup_reps = 101
    eval_points = 120_000
    box_planes = 6

    def g(self, X):
        return np.sin(np.asarray(X) @ self.k + self.phi)

    def draw(self):
        rng = _rng(self.seed, 1)
        self.k = rng.uniform(1.0, 3.0, size=3)
        self.phi = rng.uniform(0.0, 2.0 * np.pi)

    def setup(self):
        mesh = meshgen.random_simplex_mesh(3, self.N, self.seed)
        verts, _ = mesh.vertex_table()
        mesh.save(self.mesh_path)
        nodal_linear(mesh, self.g(verts)).save(self.fn_path)

    def prepare(self):
        with open(self.mesh_path) as fh:
            doc = json.load(fh)
        V = np.array([c["vertices"] for c in doc["cells"]], dtype=float)
        ids: dict[tuple, int] = {}
        cell_ids = [[ids.setdefault(tuple(v), len(ids)) for v in cell]
                    for cell in V.tolist()]
        faces = Counter(tuple(sorted(f)) for cell in cell_ids
                        for f in itertools.combinations(cell, 3))
        if set(faces.values()) - {1, 2}:
            raise RuntimeError("mesh document is not a conforming simplicial "
                               "mesh")
        shared = sum(1 for c in faces.values() if c == 2)
        self.expected_h1 = 2 * shared + self.box_planes
        self.expected_h2 = len(V) + 1
        values = self.g(V.reshape(-1, 3)).reshape(len(V), 4)
        self.R = float(np.max(np.abs(values)))
        self.tol = 1e-9 * (1.0 + self.R)

        # barycentric coordinates: beta[1:] = (x - v0) @ inv(E), E the
        # edge rows v_j - v0; |grad beta_i| = 1 / height_i, and the
        # distance of x to facet i is beta_i * height_i
        Einv = np.linalg.inv(V[:, 1:] - V[:, :1])
        grads = np.concatenate([-Einv.sum(axis=2)[:, None, :],
                                np.swapaxes(Einv, 1, 2)], axis=1)
        floor = INTERIOR_MARGIN * self.eps * np.linalg.norm(grads, axis=2)
        if np.any(floor.sum(axis=1) >= 1.0):
            raise RuntimeError("eps too large for the mesh")
        rng = _rng(self.seed, 2)
        cells = rng.integers(0, len(V), size=self.eval_points)
        gamma = rng.dirichlet(np.ones(4), size=self.eval_points)
        lo = floor[cells]
        beta = lo + (1.0 - lo.sum(axis=1))[:, None] * gamma
        self.eval_X = np.einsum("pi,pij->pj", beta, V[cells])
        self.eval_ref = np.sum(beta * values[cells], axis=1)
        self.box_X = rng.uniform(0.0, 1.0, size=(CHECK_POINTS, 3))
        self.out_X = _outside_box(rng, CHECK_POINTS, 3)

    def check_outputs(self, s, net, y):
        s.check("h1 = 2 H_i + H_b and h2 = N_cells + 1",
                net.h1 == self.expected_h1 and net.h2 == self.expected_h2)
        s.check("net = barycentric interpolant on shrunk cells",
                _max_err(y, self.eval_ref) <= self.tol)
        s.check("|f| <= R on the mesh",
                float(np.max(np.abs(net(self.box_X)))) <= self.R + self.tol)
        s.check("f = -R outside the cube",
                _max_err(net(self.out_X), -self.R) <= self.tol)


class Polygon2D(FnnWorkload):
    """Random affine pieces on the Voronoi mesh of 20 random sites clipped
    to the unit square, compact-support mode.

    Site sets are drawn until their clipped Voronoi diagram has
    `interior_edges` edges between cells, the most common count for 20
    uniform sites (27% of draws), with no edge shorter than
    `min_edge`. That keeps the network size, hence the cost, the same on
    every seed, and gives the expected h1 = 2 * interior_edges + 4.
    """

    name = "polygon2d"
    n_sites = 20
    interior_edges = 46
    min_edge = 1e-3
    eps = 1e-3
    extra_flags = ["--compact-support"]
    verify_samples = 3000
    setup_reps = 3
    eval_points = 150_000

    def draw(self):
        rng = _rng(self.seed, 1)
        while True:
            self.sites = rng.uniform(0.08, 0.92, size=(self.n_sites, 2))
            edges, shortest = self._edges()
            if edges == self.interior_edges and shortest >= self.min_edge:
                break
        self.grads = rng.uniform(-1.0, 1.0, size=(self.n_sites, 2))
        self.consts = rng.uniform(-1.0, 1.0, size=self.n_sites)

    def setup(self):
        mesh = meshgen.voronoi_polygon_mesh(self.sites, SQUARE)
        mesh.save(self.mesh_path)
        PiecewiseLinear(mesh, self.grads, self.consts).save(self.fn_path)

    def _cell(self, i):
        """(vertices, n, d) of cell i = {x : n @ x <= d}: the bisectors
        against the other sites, then the square's sides.
        Vertices are the feasible intersections of constraint pairs."""
        p = self.sites[i]
        others = np.delete(self.sites, i, axis=0)
        n = np.vstack([2.0 * (others - p), -np.eye(2), np.eye(2)])
        d = np.concatenate([np.sum(others ** 2, axis=1) - p @ p,
                            [0.0, 0.0, 1.0, 1.0]])
        pairs = np.array(list(itertools.combinations(range(len(n)), 2)))
        A = n[pairs]
        ok = np.abs(np.linalg.det(A)) > 1e-12
        X = np.linalg.solve(A[ok], d[pairs[ok]][..., None])[..., 0]
        return X[np.all(X @ n.T - d <= 1e-9, axis=1)], n, d

    def _edges(self):
        """(number of edges shared by two cells, length of the shortest)."""
        count = 0
        shortest = np.inf
        for i in range(self.n_sites):
            X, n, d = self._cell(i)
            on = np.abs(X @ n.T - d) <= 1e-9
            for k in range(self.n_sites - 1):
                pts = X[on[:, k]]
                if len(pts) < 2:
                    continue
                length = float(np.max(np.ptp(pts, axis=0)))
                if length > 0.0:
                    count += 1
                    shortest = min(shortest, length)
        return count // 2, shortest

    def _sup_norm(self) -> float:
        """max |a.x + c| over the vertices of every cell."""
        return max(float(np.max(np.abs(self._cell(i)[0] @ self.grads[i]
                                       + self.consts[i])))
                   for i in range(self.n_sites))

    def _locate(self, X):
        """(nearest site, distance to that cell's boundary) per point."""
        P = self.sites
        d2 = np.sum((X[:, None, :] - P[None, :, :]) ** 2, axis=2)
        cell = np.argmin(d2, axis=1)
        rows = np.arange(len(X))
        sep = np.linalg.norm(P[cell][:, None, :] - P[None, :, :], axis=2)
        sep[rows, cell] = 1.0
        bisector = (d2 - d2[rows, cell][:, None]) / (2.0 * sep)
        bisector[rows, cell] = np.inf
        walls = np.minimum(X, 1.0 - X).min(axis=1)
        return cell, np.minimum(bisector.min(axis=1), walls)

    def prepare(self):
        self.R = self._sup_norm()
        self.tol = 1e-9 * (1.0 + self.R)
        rng = _rng(self.seed, 2)
        batches = []
        total = 0
        while total < self.eval_points:
            X = rng.uniform(0.0, 1.0, size=(self.eval_points, 2))
            _, dist = self._locate(X)
            X = X[dist >= INTERIOR_MARGIN * self.eps]
            batches.append(X)
            total += len(X)
        self.eval_X = np.vstack(batches)[:self.eval_points]
        cell, _ = self._locate(self.eval_X)
        self.eval_ref = (np.sum(self.grads[cell] * self.eval_X, axis=1)
                         + self.consts[cell])
        self.box_X = rng.uniform(0.0, 1.0, size=(CHECK_POINTS, 2))
        self.out_X = _outside_box(rng, CHECK_POINTS, 2)

    def check_outputs(self, s, net, y):
        s.check("h1 = 2 (interior edges) + 4 and h2 = N_cells + 1",
                net.h1 == 2 * self.interior_edges + 4
                and net.h2 == self.n_sites + 1)
        s.check("net = affine piece of the nearest site on shrunk cells",
                _max_err(y, self.eval_ref) <= self.tol)
        s.check("|f| <= 2R on the square",
                float(np.max(np.abs(net(self.box_X))))
                <= 2.0 * self.R + self.tol)
        s.check("f = 0 outside the square",
                _max_err(net(self.out_X), 0.0) <= self.tol)


def _grid(rng, nodes):
    """Uniform grid of [0, 1] with every interior node moved by up to a
    quarter of the spacing. Sorted uniform random nodes are not used: their
    tiny gaps make the 1-D hat layers miss the 1e-9 tolerance (see the
    README)."""
    shift = np.concatenate([[0.0], rng.uniform(-0.25, 0.25, nodes - 2), [0.0]])
    return (np.arange(nodes) + shift) / (nodes - 1)


class TensorWorkload(Workload):
    """A random 2x5x10 coefficient tensor and a fine 800x800 grid of rank 6.

    A generic 2x5x10 tensor has CP rank 10, the matricization bound, so the
    ALS search runs every rank below it and ends in the exact fibre
    expansion: its rank, hence the net size, is the same on every seed.
    The fine grid spends its build in the SVD and the 1-D hat layers.
    """

    name = "tnn"
    order3_shape = (2, 5, 10)
    fine_nodes = 800
    fine_rank = 6
    verify_samples = 1_000_000
    eval_points = 50_000
    # TensorNet.forward_batch materializes (points x width) per branch, so
    # the eval batch goes through in fixed chunks
    eval_chunk = 4096
    setup_reps = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.fn_paths = [self.path("order3.json"), self.path("fine.json")]
        self.net_paths = [self.path("order3_net.json"),
                          self.path("fine_net.json")]

    def draw(self):
        rng = _rng(self.seed, 1)
        order3 = ([_grid(rng, d) for d in self.order3_shape],
                  rng.standard_normal(self.order3_shape))
        A = rng.standard_normal((self.fine_nodes, self.fine_rank))
        B = rng.standard_normal((self.fine_nodes, self.fine_rank))
        fine = ([_grid(rng, self.fine_nodes) for _ in range(2)], A @ B.T)
        self.functions = [order3, fine]

    def setup(self):
        for (grids, coeffs), path in zip(self.functions, self.fn_paths):
            TensorFE(TensorMesh(grids), coeffs).save(path)

    def prepare(self):
        rng = _rng(self.seed, 2)
        self.refs = []
        for (grids, coeffs), count in zip(self.functions,
                                          (CHECK_POINTS, self.eval_points)):
            interp = RegularGridInterpolator(grids, coeffs, method="linear")
            X = rng.uniform(0.0, 1.0, size=(count, coeffs.ndim))
            tol = 1e-9 * (1.0 + float(np.max(np.abs(coeffs))))
            self.refs.append((X, interp(X), tol))
        self.eval_X = self.refs[1][0]

    def run_round(self, s) -> dict:
        t_build = 0.0
        for fn, net in zip(self.fn_paths, self.net_paths):
            t, _ = s.cli("build", ["tnn-build", "--function", fn,
                                   "--output", net])
            t_build += t
        # the fine grid stays out of tnn-verify: it evaluates every grid
        # node in one unchunked batch
        t_verify, _ = s.cli("verify", ["tnn-verify",
                                       "--function", self.fn_paths[0],
                                       "--network", self.net_paths[0],
                                       "--samples", str(self.verify_samples)])
        with s.span("bench.eval"):
            t0 = time.perf_counter()
            fine = networks.load(self.net_paths[1])
            y = np.concatenate([fine(self.eval_X[lo:lo + self.eval_chunk])
                                for lo in range(0, len(self.eval_X),
                                                self.eval_chunk)])
            t_eval = time.perf_counter() - t0
        with s.checking():
            order3 = networks.load(self.net_paths[0])
            for label, net, out, (grids, _), (X, ref, tol), path in zip(
                    ("order-3", "fine"), (order3, fine),
                    (order3(self.refs[0][0]), y), self.functions, self.refs,
                    self.net_paths):
                s.check(f"{label} net file bytes repeat",
                        self.same_bytes(path))
                s.check(f"{label} net branch widths = node counts",
                        list(net.widths) == [len(g) for g in grids])
                s.check(f"{label} net = multilinear interpolant",
                        _max_err(out, ref) <= tol)
            s.check("fine net rank = built rank", fine.rank == self.fine_rank)
        return {"build_s": t_build, "verify_s": t_verify, "eval_s": t_eval,
                "eval_points": len(self.eval_X),
                "net_bytes": sum(os.path.getsize(p) for p in self.net_paths)}


WORKLOADS = {w.name: w for w in (Simplex3D, Polygon2D, TensorWorkload)}
