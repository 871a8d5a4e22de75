"""Piecewise linear functions on polytope meshes.

Covers the general discontinuous case (one affine piece per cell), the
piecewise constant fields, and continuous nodal interpolants on simplicial
meshes. Values on cell boundaries are not meaningful for the discontinuous
kinds; evaluation simply reports the first containing cell and flags the
point as a boundary point.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import docio
from .errors import DocumentError, MeshError
from .mesh import PolytopeMesh

KINDS = ("general", "constant", "nodal-linear")


class EvalResult(NamedTuple):
    value: float
    cell: int
    on_boundary: bool


class PiecewiseLinear:
    """Per-cell affine data aligned with a mesh's cell order."""

    def __init__(self, mesh: PolytopeMesh, gradients, constants, kind="general",
                 nodal_values=None):
        if kind not in KINDS:
            raise DocumentError(f"unknown function kind '{kind}'")
        self.mesh = mesh
        self.gradients = np.atleast_2d(np.asarray(gradients, dtype=float))
        self.constants = np.asarray(constants, dtype=float).reshape(-1)
        if self.gradients.shape != (mesh.n_cells, mesh.dimension):
            raise DocumentError(
                f"gradients shape {self.gradients.shape} does not match "
                f"({mesh.n_cells}, {mesh.dimension})")
        if self.constants.shape[0] != mesh.n_cells:
            raise DocumentError("constants length does not match cell count")
        if not (np.all(np.isfinite(self.gradients))
                and np.all(np.isfinite(self.constants))):
            raise DocumentError("piece data must be finite")
        if kind == "constant" and np.any(self.gradients != 0.0):
            raise DocumentError("constant fields must have zero gradients")
        self.kind = kind
        self.nodal_values = None if nodal_values is None else \
            np.asarray(nodal_values, dtype=float)
        self._sup = None

    @classmethod
    def constant(cls, mesh, values) -> "PiecewiseLinear":
        values = np.asarray(values, dtype=float).reshape(-1)
        grads = np.zeros((mesh.n_cells, mesh.dimension))
        return cls(mesh, grads, values, kind="constant")

    def eval_cells(self, X, cells):
        """Evaluate at points with known cell indices (vectorized)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cells = np.asarray(cells, dtype=int)
        return np.einsum("ij,ij->i", self.gradients[cells], X) + self.constants[cells]

    def eval(self, x) -> EvalResult:
        x = np.asarray(x, dtype=float).reshape(1, -1)
        ci = int(self.mesh.locate(x, tol=1e-12)[0])
        if ci < 0:
            raise MeshError("point outside mesh")
        on_boundary = bool(np.min(self.mesh.cells[ci].facet_values(x)) <= 1e-12)
        value = float(self.gradients[ci] @ x[0] + self.constants[ci])
        return EvalResult(value, ci, on_boundary)

    def eval_batch(self, X):
        """(values, cells) for points inside the mesh; raises if any is outside."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cells = self.mesh.locate(X, tol=1e-12)
        if np.any(cells < 0):
            raise MeshError("point outside mesh")
        return self.eval_cells(X, cells), cells

    def __call__(self, X):
        return self.eval_batch(X)[0]

    def sup_norm(self) -> float:
        """max over cells of |a @ v + c| at the cell vertices, where an
        affine function attains its extrema over a polytope."""
        if self._sup is None:
            self._sup = max(
                float(np.max(np.abs(cell.vertex_set() @ self.gradients[i]
                                    + self.constants[i])))
                for i, cell in enumerate(self.mesh.cells))
        return self._sup

    def to_doc(self) -> dict:
        if self.kind == "nodal-linear" and self.nodal_values is not None:
            return {
                "kind": self.kind,
                "nodal_values": {str(i): v for i, v in enumerate(self.nodal_values)},
            }
        return {
            "kind": self.kind,
            "pieces": [{"a": self.gradients[i], "c": self.constants[i]}
                       for i in range(self.mesh.n_cells)],
        }

    @classmethod
    def from_doc(cls, doc: dict, mesh: PolytopeMesh) -> "PiecewiseLinear":
        kind = docio.get(doc, "kind", str)
        if kind not in KINDS:
            raise DocumentError(f"unknown function kind '{kind}'")
        if "nodal_values" in doc:
            raw = docio.get(doc, "nodal_values", dict)
            verts, _ = mesh.vertex_table()
            values = np.zeros(len(verts))
            seen = np.zeros(len(verts), dtype=bool)
            for key, val in raw.items():
                try:
                    idx = int(key)
                except ValueError as exc:
                    raise DocumentError(f"bad vertex index '{key}'") from exc
                if not 0 <= idx < len(verts):
                    raise DocumentError(f"vertex index {idx} out of range")
                values[idx] = docio.as_float(val, f"nodal_values[{key}]")
                seen[idx] = True
            if not np.all(seen):
                missing = int(np.nonzero(~seen)[0][0])
                raise DocumentError(f"nodal_values missing vertex {missing}")
            return nodal_linear(mesh, values)
        pieces = docio.get(doc, "pieces", list)
        if len(pieces) != mesh.n_cells:
            raise DocumentError(
                f"{len(pieces)} pieces for {mesh.n_cells} cells")
        grads = np.zeros((mesh.n_cells, mesh.dimension))
        consts = np.zeros(mesh.n_cells)
        for i, p in enumerate(pieces):
            grads[i] = docio.as_float_array(docio.get(p, "a"), "a",
                                            (mesh.dimension,))
            consts[i] = docio.as_float(docio.get(p, "c"), "c")
        return cls(mesh, grads, consts, kind=kind)

    def save(self, path):
        docio.save(self.to_doc(), path)

    @classmethod
    def load(cls, path, mesh: PolytopeMesh) -> "PiecewiseLinear":
        return cls.from_doc(docio.load(path), mesh)


def nodal_linear(mesh: PolytopeMesh, nodal_values) -> PiecewiseLinear:
    """Continuous interpolant with the given value at every mesh vertex.

    Solves every cell's (n+1)x(n+1) system [vertices | 1] (a; c) = values
    in one stacked call.
    Accepts either an array aligned with the mesh vertex table or a mapping
    vertex index -> value.
    """
    verts, cell_ids = mesh.vertex_table()
    if isinstance(nodal_values, dict):
        values = np.zeros(len(verts))
        for k, v in nodal_values.items():
            values[int(k)] = float(v)
        if len(nodal_values) != len(verts):
            raise MeshError("nodal value for every vertex is required")
    else:
        values = np.asarray(nodal_values, dtype=float).reshape(-1)
        if values.shape[0] != len(verts):
            raise MeshError(
                f"{values.shape[0]} nodal values for {len(verts)} vertices")
    ids = np.array(cell_ids)
    V = verts[ids]
    M = np.concatenate([V, np.ones(V.shape[:2] + (1,))], axis=2)
    det = np.linalg.det(M)
    scale = np.maximum(np.prod(np.linalg.norm(M, axis=2), axis=1), 1.0)
    degenerate = np.abs(det) < 1e-12 * scale
    if degenerate.any():
        raise MeshError(f"cell {int(np.argmax(degenerate))} is a degenerate simplex")
    sol = np.linalg.solve(M, values[ids][..., None])[..., 0]
    grads, consts = sol[:, :-1].copy(), sol[:, -1].copy()
    return PiecewiseLinear(mesh, grads, consts, kind="nodal-linear",
                           nodal_values=values)


def eval_pwl(v: PiecewiseLinear, x) -> EvalResult:
    """Value of v at x together with the matched cell and a boundary flag."""
    return v.eval(x)


def sup_norm(v: PiecewiseLinear) -> float:
    return v.sup_norm()
