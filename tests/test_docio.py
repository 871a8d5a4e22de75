"""The document writer against the stdlib writer it replaces
(`oracles.dumps`: `json.dumps(sort_keys=True, indent=1)` plus a newline)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from relufem import docio, meshgen
from relufem.compiler import (compile_compact_support,
                              compile_weak_representation)
from relufem.pwl import PiecewiseLinear, nodal_linear
from relufem.tensorfe import TensorFE, TensorMesh, compile_tnn

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1,
               1.7976931348623157e308, math.nan, math.inf, -math.inf]
EDGE_INTS = [0, -1, 2 ** 63, -(2 ** 63) - 1, 2 ** 64 + 1, 10 ** 30]

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
ints = st.integers() | st.sampled_from(EDGE_INTS)
numbers = floats | ints
texts = st.text() | st.sampled_from(["", "é", "ß☃", "\U0001f600", "a\"b\\c\n"])
arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint8,
                     np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
numpy_scalars = st.one_of(
    floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 2 ** 64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8))
leaves = st.one_of(
    numbers, st.booleans(), st.none(), texts, arrays, numpy_scalars,
    # number runs and matrices, empty ones and empty rows included
    st.lists(numbers, max_size=6),
    st.lists(st.lists(numbers, max_size=4), max_size=4),
    st.lists(st.lists(numbers, min_size=1, max_size=4).map(tuple), max_size=4),
    st.lists(numbers | st.booleans(), max_size=4))
keys = texts | ints | floats | st.booleans() | st.none()
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=400, deadline=None, database=None)
@given(documents)
def test_dumps_equals_stdlib_writer(doc):
    assert docio.dumps(doc) == oracles.dumps(doc)


@pytest.mark.parametrize("value", [np.bool_(True), {"a": [1, {2, 3}]},
                                   1 + 2j, b"bytes"])
def test_dumps_refuses_what_the_stdlib_writer_refuses(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        oracles.dumps(value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        docio.dumps(value)


def test_dumps_equals_stdlib_writer_on_documents():
    mesh = meshgen.random_polygon_mesh(0)
    rng = np.random.default_rng(0)
    v = PiecewiseLinear(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)),
                        rng.uniform(-1, 1, mesh.n_cells))
    simplex = meshgen.random_simplex_mesh(3, 2, 1)
    nodal = nodal_linear(simplex, np.sin(simplex.vertex_table()[0].sum(axis=1)))
    docs = {
        "voronoi mesh": mesh.to_doc(),
        "simplex mesh": simplex.to_doc(),
        "nodal function": nodal.to_doc(),
        "weak fnn2": compile_weak_representation(simplex, nodal, 5e-4).to_doc(),
        # the unmerged net keeps a numpy array in its provenance
        "unmerged fnn2": compile_weak_representation(simplex, nodal, 5e-4,
                                                     merge=False).to_doc(),
        "compact fnn2": compile_compact_support(mesh, v, 1e-3).to_doc(),
    }
    for name, doc in docs.items():
        assert docio.dumps(doc) == oracles.dumps(doc), name


def test_dumps_equals_stdlib_writer_on_tensor_documents():
    rng = np.random.default_rng(1)
    grids = [np.linspace(0.0, 1.0, n) for n in (3, 4, 5)]
    small = TensorFE(TensorMesh(grids), rng.standard_normal((3, 4, 5)))
    fine_grids = [np.sort(rng.uniform(0.0, 1.0, 800)) for _ in range(2)]
    fine = TensorFE(TensorMesh(fine_grids),
                    rng.standard_normal((800, 6)) @ rng.standard_normal((6, 800)))
    for doc in (compile_tnn(small).to_doc(), fine.to_doc()):
        assert docio.dumps(doc) == oracles.dumps(doc)
