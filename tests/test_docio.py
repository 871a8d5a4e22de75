"""The document writer against the stdlib writer it replaces
(`oracles.dumps`: `json.dumps(sort_keys=True, indent=1)` plus a newline),
and the document reader against the stdlib reader (`oracles.load`)."""

import decimal
import itertools
import json
import math
import struct
import types

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from relufem import docio, meshgen, networks
from relufem.errors import DocumentError
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


# --- float64 arrays through orjson ------------------------------------------------

def _around(x: float) -> list:
    """x, its four neighbours either side and their negatives."""
    out = [x]
    for toward in (0.0, math.inf):
        y = x
        for _ in range(4):
            y = float(np.nextafter(y, toward))
            out.append(y)
    return out + [-y for y in out]


# repr's exponent thresholds, integral floats at and beyond 2^53,
# subnormals, signed zeros and the non-finite values
ARRAY_EDGES = (_around(1e-4) + _around(1e16) + _around(2.0 ** 53)
               + [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                  2.2250738585072014e-308, 1e-5, 0.1, 1e15, 2.0 ** 63,
                  1e22, 1.7976931348623157e308, math.nan, math.inf,
                  -math.inf])


def assert_same_text(got: str, want: str):
    """A failure names the first line that differs: pytest's own diff of
    two long texts takes minutes."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
        line, (g, w) = next((i, p) for i, p in enumerate(pairs, 1)
                            if p[0] != p[1])
        pytest.fail(f"line {line}: wrote {g!r}, the stdlib writes {w!r}")


def assert_writes_as_stdlib(value):
    doc = {"a": value}
    assert_same_text(docio.dumps(doc), oracles.dumps(doc))


@pytest.fixture
def orjson_calls(monkeypatch):
    """The arrays passed to orjson.dumps while the test runs."""
    calls = []
    dumps = orjson.dumps

    def spy(obj, *args, **kwargs):
        calls.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(orjson, "dumps", spy)
    return calls


@pytest.mark.parametrize("scale, edge_share",
                         [(1.0, 0.0), (1.0, 0.01), (1.0, 0.3), (1e20, 0.3)])
def test_dumps_equals_stdlib_writer_on_large_float_arrays(scale, edge_share):
    """Entries in orjson's digits with none, a few or many in the stdlib's
    text; scaled past 1e16, most entries are."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal(60_000) * 10.0 ** rng.integers(-3, 15, 60_000)
    a *= scale
    picks = rng.random(a.size) < edge_share
    a[picks] = rng.choice(ARRAY_EDGES, int(picks.sum()))
    a[[0, -1]] = (5e-5, math.nan) if edge_share else (1.0, 2.0)
    for arr in (a, a.reshape(300, 200)):
        assert_writes_as_stdlib(arr)


BASE = np.arange(24, dtype=np.float64).reshape(4, 6) * 0.37 - 3.0
BASE.flat[[0, 5, 7, 11, 18, 23]] = (5e-5, math.nan, 1e16, -0.0, -math.inf,
                                    2.0 ** 53 + 2)
VIEWS = {
    "contiguous": BASE,
    "every other column": BASE[:, ::2],
    "Fortran order": np.asfortranarray(BASE),
    "transposed": BASE.T,
    "negative strides": BASE[::-1, ::-1],
    "1-d negative stride": BASE.ravel()[::-3],
    "row": BASE[1],
    "column": BASE[:, 2],
    "one entry": BASE[:1, :1],
    "empty 1-d": BASE[0, :0],
    "no rows": BASE[:0],
    "empty rows": BASE[:, :0],
    "0-d": BASE[1, 2, ...],
    "0-d NaN": BASE[0, 5, ...],
    "3-d": BASE.reshape(2, 3, 4),
    "3-d strided": BASE.reshape(2, 3, 4)[:, ::-1, 1:],
    "4-d": BASE.reshape(2, 2, 2, 3),
    "3-d empty axis": np.zeros((2, 0, 3)),
    "0.0000 inside in-range text": np.array([10.00001, 2.5, 100.000002]),
}


@pytest.mark.parametrize("arr", VIEWS.values(), ids=VIEWS)
def test_dumps_equals_stdlib_writer_on_float64_views(arr):
    assert_writes_as_stdlib(arr)
    assert_writes_as_stdlib([arr, {"b": arr}])


@settings(max_examples=300, deadline=None, database=None)
@given(hnp.arrays(np.float64,
                  hnp.array_shapes(min_dims=1, max_dims=2, min_side=1,
                                   max_side=30),
                  elements=st.floats() | st.sampled_from(ARRAY_EDGES)),
       st.sampled_from([lambda a: a, lambda a: a.T, lambda a: a[::-1],
                        lambda a: a[..., ::2], np.asfortranarray]))
def test_dumps_equals_stdlib_writer_on_float64_arrays(arr, view):
    assert_writes_as_stdlib(view(arr))


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64,
                                   np.uint8, np.bool_, ">f8"])
def test_other_arrays_keep_tolist(dtype, orjson_calls):
    """orjson would write a float32 in float32's shortest digits, where
    tolist() gives the float64 value: 0.1f is 0.10000000149011612."""
    arr = np.array([[0.1, 2.5, 1e-5], [3.0, 0.0, 1.0]]).astype(dtype)
    assert_writes_as_stdlib(arr)
    assert_writes_as_stdlib(arr[0])
    assert orjson_calls == []


class _NoToList(np.ndarray):
    def tolist(self):
        raise AssertionError("tolist() called on the coefficients")


def test_fine_tensor_document_writes_coefficients_through_orjson(orjson_calls):
    rng = np.random.default_rng(1)
    grids = [np.sort(rng.uniform(0.0, 1.0, 800)) for _ in range(2)]
    fine = TensorFE(TensorMesh(grids),
                    rng.standard_normal((800, 6)) @ rng.standard_normal((6, 800)))
    expected = oracles.dumps(fine.to_doc())
    fine.coefficients = fine.coefficients.view(_NoToList)
    assert_same_text(docio.dumps(fine.to_doc()), expected)
    assert 640_000 in [a.size for a in orjson_calls]


@pytest.mark.parametrize("save", [
    docio.save,
    lambda doc, path: networks.save(types.SimpleNamespace(to_doc=lambda: doc),
                                    path),
], ids=["docio.save", "networks.save"])
def test_a_failed_save_leaves_the_existing_file(tmp_path, save):
    path = tmp_path / "doc.json"
    docio.save({"kept": [1.0, 2.0]}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        save({"lost": np.array([1.0]), "bad": {1, 2}}, path)
    assert path.read_bytes() == before


# --- the reader -----------------------------------------------------------------

def same(a, b) -> bool:
    """Equal in value, in type and, for floats, in bits (NaN included)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def assert_reads_as_stdlib(text: str):
    """docio.loads of the text and of its UTF-8 bytes is json.loads'
    value, or json.loads' error as the same DocumentError message."""
    try:
        expected = oracles.loads(text)
    except DocumentError as exc:
        for data in (text, text.encode("utf-8", "surrogatepass")):
            with pytest.raises(DocumentError) as got:
                docio.loads(data)
            assert str(got.value) == str(exc)
        return
    for data in (text, text.encode("utf-8", "surrogatepass")):
        assert same(docio.loads(data), expected)


FINITE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e16, 0.1, 1.0 + 2 ** -52]
finite_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from(FINITE_EDGES))
int64s = st.integers(-2 ** 63, 2 ** 64 - 1) | st.sampled_from(
    [-2 ** 63, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1])
strings = st.text() | st.sampled_from(
    ["", "é", "ß☃", "\U0001f600", 'a"b\\c\n\t\x00\x1f/', "\ud800", "x\udfff"])
read_documents = st.dictionaries(strings, st.recursive(
    finite_floats | int64s | strings | st.booleans() | st.none()
    | st.lists(finite_floats, max_size=6)
    | st.lists(st.lists(finite_floats, min_size=1, max_size=4), max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner,
                                                                max_size=4),
    max_leaves=20), max_size=5)


@settings(max_examples=200, deadline=None, database=None)
@given(read_documents)
def test_loads_equals_stdlib_reader_on_written_documents(doc):
    assert_reads_as_stdlib(docio.dumps(doc))


@st.composite
def long_numbers(draw):
    """A decimal text of 18 to 40 significant digits, in plain, fraction
    or exponent form, from the subnormals to beyond the float range."""
    digits = draw(st.text("0123456789", min_size=17, max_size=39))
    digits = str(draw(st.integers(1, 9))) + digits
    point = draw(st.integers(0, len(digits)))
    sign = draw(st.sampled_from(["", "-"]))
    mantissa = digits if point == len(digits) else \
        (digits[:point] or "0") + "." + digits[point:]
    exponent = draw(st.none() | st.integers(-370, 330))
    return sign + mantissa + ("" if exponent is None else f"e{exponent}")


@settings(max_examples=400, deadline=None, database=None)
@given(long_numbers())
def test_loads_equals_stdlib_reader_on_long_numbers(text):
    value = json.loads(text)
    if type(value) is float or -2 ** 63 <= value < 2 ** 64:
        assert_reads_as_stdlib('{"x": %s}' % text)
    else:
        # an integer literal beyond 64 bits: see the tests below
        assert same(docio.loads('{"x": %s}' % text)["x"], float(value))


@st.composite
def halfway_numbers(draw):
    """The exact decimal midpoint of two adjacent finite doubles, and the
    40-digit texts just below and above it."""
    x = draw(st.floats(min_value=0.0, max_value=1.7976931348623155e308,
                       allow_subnormal=True))
    y = math.nextafter(x, math.inf)
    with decimal.localcontext(decimal.Context(prec=1200)):
        mid = (decimal.Decimal(x) + decimal.Decimal(y)) / 2
        step = decimal.Decimal(10) ** (mid.adjusted() - 39)
        return [format(m, "e") for m in (mid, mid - step, mid + step)]


@settings(max_examples=300, deadline=None, database=None)
@given(halfway_numbers())
def test_loads_equals_stdlib_reader_on_halfway_numbers(texts):
    for text in texts:
        assert_reads_as_stdlib('{"x": [%s, -%s]}' % (text, text))


@pytest.mark.parametrize("text", [
    "2.2250738585072011e-308", "2.2250738585072012e-308",
    "2.4703282292062327e-324", "2.4703282292062328e-324",
    "4.9406564584124654e-324", "1.7976931348623158e308",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "9007199254740993.0", "0.1e-400", "1e-400", "-0.0", "-0", "0e500",
    "9223372036854775807", "-9223372036854775808", "18446744073709551615"])
def test_loads_equals_stdlib_reader_on_hard_numbers(text):
    assert_reads_as_stdlib('{"x": %s}' % text)


# the texts orjson refuses, which the stdlib reader decides
REFUSED = {
    "NaN": b'{"x": NaN}',
    "Infinity": b'{"x": [Infinity, -Infinity]}',
    "beyond the float range": b'{"x": [1e400, -1e400, 1.7976931348623159e308]}',
    "401-digit integer": b'{"x": %s}' % (b"1" * 401),
    "integer beyond the digit limit": b'{"x": %s}' % (b"1" * 5000),
    "lone surrogate": b'{"x": "\\ud800"}',
    "lone surrogate key": b'{"\\udc00": 1}',
    "byte order mark": b'\xef\xbb\xbf{"x": 1}',
    "NaN and a syntax error": b'{"x": NaN,}',
    "CRLF lines and a syntax error": b'{"x": NaN,\r\n "y": }\r\n',
    "CR lines and a syntax error": b'{"x": 1e999,\r "y": }\r',
    "NaN nested past the recursion limit": b"[" * 5000 + b"NaN" + b"]" * 5000,
}


@pytest.mark.parametrize("data", REFUSED.values(), ids=REFUSED)
def test_refused_texts_keep_the_stdlib_readers_value_or_error(tmp_path, data):
    """A file that orjson refuses reads as text-mode open and json.loads
    read it: the same value, or the same DocumentError message."""
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    try:
        expected = oracles.load(path)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as got:
            docio.load(path)
        assert str(got.value) == str(exc)
    except RecursionError:
        # which the stdlib reader raised as it is: now a DocumentError
        with pytest.raises(DocumentError, match="recursion"):
            docio.load(path)
    else:
        assert same(docio.load(path), expected)


def test_bytes_that_are_not_utf8_are_a_document_error(tmp_path):
    path = tmp_path / "doc.json"
    for data in (b"\xff\xfe", b'{"x": "\xc3"}', b'{"x": "\xed\xa0\x80"}'):
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError):
            oracles.load(path)
        with pytest.raises(DocumentError, match="^not valid UTF-8: "):
            docio.load(path)


def test_integers_beyond_64_bits_read_as_the_nearest_float():
    """The one value the reader gives differently from the stdlib: a
    float field reads the same number, an integer field refuses it."""
    for value in (2 ** 64, -(2 ** 63) - 1, 10 ** 300, -(10 ** 40) - 1):
        got = docio.loads('{"x": %d}' % value)["x"]
        assert type(got) is float and got == float(value)
        assert docio.as_float(got, "x") == float(value)
        with pytest.raises(DocumentError, match="'x' must be an integer"):
            docio.as_int(got, "x")


def test_a_document_nested_past_the_recursion_limit_is_read():
    """orjson reads any depth, where the stdlib reader raised RecursionError."""
    text = "[" * 5000 + "]" * 5000
    with pytest.raises(RecursionError):
        json.loads(text)
    value = docio.loads('{"x": %s}' % text)["x"]
    for _ in range(4999):
        value, = value
    assert value == []
