"""Helpers for the JSON-based on-disk documents.

All documents are plain JSON. Floats are written with Python's shortest
round-trip representation (at most 17 significant digits), so a written
document re-read with `loads` reproduces every stored value bit for bit.

`dumps` writes `json.dumps(doc, sort_keys=True, indent=1)` plus a trailing
newline, byte for byte, after numpy arrays (`tolist()`) and numpy scalars
have become Python values and dict keys strings. It lays out dicts and
lists itself, because `json.dumps` with an indent always takes the
pure-Python encoder, and writes every run of numbers in one call:
- a list whose items are all exactly `int` or `float`, or a matrix of such
  non-empty lists, goes to the stdlib's C encoder;
- a non-empty float64 array of one or two dimensions goes to orjson, whose
  digits are `repr`'s shortest round-trip digits. The entries orjson
  writes differently, those `repr` writes in exponent form (nonzero
  |x| < 1e-4 and |x| >= 1e16), NaN and the infinities, take the C
  encoder's text instead.
Every other value, float32 and integer arrays among them (orjson would
write a float32 in float32's digits), takes its `tolist()` or Python value
through the first path or the layout code, so the bytes are the stdlib
writer's whichever path writes them. Keys are sorted, which makes repeated
writes of the same object byte-identical. `save` opens the file only once
the text is built, so a document that cannot be written leaves an existing
file as it was.

`load` reads a file's bytes and `loads` parses them with orjson, which
reads every number the writer writes to the same float bits. The text
orjson refuses goes to the stdlib's `json.loads`, decoded as strict UTF-8
with universal newlines as a text-mode `open` reads it, which decides its
value or its error as the stdlib reader alone did: `NaN` and `Infinity`
literals, numbers beyond the float range, integers too long to convert,
lone surrogate escapes and a UTF-8 byte order mark among them. Bytes that
are not UTF-8 are a DocumentError. One difference remains: orjson reads an
integer literal outside [-2^63, 2^64) as the nearest float, where the
stdlib gives an exact int. A float field gets the same value either way;
an integer field (`as_int`) refuses it. orjson also reads nesting of any
depth, where the stdlib stops at the recursion limit, which is then a
DocumentError too.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np
import orjson

from .errors import DocumentError


_NUMBERS = {int, float}
_ROWS = {list, tuple}
_encode_string = json.encoder.encode_basestring_ascii


# kept, one per line break: json.dumps with separators builds a new
# JSONEncoder on every call, which costs more than a short run
@functools.cache
def _run_encoder(newline: str):
    return json.JSONEncoder(separators=("," + newline, ": ")).encode


def _number_run(items, newline: str) -> str:
    """The items of a list of plain numbers, one per `newline`."""
    return _run_encoder(newline)(items)[1:-1]


def _float_text(x: float) -> str:
    """A float as the stdlib encoder writes it."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _exponent_form(a: np.ndarray) -> np.ndarray:
    """Where orjson's text is not the stdlib's: the entries `repr` writes
    in exponent form, and the non-finite ones (NaN compares false)."""
    mag = np.abs(a)
    return ~((mag >= 1e-4) & (mag < 1e16)) & (a != 0)


def _float_run(a: np.ndarray, newline: str) -> str:
    """The entries of a non-empty float64 array of one or two dimensions
    as `_number_run` writes its `tolist()`, from orjson's text."""
    a = np.ascontiguousarray(a)
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    # orjson writes an entry whose text is not repr's with an exponent, as
    # null or as 0.0000...; a text without them needs no mask
    if b"e" in text or b"n" in text or b"0.0000" in text:
        del text
        odd = _exponent_form(a)
        # orjson writes NaN as null, which no number text holds
        parts = orjson.dumps(np.where(odd, np.nan, a),
                             option=orjson.OPT_SERIALIZE_NUMPY).split(b"null")
        texts = _number_run(a[odd].tolist(), "").encode().split(b",")
        text = b"".join(itertools.chain.from_iterable(zip(parts, texts + [b""])))
        del parts
    # each copy of the text drops the one before: two at most are alive
    text = text.replace(b",", ("," + newline).encode())
    return str(memoryview(text)[1:-1], "ascii")


def _write_run(run, items, matrix: bool, newline: str, out: list) -> None:
    """Append a run of numbers, or a matrix of them, nested at line break
    `newline`: `run(items, sep)` is its text, items (and a matrix's rows)
    split by "," + sep, without the outer brackets."""
    inner = newline + " "
    if not matrix:
        out += ("[", inner, run(items, inner), newline, "]")
        return
    # a matrix is one run too, its row breaks re-laid: no number text
    # holds a bracket
    deeper = inner + " "
    rows = run(items, deeper)[1:-1].replace(
        "]," + deeper + "[", inner + "]," + inner + "[" + deeper)
    out += ("[", inner, "[", deeper, rows, inner, "]", newline, "]")


def _write(obj, newline: str, out: list) -> None:
    """Append the text of `obj` nested at line break `newline` to `out`."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        kinds = set(map(type, obj))
        if kinds <= _NUMBERS:
            _write_run(_number_run, obj, False, newline, out)
        elif (kinds <= _ROWS and all(obj)
              and set(map(type, itertools.chain.from_iterable(obj))) <= _NUMBERS):
            _write_run(_number_run, obj, True, newline, out)
        else:
            inner = newline + " "
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                sep = "," + inner
                _write(item, inner, out)
            out += (newline, "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + " "
        items = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for key in sorted(items):
            out += (sep, _encode_string(key), ": ")
            sep = "," + inner
            _write(items[key], inner, out)
        out += (newline, "}")
    elif isinstance(obj, str):
        out.append(_encode_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0 or not obj.size:
            _write(obj.tolist(), newline, out)
        elif obj.ndim <= 2:
            _write_run(_float_run, obj, obj.ndim == 2, newline, out)
        else:
            _write(list(obj), newline, out)
    elif isinstance(obj, np.floating):
        out.append(_float_text(float(obj)))
    elif isinstance(obj, np.integer):
        out.append(int.__repr__(int(obj)))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")


def dumps(doc: dict) -> str:
    """The document's text: see the module docstring for the byte contract."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _stdlib_loads(text: str | bytes):
    """The stdlib's reading of a text orjson refuses: bytes are decoded as
    a text-mode `open` reads a file, so its errors count the same places."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not valid UTF-8: {exc}") from exc
    # JSONDecodeError, an over-long integer literal, or nesting deeper than
    # the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc


def loads(text: str | bytes) -> dict:
    """The JSON object of a document's text or bytes (module docstring)."""
    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError:
        doc = _stdlib_loads(text)
    if not isinstance(doc, dict):
        raise DocumentError("top-level JSON value must be an object")
    return doc


def save(doc: dict, path) -> None:
    """Write the document's text to `path`, opening the file only once
    the text is built."""
    text = dumps(doc)
    with open(path, "w") as fh:
        fh.write(text)


def load(path) -> dict:
    with open(path, "rb") as fh:
        return loads(fh.read())


def get(doc: dict, field: str, kind=None):
    """Fetch a required field, raising DocumentError naming the field."""
    if field not in doc:
        raise DocumentError(f"missing required field '{field}'")
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        raise DocumentError(f"field '{field}' has wrong type {type(value).__name__}")
    return value


def as_int(value, field: str) -> int:
    """A JSON integer, raising DocumentError naming the field for
    booleans (which Python counts as integers), floats and non-numbers."""
    if type(value) is not int:
        raise DocumentError(
            f"field '{field}' must be an integer, not {type(value).__name__}")
    return value


def as_float(value, field: str) -> float:
    """A JSON number as a finite float, raising DocumentError naming the
    field for booleans, non-numbers, integers beyond the float range and
    non-finite values."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(
            f"field '{field}' must be a number, not {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError as exc:
        raise DocumentError(f"field '{field}' is too large for a float") from exc
    if not math.isfinite(out):
        raise DocumentError(f"field '{field}' must be finite")
    return out


def as_float_array(value, field: str, shape=None) -> np.ndarray:
    """A (nested) JSON array of numbers as a finite float array, raising
    DocumentError naming the field for booleans, strings and other
    non-numbers, integers beyond the float range, non-finite values and a
    shape other than `shape`."""
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise DocumentError(
            f"field '{field}' holds an integer too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"field '{field}' is not numeric: {exc}") from exc
    # the conversion above reads true as 1.0 and "1.5" as 1.5
    entries = [value] if arr.ndim == 0 else value
    for _ in range(arr.ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    wrong = set(map(type, entries)) - {int, float}
    if wrong:
        names = ", ".join(sorted(t.__name__ for t in wrong))
        raise DocumentError(f"field '{field}' must hold numbers, not {names}")
    if not np.all(np.isfinite(arr)):
        raise DocumentError(f"field '{field}' contains non-finite values")
    if shape is not None and arr.shape != tuple(shape):
        raise DocumentError(
            f"field '{field}' has shape {arr.shape}, expected {tuple(shape)}"
        )
    return arr
