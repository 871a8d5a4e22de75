"""Helpers for the JSON-based on-disk documents.

All documents are plain JSON. Floats are written with Python's shortest
round-trip representation (at most 17 significant digits), so a written
document re-read with `loads` reproduces every stored value bit for bit.
Keys are sorted and a trailing newline is appended, which makes repeated
writes of the same object byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from .errors import DocumentError


def jsonable(obj: Any) -> Any:
    """Convert numpy containers/scalars into plain Python structures."""
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dumps(doc: dict) -> str:
    return json.dumps(jsonable(doc), sort_keys=True, indent=1) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top-level JSON value must be an object")
    return doc


def save(doc: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(doc))


def load(path) -> dict:
    with open(path) as fh:
        return loads(fh.read())


def get(doc: dict, field: str, kind=None):
    """Fetch a required field, raising DocumentError naming the field."""
    if field not in doc:
        raise DocumentError(f"missing required field '{field}'")
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        raise DocumentError(f"field '{field}' has wrong type {type(value).__name__}")
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
