"""Versioned JSON document I/O shared by the interchange formats.

Every on-disk document is a JSON object with a "format" tag such as
"chord-seq/v1"; readers check the tag before touching anything else so a
wrong or future version fails loudly instead of half-parsing.  NaN and
Infinity are not JSON: they are never written, and never read.

Documents are compact JSON, written and read by ``json`` alone.  Text
that is not UTF-8, that nests too deeply for the parser or that holds an
integer literal longer than the interpreter converts raises FormatError,
as invalid JSON does.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np


class FormatError(ValueError):
    """Malformed document: bad JSON, wrong format tag, or invalid payload."""


def _object(doc) -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def decode(doc, expected_format: str, build):
    """Check `doc` is an object tagged `expected_format`, then `build` it.

    What `build` raises on a missing, mistyped or invalid field becomes
    FormatError, but a nested decode's FormatError passes through as is.
    """
    if _object(doc).get("format") != expected_format:
        raise FormatError(f"format tag {doc.get('format')!r}, expected {expected_format!r}")
    try:
        return build(doc)
    except FormatError:
        raise
    except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise FormatError(f"invalid {expected_format} document: {detail}") from exc


def as_text(value) -> str:
    """A JSON string field; null or a number is not coerced to one."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def as_number(value) -> float:
    """A JSON number field as a float; a bool, string or null is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def as_integer(value) -> int:
    """A JSON number field with an integral value, as an int; 4.9 is refused, not truncated."""
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def as_numbers(values) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float64 array.

    The element types are checked with no Python loop over the elements.
    NumPy's own type inference refuses a string, null, a nested object, an
    integer too large for a float, ragged rows and an array of booleans
    alone: each gives a non-numeric dtype or raises ValueError.  A boolean
    among numbers, which NumPy would read as 0 or 1, is found in the set of
    the elements' types.
    """
    array = np.array(values)
    if array.dtype.kind not in "iuf":
        raise TypeError(f"expected an array of numbers, got elements of dtype {array.dtype}")
    if array.ndim:
        elements = values
        for _ in range(array.ndim - 1):
            elements = chain.from_iterable(elements)
        if bool in set(map(type, elements)):
            raise TypeError("expected an array of numbers, got a boolean among them")
    return array.astype(np.float64, copy=False)


def _reject_constant(name: str):
    raise FormatError(f"{name} is not a JSON number")


def load_document(path: str | os.PathLike) -> dict:
    """Read a JSON object; its "format" tag is checked by decode.

    Text that is not UTF-8, is not JSON, nests too deeply to parse or
    holds an integer literal past the interpreter's digit limit raises
    FormatError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except FormatError:
        raise
    except ValueError as exc:
        # Invalid JSON, or an integer literal past the interpreter's digit limit.
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"nested too deeply: {exc}") from exc
    return _object(doc)


def dumps_document(doc: dict) -> str:
    """A document as deterministic JSON text: json.dumps(doc, allow_nan=False) plus a newline."""
    return json.dumps(doc, allow_nan=False) + "\n"


def dump_document(doc: dict, path: str | os.PathLike) -> None:
    """Write dumps_document(doc) to a UTF-8 file; nothing is written if it fails to encode."""
    text = dumps_document(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
