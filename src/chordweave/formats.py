"""Versioned JSON document I/O shared by the interchange formats.

Every on-disk document is a JSON object with a "format" tag such as
"chord-seq/v1"; readers check the tag before touching anything else so a
wrong or future version fails loudly instead of half-parsing.  NaN and
Infinity are not JSON: they are never written, and never read.

Documents are written exactly as ``json.dumps(doc, indent=2)`` writes
them, but a list of floats, such as one frame of a chroma matrix, is
encoded in one string operation rather than number by number, and the
text is streamed to the file one row or container header at a time.
Consecutive items of a list that are one and the same list object, as
the frames of a chord are in ``chroma.chroma_matrix_to_dict``, are
encoded once and their text written again.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from json.encoder import encode_basestring_ascii

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
    integer too large for a float and an array of booleans alone: each
    gives a non-numeric dtype.  A boolean among numbers, which NumPy
    would read as 0 or 1, is found in the set of the elements' types.
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
    """Read a JSON object; its "format" tag is checked by decode."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return _object(doc)


# Scalars other than strings, on json's own C encoder.
_SCALARS = json.JSONEncoder(allow_nan=False)


def _key(key) -> str:
    """An object key as json writes it: non-str scalars are quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_SCALARS.encode(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _float_row(value, indent: str) -> str | None:
    """The text of `value` if it is a non-empty list of finite floats, else None.

    float.__repr__ is what json writes a float with, a subclass such as
    np.float64 included; it raises TypeError on anything else.  Every
    non-finite repr ("nan", "inf", "-inf") holds an "n" and no finite one does.
    """
    if not isinstance(value, (list, tuple)) or not value:
        return None
    inner = indent + "  "
    try:
        text = (",\n" + inner).join(map(float.__repr__, value))
    except TypeError:
        return None
    return None if "n" in text else f"[\n{inner}{text}\n{indent}]"


def _chunks(value, indent: str):
    """The text of json.dumps(value, indent=2, allow_nan=False), in pieces.

    `indent` is the indentation of the line `value` starts on.  A list of
    finite floats is one piece; any other container yields its header and
    each item's pieces in turn, and a list holding a non-finite float takes
    that path too, so json's encoder raises ValueError on it.  A float row
    that is the same object as the item before it is not encoded again.
    """
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        row = _float_row(value, indent)
        if row is not None:
            yield row
            return
        inner = indent + "  "
        separator = "[\n" + inner
        last = row = None
        for item in value:
            yield separator
            if item is not last:
                last, row = item, _float_row(item, inner)
            if row is None:
                yield from _chunks(item, inner)
            else:
                yield row
            separator = ",\n" + inner
        yield "\n" + indent + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            yield separator + _key(key) + ": "
            yield from _chunks(item, inner)
            separator = ",\n" + inner
        yield "\n" + indent + "}"
    else:
        yield _SCALARS.encode(value)


def dump_document(doc: dict, path: str | os.PathLike) -> None:
    """Write a document as deterministic, human-diffable JSON, streamed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(doc, ""))
        fh.write("\n")


def dumps_document(doc: dict) -> str:
    """The exact text dump_document would write, as a string."""
    return "".join(_chunks(doc, "")) + "\n"
