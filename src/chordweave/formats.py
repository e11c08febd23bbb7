"""Versioned JSON document I/O shared by the interchange formats.

Every on-disk document is a JSON object with a "format" tag such as
"chord-seq/v1"; readers check the tag before touching anything else so a
wrong or future version fails loudly instead of half-parsing.  NaN and
Infinity are not JSON: they are never written, and never read.

Documents are written as ``json.dumps(doc, indent=2, allow_nan=False)``
writes them, plus a newline, and read with one ``json.loads``.  With an
indent set, ``json.dumps`` skips its C encoder and writes every number
through the pure-Python one, so dumps_document has its own small writer
that lays out the same text.  A list whose items are all exactly float,
such as a chroma row, is one ``str.join`` of their ``float.__repr__``,
checked for NaN and infinities by a single search for "n", which no
finite float's repr holds.  Every other value is written as ``json``
writes it: strings by ``json``'s own ASCII escaper, ints and int
subclasses by ``int.__repr__``, floats and float subclasses by
``float.__repr__``, tuples as lists, keys converted as ``json`` converts
them, and ValueError or TypeError for what ``json`` refuses.  Text
that is not UTF-8, that nests too deeply for the parser or that holds an
integer literal longer than the interpreter converts raises FormatError,
as invalid JSON does.
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


def decode(doc, expected_format: str | tuple[str, ...], build):
    """Check `doc` is an object tagged `expected_format`, or one of them, then `build` it.

    What `build` raises on a missing, mistyped or invalid field becomes
    FormatError, but a nested decode's FormatError passes through as is.
    """
    tags = (expected_format,) if isinstance(expected_format, str) else expected_format
    if _object(doc).get("format") not in tags:
        expected = " or ".join(map(repr, tags))
        raise FormatError(f"format tag {doc.get('format')!r}, expected {expected}")
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


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    if "n" in text:  # nan, inf or -inf
        raise ValueError(f"Out of range float values are not JSON compliant: {text}")
    return text


def _key_text(key) -> str:
    """A dict key as the string json.dumps writes for it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(value, indent: str) -> str:
    """`value` as json.dumps(indent=2, allow_nan=False) writes it `indent` deep."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:
            body = (",\n" + inner).join(map(float.__repr__, value))
            if "n" in body:  # raise for the first nan, inf or -inf
                for item in value:
                    _float_text(item)
        else:
            body = (",\n" + inner).join([_json_text(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = (",\n" + inner).join(
            [
                f"{encode_basestring_ascii(_key_text(key))}: {_json_text(item, inner)}"
                for key, item in value.items()
            ]
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_document(doc: dict) -> str:
    """A document as deterministic, human-diffable JSON text: exactly
    json.dumps(doc, indent=2, allow_nan=False) plus a newline."""
    return _json_text(doc, "") + "\n"


def dump_document(doc: dict, path: str | os.PathLike) -> None:
    """Write dumps_document(doc) to a UTF-8 file; nothing is written if it fails to encode."""
    text = dumps_document(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
