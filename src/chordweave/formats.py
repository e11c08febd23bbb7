"""Versioned JSON document I/O shared by the interchange formats.

Every on-disk document is a JSON object with a "format" tag such as
"chord-seq/v1"; readers check the tag before touching anything else so a
wrong or future version fails loudly instead of half-parsing.  NaN and
Infinity are not JSON: they are never written, and never read.
"""

from __future__ import annotations

import json
import os


class FormatError(ValueError):
    """Malformed document: bad JSON, wrong format tag, or invalid payload."""


def _checked(doc, expected_format: str | None) -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
    if expected_format is not None and doc.get("format") != expected_format:
        raise FormatError(f"format tag {doc.get('format')!r}, expected {expected_format!r}")
    return doc


def decode(doc, expected_format: str, build):
    """Check `doc` is an object tagged `expected_format`, then `build` it.

    What `build` raises on a missing, mistyped or invalid field becomes
    FormatError, but a nested decode's FormatError passes through as is.
    """
    _checked(doc, expected_format)
    try:
        return build(doc)
    except FormatError:
        raise
    except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise FormatError(f"invalid {expected_format} document: {detail}") from exc


def _reject_constant(name: str):
    raise FormatError(f"{name} is not a JSON number")


def load_document(path: str | os.PathLike, expected_format: str | None = None) -> dict:
    """Read a JSON object, optionally checking its "format" tag."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return _checked(doc, expected_format)


def dump_document(doc: dict, path: str | os.PathLike) -> None:
    """Write a document as deterministic, human-diffable JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def dumps_document(doc: dict) -> str:
    """The exact text dump_document would write, as a string."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
