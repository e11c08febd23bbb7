"""Versioned JSON document I/O shared by the interchange formats.

Every on-disk document is a JSON object with a "format" tag such as
"chord-seq/v1"; readers check the tag before touching anything else so a
wrong or future version fails loudly instead of half-parsing.  NaN and
Infinity are not JSON: they are never written, and never read.

Documents are written exactly as ``json.dumps(doc, indent=2)`` writes
them, but a list of floats, such as one frame of a chroma matrix, is
encoded in one string operation rather than number by number, and the
pieces (rows and container headers) are joined and written to the file
in batches of _BATCH_PIECES, so a write never holds the whole text.
Consecutive items of a list that are one and the same list object, as
the frames of a chord are in ``chroma.chroma_matrix_to_dict``, are
encoded once and their text written again.

Reading follows the same run rule.  load_document walks a list of rows
written in that layout one run at a time: it finds where a row's text
ends, at the next row break, and counts how often that text and the
break repeat from there by comparing whole blocks of text, so its cost
follows the number of runs, not of rows.  It parses each distinct row
text once and gives every occurrence of it one shared list object; the
rest of the document is one json.loads with the list's text replaced by
a placeholder.  Rows are read apart only when each distinct row text
stands for at least three rows, among rows 2 to 32 and then among all,
so not the frames of a recording's chromagram, which all differ.  Any
other layout, and any text that leaves a doubt, is parsed whole by
json.loads, which gives the same values and raises the same errors.
as_numbers then converts each run of one shared row once.  A 240 s
request (12,000 frames, 2 MB) writes in about 7-8 ms, where writing it
one piece at a time took 9-12 ms, and pipeline.read_generation_request
reads it in about 5-6 ms, of which the row walk is 1.5 ms, where
splitting the text on the row break took 4-6 ms (2-vCPU KVM guest,
Python 3.11).  chroma.read_matrix of 12,000 distinct frames takes as
long as the whole-text parse: the row walk gives up on it within
0.03 ms.  Text that is not UTF-8, that nests too deeply for the parser
or that holds an integer literal longer than the interpreter converts,
raises FormatError as invalid JSON does.
"""

from __future__ import annotations

import json
import os
import re
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii
from operator import is_not

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
    Consecutive items that are one and the same object, as the frames of
    a run are in a document load_document read, are checked and converted
    once and the result repeated by run length.  Items are matched by
    identity, never by value, so 0.0 and -0.0, or True and 1, never merge.
    """
    runs, lengths = values, None
    if isinstance(values, list):
        starts = [0, *compress(range(1, len(values)), map(is_not, values[1:], values))]
        if len(starts) < len(values):
            lengths = np.diff(starts + [len(values)])
            runs = list(map(values.__getitem__, starts))
    try:
        array = np.array(runs)
    except ValueError:
        # Ragged rows: raise NumPy's error for all the rows, whose shape
        # it names, rather than for the runs.
        array = np.array(values)
    if array.dtype.kind not in "iuf":
        raise TypeError(f"expected an array of numbers, got elements of dtype {array.dtype}")
    if array.ndim:
        elements = runs
        for _ in range(array.ndim - 1):
            elements = chain.from_iterable(elements)
        if bool in set(map(type, elements)):
            raise TypeError("expected an array of numbers, got a boolean among them")
    array = array.astype(np.float64, copy=False)
    return array if lengths is None else np.repeat(array, lengths, axis=0)


def _reject_constant(name: str):
    raise FormatError(f"{name} is not a JSON number")


# Between two consecutive rows of an indented list of lists, as _chunks
# writes it; group 1 is the rows' indentation.
_ROW_BREAK = re.compile(r"\n( *)\],\n\1\[\n")
# The text inside a row's brackets when it can hold nothing but numbers:
# no string, bracket, brace or literal.
_NUMBERS_TEXT = re.compile(r"[0-9eE+\-., \t\n\r]*")
_CLOSING = re.compile(r"[ \t\n\r]*\]")
# Parsing one row text apart costs about what parsing two or three rows
# within the whole text does, so rows are read apart only when each
# distinct text stands for at least this many rows.
_MIN_ROWS_PER_TEXT = 3
# The longest block of repeated row text _repeats compares at once, so
# a long run is counted without a copy of its whole text.
_BLOCK_CHARS = 1 << 16


def _repeats(text: str, unit: str, pos: int) -> int:
    """How many times `unit` follows itself in `text` from `pos` on.

    Blocks of 1, 2, 4, ... units are compared while they match, up to
    _BLOCK_CHARS long, then the rest in halving blocks: one
    str.startswith per block, however long the run.
    """
    count, size, block, smaller = 0, 1, unit, []
    while text.startswith(block, pos):
        pos += len(block)
        count += size
        if len(block) < _BLOCK_CHARS:
            smaller.append((block, size))
            block, size = block + block, size + size
    for block, size in reversed(smaller):
        if text.startswith(block, pos):
            pos += len(block)
            count += size
    return count


def _load_rows(text: str):
    """json.loads(text), reading the text of each distinct row once, or None.

    The rows are those of the first pair written as dump_document writes
    two consecutive rows.  They are walked one run at a time: a row's
    text up to the next row break is one unit, and the unit's repeats
    are counted where they follow it, so the cost follows the number of
    runs, not of rows.  A unit ends with the row break, so a row whose
    text is a prefix of the next one's never joins its run.  None, for
    the caller to parse the whole text, when there is no such pair, when
    fewer than _MIN_ROWS_PER_TEXT rows share each distinct row text on
    average, among rows 2 to 32 (to the last but one in a shorter list)
    or among all the rows, when the walked rows are not all the items of
    one list, when a row's text could hold anything but numbers, when
    the text outside the list holds NaN or Infinity, or when any of it
    fails to parse.  Every row of one text is the same list object, so
    the rows of a run are shared as chroma_matrix_to_dict shares them.
    """
    found = _ROW_BREAK.search(text)
    if found is None:
        return None
    separator = found.group()
    # The rows-per-text test below, on rows 2 to 32 first: the text of a
    # recording's chromagram, whose frames all differ, is not walked whole.
    breaks = list(islice(re.finditer(re.escape(separator), text), 32))
    sample = [text[a.end():b.start()] for a, b in zip(breaks, breaks[1:])]
    if len(set(sample)) * _MIN_ROWS_PER_TEXT > len(sample):
        return None
    opening = text.rfind("[", 0, found.start())
    start = len(text[:opening].rstrip(" \t\n\r")) - 1
    if opening < 0 or start < 0 or text[start] != "[":
        return None
    # The first row's text starts, and the last row's ends, as a row's
    # between two others does, so that an equal first or last row parses
    # to the same object as those.
    pos = opening + 1 + text.startswith("\n", opening + 1)
    runs = []
    while (stop := text.find(separator, pos)) >= 0:
        body = text[pos:stop]
        unit = body + separator
        count = _repeats(text, unit, pos)
        runs.append((body, count))
        pos += count * len(unit)
    closing = text.find("]", pos)
    end = _CLOSING.match(text, closing + 1)
    if closing < 0 or end is None:
        return None
    runs.append((text[pos:closing].removesuffix("\n" + found.group(1)), 1))
    before, after = text[:start], text[end.end():]
    if "NaN" in before or "Infinity" in before or "NaN" in after or "Infinity" in after:
        return None
    distinct = {body for body, _ in runs}
    if len(distinct) * _MIN_ROWS_PER_TEXT > sum(count for _, count in runs):
        return None
    rows, placed = {}, []
    try:
        for body in distinct:
            if _NUMBERS_TEXT.fullmatch(body) is None:
                return None
            rows[body] = json.loads("[" + body + "]")
        data = []
        for body, count in runs:
            data += [rows[body]] * count
        doc = json.loads(before + "NaN" + after,
                         parse_constant=lambda name: placed.append(name) or data)
    except (ValueError, RecursionError):
        return None
    # No NaN token parsed: it sat inside a string, and so did the list.
    return doc if placed else None


def load_document(path: str | os.PathLike) -> dict:
    """Read a JSON object; its "format" tag is checked by decode.

    Text that is not UTF-8, is not JSON, nests too deeply to parse or
    holds an integer literal past the interpreter's digit limit raises
    FormatError.  The rows of a list written in dump_document's layout
    are parsed once per distinct row text, and equal row texts give one
    shared list object (see _load_rows): treat the result as read-only.
    Any other text is parsed whole by json.loads.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from exc
    doc = _load_rows(text)
    if doc is None:
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


# Pieces joined into one write: a batch of rows is a small part of a
# long document's text, and the file is called once per batch, not per piece.
_BATCH_PIECES = 256


def write_text(path: str | os.PathLike, pieces) -> None:
    """Write the strings `pieces` to a UTF-8 file, _BATCH_PIECES at a time."""
    pieces = iter(pieces)
    with open(path, "w", encoding="utf-8") as fh:
        for first in pieces:
            fh.write(first + "".join(islice(pieces, _BATCH_PIECES - 1)))


def dump_document(doc: dict, path: str | os.PathLike) -> None:
    """Write a document as deterministic, human-diffable JSON, in batches of rows."""
    write_text(path, chain(_chunks(doc, ""), ("\n",)))


def dumps_document(doc: dict) -> str:
    """The exact text dump_document would write, as a string."""
    return "".join(_chunks(doc, "")) + "\n"
