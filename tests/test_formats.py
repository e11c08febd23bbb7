import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chordweave import cli
from chordweave.beats import (
    BeatGrid,
    beat_grid_from_dict,
    beat_grid_to_dict,
    read_beat_grid,
    write_beat_grid,
)
from chordweave.chords import (
    chord_sequence_from_dict,
    chord_sequence_to_dict,
    parse_progression,
    read_chord_sequence,
    write_chord_sequence,
)
from chordweave.chroma import (
    ChromaMatrix,
    chroma_matrix_from_dict,
    chroma_matrix_to_dict,
    read_matrix,
    render_matrix,
    write_matrix,
)
from chordweave.formats import (
    FormatError,
    as_numbers,
    decode,
    dump_document,
    dumps_document,
    load_document,
)
from chordweave.pipeline import (
    GenerationRequest,
    generation_request_from_dict,
    generation_request_to_dict,
    read_generation_request,
    write_generation_request,
)


def test_round_trip(tmp_path):
    doc = {"format": "chord-seq/v1", "bpm": 120.0, "events": []}
    path = tmp_path / "doc.json"
    dump_document(doc, path)
    assert decode(load_document(path), "chord-seq/v1", dict) == doc


def test_dump_ends_with_newline(tmp_path):
    path = tmp_path / "doc.json"
    dump_document({"format": "x/v1"}, path)
    assert path.read_bytes().endswith(b"\n")


def test_dumps_matches_dump(tmp_path):
    doc = {"format": "x/v1", "n": 3}
    path = tmp_path / "doc.json"
    dump_document(doc, path)
    assert path.read_text() == dumps_document(doc)


def test_format_tag_mismatch(tmp_path):
    path = tmp_path / "doc.json"
    dump_document({"format": "a/v1"}, path)
    with pytest.raises(FormatError):
        decode(load_document(path), "b/v1", dict)


def test_missing_format_tag(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"bpm": 1}))
    with pytest.raises(FormatError):
        decode(load_document(path), "a/v1", dict)


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[1, 2]")
    with pytest.raises(FormatError):
        load_document(path)


def test_invalid_json(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{nope")
    with pytest.raises(FormatError):
        load_document(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_document(tmp_path / "absent.json")


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_non_finite_constants(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text('{"format": "beat-grid/v1", "bpm": %s}' % text)
    with pytest.raises(FormatError):
        load_document(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_dump_refuses_non_finite(tmp_path, bad):
    with pytest.raises(ValueError):
        dumps_document({"format": "x/v1", "bpm": bad})
    with pytest.raises(ValueError):
        dump_document({"format": "x/v1", "bpm": bad}, tmp_path / "doc.json")


def test_decode_passes_nested_format_error_through():
    def build(doc):
        return decode(doc["inner"], "inner/v1", dict)

    with pytest.raises(FormatError, match="'other/v1', expected 'inner/v1'"):
        decode({"format": "outer/v1", "inner": {"format": "other/v1"}}, "outer/v1", build)


# One valid document of each type, and the reader and writer for it.

_SEQ = parse_progression("C:maj G:7,A:min7 N", bpm=96)
_MATRIX = render_matrix(_SEQ, 2.0)
_GRID = BeatGrid((0.0, 0.5, 1.0, 1.5, 2.0), (0.0, 2.0), 120.0)
_READERS = {
    "chord-seq": (chord_sequence_from_dict, chord_sequence_to_dict, _SEQ),
    "chroma-matrix": (chroma_matrix_from_dict, chroma_matrix_to_dict, _MATRIX),
    "beat-grid": (beat_grid_from_dict, beat_grid_to_dict, _GRID),
    "genreq": (
        generation_request_from_dict,
        generation_request_to_dict,
        GenerationRequest("p", 96.0, 10.0, _MATRIX),
    ),
}
_DELETE = object()


def _valid(kind: str) -> dict:
    _, to_dict, obj = _READERS[kind]
    return to_dict(obj)


def _replaced(doc, path, value):
    """A deep copy of doc with the field at path replaced, or deleted for _DELETE."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _field_paths(doc, prefix=()):
    """The path of every field of doc, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


_ROW = [0.0] * 12
# The number of frames a run may claim in a document of a few bytes:
# expanded, 96 TB, so a check made after the expansion fails at once.
_HUGE_COUNT = 10**12

_HOSTILE = [
    ("chord-seq", ("events", 0, "chord"), 5),
    ("chord-seq", ("events", 0, "start_s"), math.inf),
    ("chord-seq", ("events", 1), _DELETE),
    ("chord-seq", ("time_signature",), [4]),
    ("chord-seq", ("time_signature",), 4),
    ("chord-seq", ("bpm",), "x"),
    ("chord-seq", ("bpm",), math.nan),
    ("chord-seq", ("events",), _DELETE),
    ("chroma-matrix", ("frame_rate_hz",), "x"),
    ("chroma-matrix", ("frame_rate_hz",), math.inf),
    ("chroma-matrix", ("frames",), "x"),
    ("chroma-matrix", ("frames",), 10**400),
    ("chroma-matrix", ("frames",), _HUGE_COUNT),
    ("chroma-matrix", ("frames",), -1),
    ("chroma-matrix", ("runs", 1, 1), [0.0] * 11),
    ("chroma-matrix", ("runs", 0, 1), [_ROW]),
    ("chroma-matrix", ("runs",), "rows"),
    ("chroma-matrix", ("runs",), {"5": _ROW}),
    ("chroma-matrix", ("runs", 0, 1, 0), 10**400),
    ("chroma-matrix", ("runs", 0), [5]),
    ("chroma-matrix", ("runs", 1), [2, _ROW, 1]),
    ("chroma-matrix", ("runs", 2), "3"),
    ("chroma-matrix", ("runs", 0), {"count": 5, "row": _ROW}),
    ("chroma-matrix", ("runs", 0, 0), _HUGE_COUNT),
    ("chroma-matrix", ("runs", 0, 0), 10**400),
    ("chroma-matrix", ("runs", 0, 0), 4),
    ("chroma-matrix", ("runs",), [[_HUGE_COUNT, _ROW]]),
    # Counts that sum to the 15 frames, with one that is not a positive integer.
    ("chroma-matrix", ("runs",), [[0, _ROW], [15, _ROW]]),
    ("chroma-matrix", ("runs",), [[-_HUGE_COUNT, _ROW], [_HUGE_COUNT + 15, _ROW]]),
    ("chroma-matrix", ("runs",), [[2.5, _ROW], [12.5, _ROW]]),
    ("chroma-matrix", ("runs",), [[True, _ROW], [14, _ROW]]),
    ("beat-grid", ("bpm",), "x"),
    ("beat-grid", ("bpm",), math.nan),
    ("beat-grid", ("beats_s",), 5),
    ("beat-grid", ("beats_s", 4), math.inf),
    ("beat-grid", ("beats_per_bar",), None),
    ("beat-grid", ("downbeats_s",), _DELETE),
    ("genreq", ("chroma",), 5),
    ("genreq", ("chroma", "format"), "beat-grid/v1"),
    ("genreq", ("chroma", "runs", 0, 1), [0.0] * 13),
    ("genreq", ("chroma", "runs", 3, 0), _HUGE_COUNT),
    ("genreq", ("bpm",), [120.0]),
    ("genreq", ("duration_s",), -math.inf),
    ("genreq", ("prompt",), _DELETE),
    ("genreq", ("format",), "chroma-matrix/v1"),
]


def _case_id(kind, path, value):
    shown = "deleted" if value is _DELETE else repr(value)[:16]
    return f"{kind}:{'.'.join(map(str, path))}={shown}"


@pytest.mark.parametrize("kind, path, value", _HOSTILE, ids=[_case_id(*c) for c in _HOSTILE])
def test_hostile_field_raises_format_error(kind, path, value):
    from_dict = _READERS[kind][0]
    with pytest.raises(FormatError):
        from_dict(_replaced(_valid(kind), path, value))


# Fields of a wrong JSON type that a plain float(), int() or str() would
# coerce into a valid-looking object.
_MISTYPED = [
    ("genreq", ("prompt",), None),
    ("genreq", ("prompt",), 7),
    ("genreq", ("bpm",), True),
    ("genreq", ("bpm",), "96"),
    ("genreq", ("duration_s",), "10"),
    ("genreq", ("chroma", "runs", 0, 1, 0), "1"),
    ("chroma-matrix", ("runs", 0, 1, 0), "1"),
    ("chroma-matrix", ("runs", 0, 1), [True] * 12),
    ("chroma-matrix", ("runs", 0, 0), "5"),
    ("chroma-matrix", ("runs", 0, 0), None),
    ("chroma-matrix", ("frames",), _MATRIX.n_frames + 0.9),
    ("chroma-matrix", ("frames",), True),
    ("chroma-matrix", ("frame_rate_hz",), True),
    ("chord-seq", ("bpm",), True),
    ("chord-seq", ("time_signature",), [4.5, 4]),
    ("chord-seq", ("time_signature",), [4, 4.5]),
    ("chord-seq", ("time_signature",), ["4", 4]),
    ("chord-seq", ("events", 0, "start_s"), "0"),
    ("chord-seq", ("events", 0, "duration_s"), True),
    ("beat-grid", ("bpm",), True),
    ("beat-grid", ("beats_per_bar",), 4.5),
    ("beat-grid", ("beats_per_bar",), "4"),
    ("beat-grid", ("beats_s", 1), "0.5"),
    ("beat-grid", ("downbeats_s",), [[0.0], [2.0]]),
    # A boolean among numbers, where NumPy would read it as the 1.0 or 0.0 it replaces.
    ("chroma-matrix", ("runs", 0, 1, 0), True),
    ("chroma-matrix", ("runs", 0, 1, 1), False),
    ("genreq", ("chroma", "runs", 0, 1, 0), True),
    ("beat-grid", ("beats_s", 2), True),
    ("beat-grid", ("downbeats_s", 0), False),
]


@pytest.mark.parametrize("kind, path, value", _MISTYPED, ids=[_case_id(*c) for c in _MISTYPED])
def test_mistyped_field_raises_format_error(kind, path, value):
    from_dict = _READERS[kind][0]
    with pytest.raises(FormatError):
        from_dict(_replaced(_valid(kind), path, value))


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("chroma-matrix", ("frames",), float(_MATRIX.n_frames)),
        ("chord-seq", ("time_signature",), [4.0, 4]),
        ("beat-grid", ("beats_per_bar",), 4.0),
        ("genreq", ("bpm",), 96),
        ("chroma-matrix", ("runs", 0, 0), 5.0),
        ("chroma-matrix", ("runs", 3, 1), [0] * 12),
    ],
    ids=["frames", "time_signature", "beats_per_bar", "int-bpm", "run-count", "int-row"],
)
def test_integral_numbers_read_either_way(kind, path, value):
    from_dict, _, obj = _READERS[kind]
    assert from_dict(_replaced(_valid(kind), path, value)) == obj


def test_frames_past_max_frames_refused_before_expanding(monkeypatch):
    # Runs that agree with "frames": only the limit refuses them.
    doc = {**_valid("chroma-matrix"), "frames": _HUGE_COUNT, "runs": [[_HUGE_COUNT, _ROW]]}
    with pytest.raises(FormatError, match="outside"):
        chroma_matrix_from_dict(doc)
    valid = _valid("chroma-matrix")
    monkeypatch.setattr("chordweave.chroma.MAX_FRAMES", _MATRIX.n_frames)
    assert chroma_matrix_from_dict(valid) == _MATRIX
    monkeypatch.setattr("chordweave.chroma.MAX_FRAMES", _MATRIX.n_frames - 1)
    with pytest.raises(FormatError, match="outside"):
        chroma_matrix_from_dict(valid)
    # No document is written that the reader would refuse.
    with pytest.raises(ValueError, match="more than a document holds"):
        chroma_matrix_to_dict(_MATRIX)


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_reader_rejects_non_object(kind):
    with pytest.raises(FormatError):
        _READERS[kind][0]([_valid(kind)])


# Another version of each document's own kind: none is written, and none is read.
_OTHER_VERSIONS = {
    "chord-seq": "chord-seq/v2",
    "chroma-matrix": "chroma-matrix/v1",
    "beat-grid": "beat-grid/v2",
    "genreq": "genreq/v1",
}
# A field each document cannot do without.
_REQUIRED = {"chord-seq": "events", "chroma-matrix": "runs", "beat-grid": "beats_s", "genreq": "prompt"}


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_other_versions_refused_naming_the_written_tag(kind):
    # The body is the valid one, so only the tag refuses it.
    other, written = _OTHER_VERSIONS[kind], _valid(kind)["format"]
    with pytest.raises(FormatError) as refused:
        _READERS[kind][0]({**_valid(kind), "format": other})
    assert str(refused.value) == f"format tag {other!r}, expected {written!r}"


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_missing_field_names_the_written_tag(kind):
    field = _REQUIRED[kind]
    with pytest.raises(FormatError) as refused:
        _READERS[kind][0](_replaced(_valid(kind), (field,), _DELETE))
    assert str(refused.value) == f"invalid {_valid(kind)['format']} document: missing field {field!r}"


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


@st.composite
def _mutated_document(draw):
    kind = draw(st.sampled_from(sorted(_READERS)))
    path = draw(st.sampled_from(sorted(_field_paths(_valid(kind)), key=repr)))
    return kind, path, draw(_JSON_VALUES)


@settings(max_examples=300, deadline=None)
@given(_mutated_document())
@example(("chord-seq", ("events", 0, "chord"), 5))
@example(("genreq", ("chroma",), 5))
@example(("beat-grid", ("bpm",), 10**400))
@example(("chroma-matrix", ("runs", 0, 0), _HUGE_COUNT))
@example(("chroma-matrix", ("runs", 0, 1), [_HUGE_COUNT] * 12))
def test_mutated_documents_decode_valid_or_raise_format_error(case):
    kind, path, value = case
    from_dict, to_dict, obj = _READERS[kind]
    try:
        decoded = from_dict(_replaced(_valid(kind), path, value))
    except FormatError:
        return
    assert type(decoded) is type(obj)
    # What decodes writes back: it holds no value JSON cannot carry.
    dumps_document(to_dict(decoded))


# The writer against the standard library: documents are written exactly
# as json.dumps(doc, allow_nan=False) writes them.


def _stdlib(doc) -> str:
    return json.dumps(doc, allow_nan=False) + "\n"


def _assert_same_text(actual: str, expected: str) -> None:
    """Equal texts; a mismatch is shown where they part, not as a diff of megabytes."""
    if actual != expected:
        at = next((i for i, pair in enumerate(zip(actual, expected)) if pair[0] != pair[1]),
                  min(len(actual), len(expected)))
        start = max(at - 40, 0)
        pytest.fail(f"texts part at offset {at}: {actual[start:at + 40]!r} "
                    f"!= {expected[start:at + 40]!r}", pytrace=False)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 0.1]
)
_FLOAT_ROWS = st.lists(_FINITE | _FINITE.map(np.float64), max_size=16)
_STRINGS = st.text(max_size=8) | st.sampled_from(["é", "\x00\x1f", "\u2028", "\U0001f3b9", '"\\/'])
_SCALAR_VALUES = st.none() | st.booleans() | st.integers() | _FINITE | _STRINGS
_MIXED_ROWS = st.lists(_FINITE | _SCALAR_VALUES, max_size=8)
_KEYS = _STRINGS | st.integers() | _FINITE | st.booleans() | st.none()
_TREES = st.recursive(
    _SCALAR_VALUES | _FLOAT_ROWS | _MIXED_ROWS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(_KEYS, _TREES, max_size=4))
@example({})
@example({"rows": [[], [[]], {}, ()]})
@example({"row": [-0.0, 5e-324, 1e16, 0.1, np.float64(0.1)], "nested": [[0.5], [[1.5, 2.5]]]})
@example({"mixed": [0.5, 1, True, None, "s"], "tuple": (0.5, 1.5)})
@example({"equal rows": [[0.0], [-0.0], [1.0], [1], [True]]})
@example({"é\x00": "\u2028", 1: 2, 1.5: 3, True: 4, None: 5})
def test_documents_written_as_json_writes_them(tmp_path, doc):
    expected = _stdlib(doc)
    _assert_same_text(dumps_document(doc), expected)
    path = tmp_path / "doc.json"
    dump_document(doc, path)
    assert path.read_bytes() == expected.encode("utf-8")


_NON_FINITE_PLACES = {
    "top-level": lambda bad: {"x": bad},
    "float-row": lambda bad: {"x": [0.5, bad, 1.5]},
    "mixed-row": lambda bad: {"x": [1, bad, "s"]},
    "two-deep": lambda bad: {"x": {"y": [[0.5, bad]]}},
    "key": lambda bad: {bad: 0.5},
}


@pytest.mark.parametrize("place", sorted(_NON_FINITE_PLACES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_anywhere_raises_value_error(tmp_path, place, bad):
    doc = _NON_FINITE_PLACES[place](bad)
    with pytest.raises(ValueError):
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        dumps_document(doc)
    with pytest.raises(ValueError):
        dump_document(doc, tmp_path / "doc.json")


@pytest.mark.parametrize("key", [(1,), frozenset(), b"k"], ids=["tuple", "frozenset", "bytes"])
def test_unencodable_key_raises_type_error(key):
    with pytest.raises(TypeError):
        json.dumps({key: 1}, indent=2)
    with pytest.raises(TypeError):
        dumps_document({key: 1})


@pytest.mark.parametrize(
    "value",
    [{1, 2}, np.int64(3), [np.int64(3)], np.zeros(2)],
    ids=["set", "int64", "int64-row", "ndarray"],
)
def test_unencodable_value_raises_type_error(value):
    with pytest.raises(TypeError):
        json.dumps({"x": value}, indent=2)
    with pytest.raises(TypeError):
        dumps_document({"x": value})


# 240 s at 50 Hz: the size of a real-length request.
_LONG_SEQ = parse_progression(" ".join(["C:maj G:7/B,A:min7 N", "F:maj7 D:min/F,E:7"] * 24), bpm=120)
_LONG_MATRIX = render_matrix(_LONG_SEQ, 50.0)
_LONG_REQUEST = GenerationRequest("laid-back jazz trio", 120.0, _LONG_SEQ.duration_s, _LONG_MATRIX)


_RNG = np.random.default_rng(11)
_LONG_WRITERS = {
    "genreq": (write_generation_request, generation_request_to_dict, _LONG_REQUEST),
    "chroma-matrix": (
        write_matrix,
        chroma_matrix_to_dict,
        ChromaMatrix(_RNG.random((12_000, 12)) * np.array([0.0, 1e-300, 1e16] + [1.0] * 9), 50.0),
    ),
    "chord-seq": (write_chord_sequence, chord_sequence_to_dict, _LONG_SEQ),
    "beat-grid": (
        write_beat_grid,
        beat_grid_to_dict,
        BeatGrid(tuple(np.arange(480) * 0.5 + 0.013), tuple(np.arange(120) * 2.0 + 0.013), 120.0),
    ),
}


@pytest.mark.parametrize("kind", sorted(_LONG_WRITERS))
def test_long_document_writers_match_json(tmp_path, kind):
    write, to_dict, obj = _LONG_WRITERS[kind]
    path = tmp_path / "doc.json"
    write(obj, path)
    text = path.read_bytes().decode("ascii")
    _assert_same_text(text, _stdlib(to_dict(obj)))


def test_writer_does_not_fall_back_to_the_pure_python_encoder(monkeypatch):
    doc = generation_request_to_dict(_LONG_REQUEST)
    expected = _stdlib(doc)

    def refused(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    _assert_same_text(dumps_document(doc), expected)


def test_cli_stdout_matches_json(capsys):
    doc = chroma_matrix_to_dict(_LONG_MATRIX)
    cli._emit_json(doc, None)
    _assert_same_text(capsys.readouterr().out, _stdlib(doc))


def test_request_rows_encoded_once_per_run(tmp_path):
    values = _LONG_MATRIX.values
    runs = 1 + np.count_nonzero(np.any(values[1:] != values[:-1], axis=1))
    assert runs < _LONG_MATRIX.n_frames // 10
    path = tmp_path / "request.json"
    write_generation_request(_LONG_REQUEST, path)
    written = json.loads(path.read_text())["chroma"]["runs"]
    assert len(written) == runs
    assert sum(count for count, _ in written) == _LONG_MATRIX.n_frames
    # One row's text per run: the compact file is about 70 bytes a run, so a
    # writer that wrote each run's row twice would pass 100 a run.
    assert path.stat().st_size < runs * 100


# The reader against the standard library: load_document gives what
# json.loads gives, type for type, or raises FormatError.

_READ = {
    "chord-seq": read_chord_sequence,
    "chroma-matrix": read_matrix,
    "beat-grid": read_beat_grid,
    "genreq": read_generation_request,
}


@pytest.mark.parametrize("kind", sorted(_READ))
def test_undecodable_bytes_raise_format_error(tmp_path, kind):
    path = tmp_path / "doc.json"
    path.write_bytes(dumps_document(_valid(kind)).encode("ascii").replace(b"/v", b"/v\xff", 1))
    with pytest.raises(FormatError, match="not UTF-8"):
        _READ[kind](path)


_DEEP = "[" * 100_000 + "]" * 100_000


def test_deep_nesting_raises_format_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    with pytest.raises(FormatError, match="nested too deeply"):
        load_document(path)
    # The same depth inside a request.
    text = dumps_document(_valid("genreq"))
    text = text[: -len("\n}\n")] + ',\n  "deep": ' + _DEEP + "\n}\n"
    path.write_text(text)
    with pytest.raises(FormatError, match="nested too deeply"):
        load_document(path)


# An integer literal past the interpreter's int() digit limit (4,300 by
# default).  An interpreter without the limit reads it, and its float()
# overflows instead, so only the exception type is checked.
_HUGE_INTEGER = "1" * 5000
_SCALAR_FIELDS = {"chord-seq": "bpm", "chroma-matrix": "frame_rate_hz", "beat-grid": "bpm", "genreq": "bpm"}


@pytest.mark.parametrize("kind", sorted(_READ))
def test_huge_integer_raises_format_error(tmp_path, kind):
    path = tmp_path / "doc.json"
    doc = _replaced(_valid(kind), (_SCALAR_FIELDS[kind],), "huge")
    path.write_text(dumps_document(doc).replace('"huge"', _HUGE_INTEGER))
    with pytest.raises(FormatError):
        _READ[kind](path)


def test_huge_integer_in_a_shared_row_raises_format_error(tmp_path):
    path = tmp_path / "request.json"
    write_generation_request(_LONG_REQUEST, path)
    text = path.read_text()
    # The first item of the first run's row, which stands for all the run's frames.
    at = text.index("1.0", text.index('"runs"'))
    path.write_text(text[:at] + _HUGE_INTEGER + text[at + len("1.0"):])
    with pytest.raises(FormatError):
        read_generation_request(path)


def _typed(value):
    """value as a tree that tells int from float, 0.0 from -0.0, and keeps key order."""
    if isinstance(value, dict):
        return "dict", [(key, _typed(item)) for key, item in value.items()]
    if isinstance(value, list):
        return "list", [_typed(item) for item in value]
    return type(value).__name__, repr(value)


def _outcome(path):
    try:
        return "value", _typed(load_document(path))
    except FormatError as exc:
        return "error", str(exc)


# Items whose rows must not merge: 0.0 and -0.0, 1 and 1.0.
_ROW_ITEMS = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 0.1, 1.0, 1, 0, -3])
_SENTINEL = "@@"
# Text put in place of one row item: literals, strings with brackets, a third level.
_ITEM_TEXTS = ["true", "null", "NaN", "Infinity", "-Infinity", '"]["', '"x\\n],\\n[y"', "[1.0]", "{}"]
_DUPLICATES = ["[]", "[[1.5], [1.5]]", "[\n    [\n      2.5\n    ],\n    [\n      2.5\n    ]\n  ]"]
_TAILS = ["x", "]", "}", "NaN", " ", "\n\n", "{}", '"s"', ","]


@st.composite
def _document_text(draw):
    """The text of a document dump_document wrote, then perhaps mutated."""
    pool = draw(st.lists(st.lists(_ROW_ITEMS, min_size=1, max_size=12), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 8)),
                          min_size=1, max_size=8))
    runs = [[count, pool[i]] for i, count in picks]
    frames = sum(count for _, count in picks)
    mutation = draw(st.sampled_from(
        ["none", "compact", "indent", "item", "twin", "third-level", "duplicate", "trailing",
         "quoted", "splice"]
    ))
    if mutation == "item":
        at = draw(st.integers(0, len(runs) - 1))
        runs[at] = [runs[at][0], [_SENTINEL, *runs[at][1][1:]]]
    elif mutation == "third-level":
        at = draw(st.integers(0, len(runs)))
        runs = [runs[:at], runs[at:]]
    chroma = {"format": "chroma-matrix/v2", "frame_rate_hz": 50.0, "frames": frames, "runs": runs}
    if mutation == "twin":
        chroma = {"twin": runs, **chroma} if draw(st.booleans()) else {**chroma, "twin": runs}
    doc = chroma
    if draw(st.booleans()):
        prompt = draw(st.sampled_from(["piano", "NaN", "-Infinity", "[\n]", "],["]))
        doc = {"format": "genreq/v2", "prompt": prompt, "bpm": 120.0, "duration_s": 1.0,
               "chroma": chroma}
    text = dumps_document(doc)
    if mutation == "compact":
        text = json.dumps(doc, separators=(",", ":"))
    elif mutation == "indent":
        text = json.dumps(doc, indent=draw(st.sampled_from([0, 1, 4, "\t"])))
    elif mutation == "item":
        text = text.replace(f'"{_SENTINEL}"', draw(st.sampled_from(_ITEM_TEXTS)))
    elif mutation == "duplicate":
        extra = draw(st.sampled_from(_DUPLICATES))
        if draw(st.booleans()):
            text = text.replace('"runs": ', '"runs": ' + extra + ',\n  "runs": ', 1)
        else:
            last = text.rindex("]") + 1
            text = text[:last] + ',\n  "runs": ' + extra + text[last:]
    elif mutation == "trailing":
        text += draw(st.sampled_from(_TAILS))
    elif mutation == "quoted":
        text = text.replace('"runs": [', '"runs": "[', 1)
        last = text.rindex("]") + 1
        text = text[:last] + '"' + text[last:]
    elif mutation == "splice":
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(st.text(" \n[]{},:\"-.0eNa", max_size=3)) + text[end:]
    return text


def _rows_text(*items):
    """Runs of six one-item rows, laid out as json.dumps(indent=2) lays out rows one level down."""
    rows = [item for item in items for _ in range(6)]
    return "[\n  [\n    " + "\n  ],\n  [\n    ".join(rows) + "\n  ]\n]"


def _no_constant(name):
    raise ValueError(name)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_document_text())
@example('{"data": ' + _rows_text("0.0", "-0.0", "0", "0.0") + '}\n')
@example('{"a": "' + _rows_text("1") + '"}')
@example('{"a": ' + _rows_text("1", "2") + ', "b": NaN}')
@example(_rows_text("1", "2", "1"))
@example(_rows_text("1", "1e999"))
@example('{"a": {[\n  1\n  ],\n  [\n  2\n  ]\n]}')
def test_load_document_reads_as_json_loads(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    try:
        expected = json.loads(text, parse_constant=_no_constant)
    except ValueError:
        expected = None
    if isinstance(expected, dict):
        assert _outcome(path) == ("value", _typed(expected))
    else:
        assert _outcome(path)[0] == "error"


# The text between two rows of a written document, inside a prompt.
_ROW_BREAK_PROMPT = "x\n      ],\n      [\ny"


def test_row_break_inside_the_prompt_leaves_the_request_unchanged(tmp_path):
    request = GenerationRequest(
        _ROW_BREAK_PROMPT, 120.0, 0.36, ChromaMatrix(np.repeat(np.eye(12)[:3], 6, axis=0), 50.0)
    )
    path = tmp_path / "request.json"
    write_generation_request(request, path)
    # A string holds the break's newlines escaped, so only the rows match it.
    assert _ROW_BREAK_PROMPT.replace("\n", "\\n") in path.read_text()
    assert read_generation_request(path) == request


# as_numbers on rows that are one and the same list object.


def test_as_numbers_checks_shared_rows():
    flagged, ints = [0.5, True], [1, 2]
    with pytest.raises(TypeError, match="boolean"):
        as_numbers([flagged] * 3)
    with pytest.raises(TypeError, match="boolean"):
        as_numbers([[0.5, 0.5], flagged, flagged])
    assert as_numbers([ints] * 3).tolist() == [[1.0, 2.0]] * 3
    row = [0.0, 1.0]
    with pytest.raises(ValueError):
        as_numbers([row, row, [0.0], [0.0]])
    with pytest.raises(ValueError):
        as_numbers([[0.0], row, row])


def test_as_numbers_ragged_shared_rows_fail_as_numpy_does():
    row = [0.0, 1.0]
    values = [row, row, row, [0.0]]
    with pytest.raises(ValueError) as expected:
        np.array(values)
    with pytest.raises(ValueError) as actual:
        as_numbers(values)
    assert str(actual.value) == str(expected.value)


_POOL = st.lists(st.lists(_ROW_ITEMS, min_size=2, max_size=2), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_POOL, st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4), st.booleans()), min_size=1))
@example([[0.0, 1.0], [-0.0, 1.0]], [(0, 2, False), (1, 2, False), (0, 1, True)])
@example([[1, 2], [1.0, 2.0]], [(0, 3, False), (1, 3, False)])
def test_as_numbers_on_shared_rows_matches_numpy(pool, runs):
    # A run's rows are one list object, or, with the flag, equal copies.
    values = [
        list(pool[i % len(pool)]) if copy_rows else pool[i % len(pool)]
        for i, length, copy_rows in runs
        for _ in range(length)
    ]
    expected = np.array(values).astype(np.float64)
    actual = as_numbers(values)
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()
