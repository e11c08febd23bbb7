import json

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from chordweave.analysis import compute_chromagram, melody_one_hot
from chordweave.audio import AudioBuffer
from chordweave.beats import OnsetEnvelope
from chordweave.chords import (
    NO_CHORD,
    QUALITIES,
    Chord,
    ChordEvent,
    ChordSequence,
    parse_chord_symbol,
    parse_progression,
)
from chordweave.chroma import (
    CSV_BIN_LABELS,
    MAX_FRAMES,
    ChromaMatrix,
    chord_to_chroma,
    chroma_matrix_from_dict,
    chroma_matrix_to_dict,
    read_matrix,
    render_matrix,
    write_matrix,
    write_matrix_csv,
)
from chordweave.formats import FormatError
from chordweave.pipeline import (
    GenerationRequest,
    generation_request_to_dict,
    read_generation_request,
    write_generation_request,
)
from chordweave.synth import chord_tones


def test_chord_to_chroma_is_multi_hot():
    vec = chord_to_chroma(parse_chord_symbol("Eb:maj"))
    assert vec.shape == (12,)
    assert set(np.flatnonzero(vec)) == {3, 7, 10}
    assert set(np.unique(vec)) <= {0.0, 1.0}


def test_no_chord_renders_silent():
    assert not chord_to_chroma(parse_chord_symbol("N")).any()


def test_render_frame_count_rounds():
    seq = parse_progression("C:maj G:maj", bpm=120)
    assert render_matrix(seq, 50.0).n_frames == 200
    assert render_matrix(seq, 10.0).n_frames == 40


def test_render_samples_frame_centers():
    seq = parse_progression("C:maj G:maj", bpm=120)
    mat = render_matrix(seq, 50.0)
    values = np.asarray(mat.values)
    # boundary at 2.0 s: frame 99 centers at 1.99, frame 100 at 2.01
    assert set(np.flatnonzero(values[99])) == {0, 4, 7}
    assert set(np.flatnonzero(values[100])) == {2, 7, 11}


def test_render_beyond_sequence_is_silent():
    seq = parse_progression("N C:maj", bpm=120)
    values = np.asarray(render_matrix(seq, 50.0).values)
    assert not values[:100].any()
    assert values[100:].any()


def test_matrix_validation():
    with pytest.raises(ValueError):
        ChromaMatrix(np.ones((4, 11)), 50.0)
    with pytest.raises(ValueError):
        ChromaMatrix(np.full((4, 12), -0.5), 50.0)
    with pytest.raises(ValueError):
        ChromaMatrix(np.ones((4, 12)), 0.0)
    seq = parse_progression("C:maj", bpm=120)
    for bad in (np.nan, np.inf, -np.inf, True):
        with pytest.raises(ValueError):
            ChromaMatrix(np.ones((4, 12)), bad)
        with pytest.raises(ValueError):
            render_matrix(seq, bad)


def test_render_refuses_more_frames_than_a_document_holds():
    # Refused before the rows are made: no document could hold them.
    seq = ChordSequence((ChordEvent(Chord(0), 0.0, (MAX_FRAMES + 1) / 50.0),), 120.0)
    with pytest.raises(ValueError, match="more than a document holds"):
        render_matrix(seq, 50.0)


def _array(instance):
    return instance.samples if isinstance(instance, AudioBuffer) else instance.values


def _assert_sealed(instance):
    array = _array(instance)
    assert array.dtype == np.float64 and array.flags.c_contiguous
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[...] = 1.0


# A valid array and rate for each type that holds a sealed array.
_SEALED = {
    AudioBuffer: (np.zeros((2, 8)), 8000),
    ChromaMatrix: (np.zeros((4, 12)), 50.0),
    OnsetEnvelope: (np.zeros(8), 86.0),
}


@pytest.mark.parametrize("cls", list(_SEALED), ids=lambda cls: cls.__name__)
def test_sealed_array_contract(cls):
    """The constructor seals a copy, _adopt seals the array it is given, and
    == between two types is NotImplemented."""
    array, rate = _SEALED[cls]
    given = array.copy()
    built = cls(given, rate)
    _assert_sealed(built)
    given[0] = 1.0
    assert not _array(built).any() and not np.shares_memory(_array(built), given)
    adopted = cls._adopt(given, rate)
    assert _array(adopted) is given and not given.flags.writeable
    _assert_sealed(adopted)
    assert adopted != built and built == cls(array, rate)
    other = next(c for c in _SEALED if c is not cls)
    assert built.__eq__(other(*_SEALED[other])) is NotImplemented
    assert built != other(*_SEALED[other])


def test_matrix_values_read_only():
    mat = ChromaMatrix(np.zeros((4, 12)), 50.0)
    with pytest.raises(ValueError):
        np.asarray(mat.values)[0, 0] = 1.0


def test_public_constructor_copies():
    values = np.zeros((4, 12))
    matrix = ChromaMatrix(values, 50.0)
    values[0, 0] = 1.0
    assert not matrix.values.any() and not np.shares_memory(matrix.values, values)


def test_package_built_matrices_are_read_only(tmp_path):
    rendered = render_matrix(parse_progression("C:maj G:7/B N", bpm=120), 50.0)
    _assert_sealed(rendered)
    write_matrix(rendered, tmp_path / "m.json")
    _assert_sealed(read_matrix(tmp_path / "m.json"))
    write_generation_request(GenerationRequest("p", 120.0, 6.0, rendered), tmp_path / "r.json")
    _assert_sealed(read_generation_request(tmp_path / "r.json").chroma)
    chromagram = compute_chromagram(chord_tones([0, 4, 7], 1.0, 22050))
    _assert_sealed(chromagram)
    _assert_sealed(melody_one_hot(chromagram))


@pytest.mark.parametrize(
    "cls, values, rate",
    [
        (ChromaMatrix, np.full((4, 12), np.nan), 50.0),
        (ChromaMatrix, np.full((4, 12), -0.5), 50.0),
        (ChromaMatrix, np.ones((4, 11)), 50.0),
        (ChromaMatrix, np.ones((4, 12)), 0.0),
        (ChromaMatrix, np.ones((4, 12)), np.nan),
        (ChromaMatrix, np.ones((4, 12)), True),
        (AudioBuffer, np.zeros((2, 2, 2)), 8000),
        (AudioBuffer, np.zeros((0, 8)), 8000),
        (AudioBuffer, np.zeros(8), 0),
        (AudioBuffer, np.zeros(8), 8000.0),
        (AudioBuffer, np.zeros(8), True),
        (OnsetEnvelope, np.zeros((2, 8)), 86.0),
        (OnsetEnvelope, np.full(8, np.nan), 86.0),
        (OnsetEnvelope, np.full(8, -0.5), 86.0),
        (OnsetEnvelope, np.zeros(8), 0.0),
        (OnsetEnvelope, np.zeros(8), np.nan),
        (OnsetEnvelope, np.zeros(8), np.inf),
        (OnsetEnvelope, np.zeros(8), True),
    ],
    ids=[
        "nan", "negative", "4x11", "rate-0", "rate-nan", "rate-True",
        "audio-3d", "audio-no-channel", "audio-rate-0", "audio-rate-float", "audio-rate-True",
        "onset-2d", "onset-nan", "onset-negative", "onset-rate-0", "onset-rate-nan",
        "onset-rate-inf", "onset-rate-True",
    ],
)
def test_adopt_refuses_what_the_constructor_refuses(cls, values, rate):
    with pytest.raises(ValueError):
        cls(values.copy(), rate)
    with pytest.raises(ValueError):
        cls._adopt(values, rate)


def test_frame_time_centers():
    mat = ChromaMatrix(np.zeros((4, 12)), 50.0)
    assert mat.duration_s == pytest.approx(0.08)


def test_serialization_round_trip(tmp_path):
    seq = parse_progression("C:maj G:7 N", bpm=100)
    mat = render_matrix(seq, 25.0)
    path = tmp_path / "chroma.json"
    write_matrix(mat, path)
    again = read_matrix(path)
    assert again == mat
    assert again.frame_rate_hz == mat.frame_rate_hz


def test_dict_shape():
    mat = render_matrix(parse_progression("C:maj", bpm=120), 50.0)
    doc = chroma_matrix_to_dict(mat)
    assert doc["format"] == "chroma-matrix/v2"
    assert doc["frames"] == 100
    assert doc["runs"] == [[100, mat.values[0].tolist()]]
    assert doc["runs"][0][1] == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_from_dict_rejects_frame_count_mismatch():
    doc = {
        "format": "chroma-matrix/v2",
        "frame_rate_hz": 50.0,
        "frames": 3,
        "runs": [[2, [0.0] * 12]],
    }
    with pytest.raises(FormatError, match="summing to 3 frames"):
        chroma_matrix_from_dict(doc)


def test_csv_header_and_rows(tmp_path):
    mat = render_matrix(parse_progression("C:maj", bpm=120), 10.0)
    path = tmp_path / "chroma.csv"
    write_matrix_csv(mat, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_BIN_LABELS)
    assert lines[0] == "c,cs,d,eb,e,f,fs,g,ab,a,bb,b"
    assert len(lines) == 1 + mat.n_frames


@given(st.sampled_from(sorted(QUALITIES)), st.integers(0, 11))
def test_chroma_matches_pitch_classes(name, root):
    chord = Chord(root, name)
    vec = chord_to_chroma(chord)
    assert set(np.flatnonzero(vec)) == chord.pitch_classes()


@st.composite
def _sequences(draw):
    """Contiguous chord sequences from an arbitrary start, rests included."""
    chords = st.one_of(
        st.just(NO_CHORD),
        st.builds(
            Chord,
            st.integers(0, 11),
            st.sampled_from(sorted(QUALITIES)),
            st.one_of(st.none(), st.integers(0, 11)),
        ),
    )
    t = draw(st.sampled_from([0.0, 0.01, 0.37, 2.0]))
    events = []
    for chord, duration in draw(
        st.lists(st.tuples(chords, st.floats(0.005, 3.0)), min_size=0, max_size=12)
    ):
        events.append(ChordEvent(chord, t, duration))
        t = events[-1].end_s
    return ChordSequence(tuple(events), 120.0)


@given(_sequences(), st.sampled_from([1.0, 7.3, 50.0, 86.1328125, 200.0]))
# 0.23 s at 50 Hz rounds up to 12 frames; the last one centres on the end.
@example(ChordSequence((ChordEvent(Chord(0, "maj"), 0.0, 0.23),), 120.0), 50.0)
def test_render_matches_per_frame_chord_at(seq, rate):
    """Reference: every frame centre looked up with ChordSequence.chord_at."""
    n_frames = int(round(seq.duration_s * rate))
    expected = np.zeros((n_frames, 12))
    for k in range(n_frames):
        chord = seq.chord_at((k + 0.5) / rate)
        if chord is not None and not chord.is_no_chord:
            expected[k] = chord_to_chroma(chord)
    assert np.array_equal(render_matrix(seq, rate).values, expected)


def _reference_runs(matrix: ChromaMatrix) -> list:
    """Reference: [count, row] runs built one frame and one Python float at a time."""
    runs = []
    for row in matrix.values:
        row = [float(v) for v in row]
        if runs and list(map(repr, runs[-1][1])) == list(map(repr, row)):
            runs[-1][0] += 1
        else:
            runs.append([1, row])
    return runs


@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_dict_data_encodes_as_per_float_rows(seed, frames):
    rng = np.random.default_rng(seed)
    values = rng.random((frames, 12)) * rng.choice([0.0, 1.0, 1e-300, 7.0], (frames, 12))
    values[rng.random((frames, 12)) < 0.2] = -0.0
    values[0, 0] = -0.0
    # Runs of up to three frames.
    values = np.repeat(values, rng.integers(1, 4, frames), axis=0)
    matrix = ChromaMatrix(values, 50.0)
    reference = {**chroma_matrix_to_dict(matrix), "runs": _reference_runs(matrix)}
    encoded = json.dumps(chroma_matrix_to_dict(matrix))
    assert encoded == json.dumps(reference)
    assert ", [-0.0, " in encoded


def _reference_csv(matrix: ChromaMatrix) -> str:
    """Reference: the CSV export built one repr(float(v)) per value."""
    lines = [",".join(CSV_BIN_LABELS)]
    for row in matrix.values:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


_SIGNED_ZERO_ROWS = ChromaMatrix(np.array([[0.0] * 12, [0.0] * 12, [-0.0] * 12, [0.0] * 12]), 50.0)
_EXTREME_ROWS = ChromaMatrix(
    np.array([[0.0] * 12, [-0.0] * 12, [-0.0] * 12, [5e-324] * 6 + [1e16] * 6, [0.0] * 12]), 50.0
)


@st.composite
def _repeated_rows(draw):
    """A matrix made of runs of a few rows drawn from zeros of both signs and extreme floats."""
    values = st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0, 1e16])
    rows = draw(st.lists(st.lists(values, min_size=12, max_size=12), min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(1, 6)), max_size=10))
    frames = [rows[i] for i, count in runs for _ in range(count)]
    return ChromaMatrix(np.array(frames, dtype=np.float64).reshape(-1, 12), 50.0)


@given(_repeated_rows())
@example(_EXTREME_ROWS)
def test_csv_matches_per_value_reference(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "chroma.csv"
    write_matrix_csv(matrix, path)
    assert path.read_bytes() == _reference_csv(matrix).encode("ascii")


@settings(max_examples=300)
@given(_repeated_rows())
@example(_SIGNED_ZERO_ROWS)
def test_shared_rows_are_the_matrix_rows(matrix):
    # A run's one row stands for each of its frames; rows that differ
    # only in a zero's sign are separate runs, as the reference keeps them.
    runs = chroma_matrix_to_dict(matrix)["runs"]
    assert json.dumps(runs) == json.dumps(_reference_runs(matrix))
    frames = [row for count, row in runs for _ in range(count)]
    assert [list(map(repr, row)) for row in frames] == [
        list(map(repr, row)) for row in matrix.values.tolist()
    ]


@settings(max_examples=300)
@given(_repeated_rows())
@example(_SIGNED_ZERO_ROWS)
@example(_EXTREME_ROWS)
def test_runs_read_back_bit_for_bit(tmp_path_factory, matrix):
    # ChromaMatrix equality holds -0.0 equal to 0.0; the bytes do not.
    path = tmp_path_factory.mktemp("json") / "chroma.json"
    write_matrix(matrix, path)
    assert read_matrix(path).values.tobytes() == matrix.values.tobytes()
    request = GenerationRequest("p", 96.0, 10.0, matrix)
    write_generation_request(request, path)
    assert read_generation_request(path).chroma.values.tobytes() == matrix.values.tobytes()
    # The live request body, request_generation's compact json.dumps.
    body = json.loads(json.dumps(generation_request_to_dict(request)))
    assert chroma_matrix_from_dict(body["chroma"]).values.tobytes() == matrix.values.tobytes()


def test_csv_of_many_batches_matches_per_value_reference(tmp_path):
    # More lines than one batch of writes holds, in runs of one to three frames.
    values = np.repeat(np.random.default_rng(5).random((300, 12)), [1, 2, 3] * 100, axis=0)
    for matrix in (ChromaMatrix(values, 50.0), ChromaMatrix(np.zeros((0, 12)), 50.0)):
        path = tmp_path / "chroma.csv"
        write_matrix_csv(matrix, path)
        assert path.read_bytes() == _reference_csv(matrix).encode("ascii")


def test_zero_frame_matrix_round_trips(tmp_path):
    empty = ChromaMatrix(np.zeros((0, 12)), 50.0)
    doc = chroma_matrix_to_dict(empty)
    assert doc["frames"] == 0 and doc["runs"] == []
    assert chroma_matrix_from_dict(doc) == empty
    path = tmp_path / "chroma.json"
    write_matrix(empty, path)
    assert read_matrix(path) == empty
    # The chroma inside a request: one bar at 30,000 BPM is 0.4 frames.
    request = GenerationRequest("p", 30000.0, 0.008, empty)
    path = tmp_path / "request.json"
    write_generation_request(request, path)
    assert read_generation_request(path).chroma == empty


def test_zero_frame_document_reads(tmp_path):
    doc = {"format": "chroma-matrix/v2", "frame_rate_hz": 50.0, "frames": 0, "runs": []}
    path = tmp_path / "chroma.json"
    path.write_text(json.dumps(doc, indent=2))
    assert read_matrix(path) == ChromaMatrix(np.zeros((0, 12)), 50.0)


@pytest.mark.parametrize("frames, runs", [(1, []), (0, [[1, []]]), (0, [[1, [0.0] * 12]])])
def test_empty_runs_read_as_zero_frames_only(frames, runs):
    doc = {"format": "chroma-matrix/v2", "frame_rate_hz": 50.0, "frames": frames, "runs": runs}
    with pytest.raises(FormatError):
        chroma_matrix_from_dict(doc)


def test_v2_rows_read_signed_zeros_and_integers_exactly(tmp_path):
    # Written by hand: integer items read as the floats they name, and
    # -0.0 keeps its sign, in runs whose rows are equal as numbers.
    text = (
        '{"format": "chroma-matrix/v2", "frame_rate_hz": 50, "frames": 6, "runs": '
        "[[2, [-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]], "
        "[1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]], "
        "[3, [1, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1, 0.0, 0.0, 0.0, 0.0]]]}"
    )
    path = tmp_path / "chroma.json"
    path.write_text(text)
    matrix = read_matrix(path)
    expected = np.zeros((6, 12))
    expected[:2, 0] = -0.0
    expected[3:, [0, 4, 7]] = 1.0
    assert matrix.values.tobytes() == expected.tobytes()
    assert matrix.frame_rate_hz == 50.0
    assert chroma_matrix_to_dict(matrix)["runs"] == [
        [2, expected[0].tolist()], [1, expected[2].tolist()], [3, expected[3].tolist()]
    ]
