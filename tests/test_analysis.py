import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chordweave.analysis import (
    ChromagramConfig,
    RecognitionConfig,
    _templates,
    compute_chromagram,
    melody_one_hot,
    recognize_chords,
)
from chordweave.audio import AudioBuffer, to_mono
from chordweave.chords import NO_CHORD, QUALITIES, Chord, parse_progression
from chordweave.chroma import ChromaMatrix, chord_to_chroma, render_matrix
from chordweave.synth import chord_tones, concat, silence, sine


def test_chromagram_locates_pure_tone():
    mat = compute_chromagram(sine(440.0, 1.0, 44100))
    values = np.asarray(mat.values)
    assert values.shape[1] == 12
    assert (np.argmax(values, axis=1) == 9).all()


def test_chromagram_folds_octaves():
    low = compute_chromagram(sine(220.0, 1.0, 44100))
    high = compute_chromagram(sine(880.0, 1.0, 44100))
    assert (np.argmax(np.asarray(low.values), axis=1) == 9).all()
    assert (np.argmax(np.asarray(high.values), axis=1) == 9).all()


def test_chromagram_triad_bins_dominate():
    buf = chord_tones([0, 4, 7], 2.0, 44100)
    values = np.asarray(compute_chromagram(buf).values)
    mean = values.mean(axis=0)
    assert set(np.argsort(mean)[-3:]) == {0, 4, 7}


def test_chromagram_max_normalization_peaks_at_one():
    values = np.asarray(compute_chromagram(sine(440.0, 0.5, 44100)).values)
    assert values.max() == pytest.approx(1.0)
    assert values.min() >= 0.0


def test_chromagram_config_validation():
    with pytest.raises(ValueError):
        ChromagramConfig(normalization="softmax")
    with pytest.raises(ValueError):
        ChromagramConfig(normalization="l2")


def test_chromagram_requires_mono():
    with pytest.raises(ValueError):
        compute_chromagram(AudioBuffer(np.zeros((2, 8192)), 44100))


def test_melody_one_hot_rows():
    seq = parse_progression("C:maj", bpm=120)
    mat = render_matrix(seq, 10.0)
    hot = melody_one_hot(mat)
    values = np.asarray(hot.values)
    assert ((values.sum(axis=1) == 1.0) | (values.sum(axis=1) == 0.0)).all()
    assert (values.sum(axis=1) == 1.0).all()


def test_melody_one_hot_silence_floor():
    rows = np.vstack([np.full(12, 1e-6), np.eye(12)[4] * 0.8])
    hot = melody_one_hot(ChromaMatrix(rows, 50.0))
    values = np.asarray(hot.values)
    assert not values[0].any()
    assert np.flatnonzero(values[1]) == [4]


@pytest.mark.parametrize("floor", [np.nan, np.inf, -np.inf])
def test_melody_one_hot_refuses_a_floor_that_is_not_finite(floor):
    # Against NaN every frame reads silent, and the melody comes back empty.
    with pytest.raises(ValueError, match="silence_floor"):
        melody_one_hot(ChromaMatrix(np.eye(12), 50.0), floor)


def test_template_bank_layout():
    chords, vectors = _templates(("maj", "min"))
    assert len(chords) == 25 and vectors.shape == (25, 12)
    maj, minor = QUALITIES["maj"], QUALITIES["min"]
    assert chords[:3] == (Chord(0, maj), Chord(0, minor), Chord(1, maj))
    assert chords[-1] == NO_CHORD
    assert np.array_equal(vectors[2] > 0, chord_to_chroma(chords[2]) > 0)
    norms = np.linalg.norm(vectors, axis=1)
    assert np.allclose(norms, 1.0)


def test_recognition_config_validation():
    with pytest.raises(ValueError):
        RecognitionConfig(confidence_threshold=1.5)
    with pytest.raises(ValueError):
        RecognitionConfig(quality_names=())


def test_recognizes_single_triad():
    buf = chord_tones([0, 4, 7], 3.0, 44100)
    seq = recognize_chords(compute_chromagram(buf), bpm=120.0)
    assert len(seq.events) == 1
    assert seq.events[0].chord.pitch_classes() == {0, 4, 7}


def test_recognizes_silence_as_no_chord():
    buf = silence(2.0, 44100)
    seq = recognize_chords(compute_chromagram(buf), bpm=120.0)
    assert len(seq.events) == 1
    assert seq.events[0].chord.is_no_chord


def test_boundary_within_two_hops():
    prog = parse_progression("C:maj G:maj", bpm=120)
    buf = concat(
        [chord_tones(sorted(e.chord.pitch_classes()), e.duration_s, 44100) for e in prog.events]
    )
    mat = compute_chromagram(to_mono(buf))
    seq = recognize_chords(mat, bpm=120.0, beats_s=np.arange(0.0, 4.0, 0.5))
    assert len(seq.events) == 2
    hop_s = 2048 / 44100
    assert abs(seq.events[1].start_s - 2.0) <= 2 * hop_s


def test_short_blips_are_merged():
    buf = chord_tones([0, 4, 7], 4.0, 44100)
    mat = compute_chromagram(to_mono(buf))
    seq = recognize_chords(mat, bpm=120.0, beats_s=np.arange(0.0, 4.0, 0.5))
    assert len(seq.events) == 1


def test_events_tile_the_clip():
    buf = concat([chord_tones([0, 4, 7], 2.0, 44100), chord_tones([7, 11, 2], 2.0, 44100)])
    mat = compute_chromagram(to_mono(buf))
    seq = recognize_chords(mat, bpm=120.0)
    assert seq.events[0].start_s == 0.0
    assert seq.duration_s == pytest.approx(mat.n_frames / mat.frame_rate_hz)


def test_no_beats_labels_every_frame():
    _, templates = _templates(("maj", "min"))
    c_maj, g_maj = templates[0], templates[14]
    # The last row, pitch class 0 alone, ties six triads; the first, C:maj, wins.
    rows = np.array([c_maj, c_maj, c_maj, g_maj, g_maj, np.zeros(12), np.eye(12)[0]])
    seq = recognize_chords(ChromaMatrix(rows, 10.0))
    got = [(str(e.chord), round(e.start_s * 10), round(e.duration_s * 10)) for e in seq.events]
    assert got == [("C:maj", 0, 3), ("G:maj", 3, 2), ("N", 5, 1), ("C:maj", 6, 1)]


@pytest.mark.parametrize(
    "beats", [[0.5, float("nan")], [float("inf")], [1.0, 0.5], [0.5, 0.5], [[0.5, 1.0]]]
)
def test_bad_beat_times_are_refused(beats):
    with pytest.raises(ValueError, match="beats_s"):
        recognize_chords(ChromaMatrix(np.ones((20, 12)), 10.0), beats_s=beats)


def _span_labels(values, rate, beats, config):
    """Reference: one (start, end, label) per span, scored in plain loops."""
    chords, templates = _templates(config.quality_names)
    n = len(values)
    starts = {0}
    for beat in beats:
        frame = int(np.rint(beat * rate))
        if 0 < frame < n:
            starts.add(frame)
    edges = sorted(starts) + [n]
    spans = []
    for start, end in zip(edges, edges[1:]):
        total = values[start:end].sum(axis=0)
        norm = np.linalg.norm(total)
        label = NO_CHORD
        if norm > 0:
            scores = [float(np.dot(row, total)) / norm for row in templates]
            best = max(range(len(scores)), key=lambda i: (scores[i], -i))
            if scores[best] >= config.confidence_threshold:
                label = chords[best]
        spans.append((start, end, label))
    return spans


@st.composite
def _chroma_and_beats(draw):
    """Chord-shaped rows held for runs of 1-12 frames, some runs silent, and beat times."""
    n = draw(st.integers(1, 80))
    rate = draw(st.sampled_from([10.0, 21.533203125]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, templates = _templates(("maj", "min"))
    held = np.repeat(rng.integers(0, 25, n), rng.integers(1, 13, n))[:n]
    values = templates[held] + draw(st.sampled_from([0.05, 0.3, 1.0])) * rng.random((n, 12))
    values[held == 24] = 0.0
    times = draw(st.lists(st.floats(-1.0, (n + 3) / rate), max_size=30))
    config = RecognitionConfig(confidence_threshold=draw(st.sampled_from([0.0, 0.5, 0.9])))
    return ChromaMatrix(values, rate), sorted(set(times)), config


@given(_chroma_and_beats())
def test_beat_spans_match_a_loop_reference(case):
    mat, beats, config = case
    rate, n = mat.frame_rate_hz, mat.n_frames
    seq = recognize_chords(mat, config, beats_s=beats)
    spans = _span_labels(mat.values, rate, beats, config)
    bounds = [round(e.start_s * rate) for e in seq.events] + [n]
    assert bounds[0] == 0
    for event, start, end in zip(seq.events, bounds, bounds[1:]):
        assert start < end and event.duration_s * rate == pytest.approx(end - start)
        assert start in {span[0] for span in spans}
        assert all(label == event.chord for s, _, label in spans if start <= s < end)
    assert all(a.chord != b.chord for a, b in zip(seq.events, seq.events[1:]))
