import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        ChromagramConfig(fmin_hz=2000.0, fmax_hz=100.0)


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
        RecognitionConfig(median_window=4)
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
    seq = recognize_chords(mat, bpm=120.0)
    assert len(seq.events) == 2
    hop_s = 2048 / 44100
    assert abs(seq.events[1].start_s - 2.0) <= 2 * hop_s


def test_short_blips_are_merged():
    buf = chord_tones([0, 4, 7], 4.0, 44100)
    mat = compute_chromagram(to_mono(buf))
    seq = recognize_chords(mat, bpm=120.0)
    min_s = RecognitionConfig().min_segment_s
    assert len(seq.events) == 1 or all(e.duration_s >= min_s - 1e-6 for e in seq.events)


def test_events_tile_the_clip():
    buf = concat([chord_tones([0, 4, 7], 2.0, 44100), chord_tones([7, 11, 2], 2.0, 44100)])
    mat = compute_chromagram(to_mono(buf))
    seq = recognize_chords(mat, bpm=120.0)
    assert seq.events[0].start_s == 0.0
    assert seq.duration_s == pytest.approx(mat.n_frames / mat.frame_rate_hz)
