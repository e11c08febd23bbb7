"""Chromagrams, melody chroma, and template-based chord recognition.

The recogniser is the classical pipeline: fold an STFT into pitch
classes, sum the frames between consecutive beats (Bello & Pickens,
ISMIR 2005), score each span by cosine similarity against unit-norm
binary chord templates, and merge equal neighbours.  Each call builds
its templates from the configured chord qualities: chord_to_chroma
vectors scaled to unit norm, plus a uniform no-chord row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, _stft_blocks
from .chords import (
    FOUR_FOUR,
    NO_CHORD,
    QUALITIES,
    Chord,
    ChordEvent,
    ChordSequence,
    TimeSignature,
)
from .chroma import ChromaMatrix, chord_to_chroma

NORMALIZATIONS = ("max", "none")
# melody_one_hot's default: a frame whose bins sum to no more is silent.
SILENCE_FLOOR = 1e-3


@dataclass(frozen=True)
class ChromagramConfig:
    """Chroma extraction from audio: a 4096-point Hann STFT hopped by 2048
    samples, folded over 65.4 Hz (C2) to 2093 Hz (C7).  That resolution is
    fixed by class constants, not fields; only the normalization is chosen.
    """

    window_size = 4096
    hop_size = 2048
    fmin_hz = 65.4
    fmax_hz = 2093.0
    normalization: str = "max"

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")


def _bin_pitch_classes(sample_rate: int, config: ChromagramConfig):
    """Map STFT bins to pitch classes by nearest equal-tempered semitone."""
    freqs = np.arange(config.window_size // 2 + 1) * (sample_rate / config.window_size)
    mask = (freqs >= config.fmin_hz) & (freqs <= config.fmax_hz)
    pcs = np.zeros(len(freqs), dtype=np.int64)
    with np.errstate(divide="ignore"):
        midi = np.rint(69.0 + 12.0 * np.log2(np.where(mask, freqs, 1.0) / 440.0))
    pcs[mask] = midi[mask].astype(np.int64) % 12
    return pcs, mask


def compute_chromagram(buffer: AudioBuffer, config: ChromagramConfig | None = None) -> ChromaMatrix:
    """Fold a Hann STFT into a (frames, 12) chroma matrix.

    Each in-range bin's magnitude is added to its nearest-semitone pitch
    class; with normalization "max" each frame is then scaled to a peak
    of 1, and with "none" the sums are kept.  The buffer must be
    mono (see to_mono).  The STFT is folded block by block as it streams,
    so the full magnitude matrix is never held.
    """
    if config is None:
        config = ChromagramConfig()
    if buffer.n_channels != 1:
        raise ValueError("chromagram expects a mono buffer; call to_mono first")
    n_frames, blocks = _stft_blocks(buffer.samples[0], config.window_size, config.hop_size)
    pcs, mask = _bin_pitch_classes(buffer.sample_rate, config)
    folds = [mask & (pcs == pc) for pc in range(12)]
    values = np.zeros((n_frames, 12))
    for first, mags in blocks:
        for pc, cols in enumerate(folds):
            values[first : first + len(mags), pc] = mags[:, cols].sum(axis=1)
    if config.normalization == "max":
        peaks = values.max(axis=1, keepdims=True)
        np.divide(values, peaks, out=values, where=peaks > 0)
    return ChromaMatrix._adopt(values, buffer.sample_rate / config.hop_size)


def _check_silence_floor(silence_floor: float) -> None:
    """Refuse a floor no energy compares with: against NaN every frame reads silent."""
    if not -np.inf < silence_floor < np.inf:
        raise ValueError(f"silence_floor must be finite, got {silence_floor!r}")


def melody_one_hot(matrix: ChromaMatrix, silence_floor: float = SILENCE_FLOOR) -> ChromaMatrix:
    """Reduce each frame to a single winning bin.

    A frame whose total energy (the sum of its bins, taken from the
    matrix as given, so pass an unnormalised chromagram) is at or below
    `silence_floor` becomes all zeros; otherwise the maximal bin gets 1.0,
    ties going to the lowest bin index.  A floor that is not finite
    raises ValueError.
    """
    _check_silence_floor(silence_floor)
    energies = matrix.values.sum(axis=1)
    out = np.zeros_like(matrix.values)
    voiced = energies > silence_floor
    winners = np.argmax(matrix.values, axis=1)
    out[voiced, winners[voiced]] = 1.0
    return ChromaMatrix._adopt(out, matrix.frame_rate_hz)


@dataclass(frozen=True)
class RecognitionConfig:
    """Vocabulary and no-chord threshold for chord recognition."""

    quality_names: tuple[str, ...] = ("maj", "min")
    confidence_threshold: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "quality_names", tuple(self.quality_names))
        for name in self.quality_names:
            if name not in QUALITIES:
                raise ValueError(f"unknown quality {name!r}")
        if not self.quality_names:
            raise ValueError("need at least one quality")
        if not 0 <= self.confidence_threshold <= 1:
            raise ValueError("confidence_threshold must lie in [0, 1]")


def _templates(quality_names) -> tuple[tuple[Chord, ...], np.ndarray]:
    """The chords recognised, and their unit-norm chroma templates as rows.

    Row order is ascending root, then quality order as given, with the
    no-chord template (uniform, for scoring silence-ish frames) last.
    First-maximum argmax over this order realises the documented
    tie-break: lowest root wins, then earlier quality.
    """
    chords = [Chord(root, QUALITIES[name]) for root in range(12) for name in quality_names]
    vectors = [chord_to_chroma(chord) for chord in chords]
    rows = [v / np.linalg.norm(v) for v in vectors] + [np.full(12, 1.0 / np.sqrt(12.0))]
    return (*chords, NO_CHORD), np.array(rows)


def _span_starts(n_frames: int, frame_rate_hz: float, beats_s) -> np.ndarray:
    """First frame of each span: 0, then each beat's nearest frame inside the matrix."""
    if beats_s is None:
        return np.arange(n_frames)
    beats = np.asarray(beats_s, dtype=np.float64)
    if beats.ndim != 1 or not np.isfinite(beats).all() or (np.diff(beats) <= 0).any():
        raise ValueError("beats_s must be finite and strictly ascending")
    frames = np.rint(beats * frame_rate_hz)
    return np.unique(np.append(0, frames[(frames > 0) & (frames < n_frames)])).astype(np.int64)


def recognize_chords(
    matrix: ChromaMatrix,
    config: RecognitionConfig | None = None,
    bpm: float = 120.0,
    time_signature: TimeSignature = FOUR_FOUR,
    *,
    beats_s=None,
) -> ChordSequence:
    """Label a chroma matrix with the best-matching chord per beat.

    Spans start at frame 0 and at rint(beat * frame_rate) for each beat
    of beats_s inside the matrix (finite and strictly ascending, or
    ValueError); without beats, every frame is a span.  Each span's
    summed chroma takes the template of highest cosine similarity, the
    first on ties, or no-chord when silent or below the confidence
    threshold.  Equal neighbours merge, so events tile [0, duration]
    exactly on frame edges.  The tempo arguments only annotate.
    """
    if config is None:
        config = RecognitionConfig()
    chords, templates = _templates(config.quality_names)
    frames = matrix.values
    rate = matrix.frame_rate_hz
    starts = _span_starts(frames.shape[0], rate, beats_s)
    if frames.shape[0] == 0:
        return ChordSequence((), bpm, time_signature)
    spans = np.add.reduceat(frames, starts, axis=0)
    norms = np.linalg.norm(spans, axis=1)
    voiced = norms > 0
    scores = np.zeros((len(starts), len(chords)))
    scores[voiced] = (spans[voiced] @ templates.T) / norms[voiced, None]
    labels = np.argmax(scores, axis=1)
    labels[~voiced | (scores.max(axis=1) < config.confidence_threshold)] = len(chords) - 1
    firsts = np.flatnonzero(np.diff(labels, prepend=-1))
    edges = np.append(starts[firsts], frames.shape[0]).tolist()
    events = tuple(
        ChordEvent(chords[label], start / rate, (end - start) / rate)
        for label, start, end in zip(labels[firsts].tolist(), edges, edges[1:])
    )
    return ChordSequence(events, bpm, time_signature)
