"""Chromagrams, melody chroma, and template-based chord recognition.

The recogniser is the classical pipeline: fold an STFT into pitch
classes, score every frame by cosine similarity against unit-norm binary
chord templates, smooth the winning labels with a median filter, and
merge segments too short to be musically plausible.  Each call builds
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


@dataclass(frozen=True)
class ChromagramConfig:
    """STFT and folding parameters for chroma extraction from audio."""

    window_size: int = 4096
    hop_size: int = 2048
    fmin_hz: float = 65.4
    fmax_hz: float = 2093.0
    normalization: str = "max"

    def __post_init__(self):
        if self.window_size < 2 or self.window_size & (self.window_size - 1):
            raise ValueError("window_size must be a power of two >= 2")
        if self.hop_size < 1:
            raise ValueError("hop_size must be >= 1")
        if not 0 < self.fmin_hz < self.fmax_hz:
            raise ValueError("need 0 < fmin_hz < fmax_hz")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")


def _bin_pitch_classes(n_bins: int, sample_rate: int, window_size: int, config: ChromagramConfig):
    """Map STFT bins to pitch classes by nearest equal-tempered semitone."""
    freqs = np.arange(n_bins) * (sample_rate / window_size)
    mask = (freqs >= config.fmin_hz) & (freqs <= config.fmax_hz)
    pcs = np.zeros(n_bins, dtype=np.int64)
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
    n_bins = config.window_size // 2 + 1
    pcs, mask = _bin_pitch_classes(n_bins, buffer.sample_rate, config.window_size, config)
    folds = [mask & (pcs == pc) for pc in range(12)]
    values = np.zeros((n_frames, 12))
    for first, mags in blocks:
        for pc, cols in enumerate(folds):
            values[first : first + len(mags), pc] = mags[:, cols].sum(axis=1)
    if config.normalization == "max":
        peaks = values.max(axis=1, keepdims=True)
        np.divide(values, peaks, out=values, where=peaks > 0)
    return ChromaMatrix(values, buffer.sample_rate / config.hop_size)


def melody_one_hot(matrix: ChromaMatrix, silence_floor: float = 1e-3) -> ChromaMatrix:
    """Reduce each frame to a single winning bin.

    A frame whose total energy (the sum of its bins, taken from the
    matrix as given, so pass an unnormalised chromagram) is at or below
    `silence_floor` becomes all zeros; otherwise the maximal bin gets 1.0,
    ties going to the lowest bin index.
    """
    energies = matrix.values.sum(axis=1)
    out = np.zeros_like(matrix.values)
    voiced = energies > silence_floor
    winners = np.argmax(matrix.values, axis=1)
    out[voiced, winners[voiced]] = 1.0
    return ChromaMatrix(out, matrix.frame_rate_hz)


@dataclass(frozen=True)
class RecognitionConfig:
    """Vocabulary and smoothing parameters for chord recognition."""

    quality_names: tuple[str, ...] = ("maj", "min")
    median_window: int = 5
    confidence_threshold: float = 0.5
    min_segment_s: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "quality_names", tuple(self.quality_names))
        for name in self.quality_names:
            if name not in QUALITIES:
                raise ValueError(f"unknown quality {name!r}")
        if not self.quality_names:
            raise ValueError("need at least one quality")
        if self.median_window < 1 or self.median_window % 2 == 0:
            raise ValueError("median_window must be a positive odd integer")
        if not 0 <= self.confidence_threshold <= 1:
            raise ValueError("confidence_threshold must lie in [0, 1]")
        if self.min_segment_s < 0:
            raise ValueError("min_segment_s must be >= 0")


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


def _median_filter(labels: np.ndarray, width: int) -> np.ndarray:
    """Odd-width running median with edge replication.

    The median of an odd number of integers is itself one of them, so
    filtered labels always remain valid labels.
    """
    if width == 1 or labels.size == 0:
        return labels.copy()
    half = width // 2
    padded = np.concatenate([np.repeat(labels[0], half), labels, np.repeat(labels[-1], half)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    return np.median(windows, axis=1).astype(labels.dtype)


def _segment_runs(labels: np.ndarray) -> list[list[int]]:
    """[label, start_frame, n_frames] runs of equal consecutive labels."""
    runs = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs.append([int(labels[start]), start, i - start])
            start = i
    return runs


def _merge_short_runs(runs: list[list[int]], min_frames: int) -> list[list[int]]:
    """Absorb runs shorter than min_frames into their longer neighbour.

    Shortest run first (leftmost on ties); absorbed into whichever
    neighbour is longer, the earlier one on ties; adjacent equal labels
    re-coalesce before the next pass.
    """
    runs = [list(r) for r in runs]
    while len(runs) > 1:
        lengths = [r[2] for r in runs]
        shortest = min(range(len(runs)), key=lambda i: (lengths[i], i))
        if lengths[shortest] >= min_frames:
            break
        if shortest == 0:
            target = 1
        elif shortest == len(runs) - 1:
            target = len(runs) - 2
        else:
            target = shortest - 1 if lengths[shortest - 1] >= lengths[shortest + 1] else shortest + 1
        absorbed = runs.pop(shortest)
        keep = target if target < shortest else target - 1
        if keep < shortest:
            runs[keep][2] += absorbed[2]
        else:
            runs[keep][1] = absorbed[1]
            runs[keep][2] += absorbed[2]
        merged = []
        for run in runs:
            if merged and merged[-1][0] == run[0]:
                merged[-1][2] += run[2]
            else:
                merged.append(run)
        runs = merged
    return runs


def recognize_chords(
    matrix: ChromaMatrix,
    config: RecognitionConfig | None = None,
    bpm: float = 120.0,
    time_signature: TimeSignature = FOUR_FOUR,
) -> ChordSequence:
    """Label a chroma matrix with the best-matching chord per segment.

    Per frame: cosine similarity against every template, first-maximum
    argmax; silent frames and frames whose best score falls below the
    confidence threshold become no-chord.  Labels are median-filtered,
    collapsed into runs, and runs shorter than the minimum segment length
    are merged away.  Events tile [0, duration] exactly on frame edges.
    The tempo arguments only annotate the returned sequence.
    """
    if config is None:
        config = RecognitionConfig()
    chords, templates = _templates(config.quality_names)
    no_chord = len(chords) - 1
    frames = matrix.values
    if frames.shape[0] == 0:
        return ChordSequence((), bpm, time_signature)
    norms = np.linalg.norm(frames, axis=1)
    voiced = norms > 0
    scores = np.zeros((frames.shape[0], len(chords)))
    scores[voiced] = (frames[voiced] @ templates.T) / norms[voiced, None]
    labels = np.argmax(scores, axis=1)
    best = scores[np.arange(len(labels)), labels]
    labels[~voiced] = no_chord
    labels[best < config.confidence_threshold] = no_chord
    labels = _median_filter(labels, config.median_window)
    min_frames = int(np.ceil(config.min_segment_s * matrix.frame_rate_hz))
    runs = _merge_short_runs(_segment_runs(labels), min_frames)
    rate = matrix.frame_rate_hz
    events = tuple(
        ChordEvent(chords[label], start / rate, count / rate)
        for label, start, count in runs
    )
    return ChordSequence(events, bpm, time_signature)
