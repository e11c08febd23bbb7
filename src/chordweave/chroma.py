"""Chroma targets: chord symbols and sequences rendered as 12-bin vectors.

Bin order is chromatic from C (bin 0) to B (bin 11).  A chord becomes a
multi-hot vector over its pitch classes; a timed sequence becomes a
frame-rate matrix by sampling each frame at its centre time.

A chord holds for many frames, so a matrix is stored as runs.  A
chroma-matrix/v2 document holds "frame_rate_hz", "frames" and "runs", a
list of [count, row] pairs, one for each run of bit-identical
consecutive frames.

A v2 document of a few bytes can claim any number of frames, so a reader
checks the runs before it expands them: each is a [count, row] pair,
each count a positive integer, the counts sum to "frames", and "frames"
is at most MAX_FRAMES.  That limit, 2**20 frames (96 MiB as float64), is
5.8 hours at the 50 Hz conditioning rate, 13.5 hours at the chromagram's
default 21.5 Hz (44.1 kHz, hop 2048) and 3.4 hours even at hop 512: longer
than any song a request or a chromagram covers, and small enough that a
hostile count cannot exhaust memory.  A longer matrix is refused by the
writer too, so no document is written that the reader would refuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .audio import _SealedArray
from .chords import Chord, ChordSequence
from .formats import (
    _positive,
    as_integer,
    as_number,
    as_numbers,
    decode,
    dump_document,
    load_document,
)

DEFAULT_FRAME_RATE_HZ = 50.0

# Lower-case bin labels for the CSV export, C..B with flats.
CSV_BIN_LABELS = ("c", "cs", "d", "eb", "e", "f", "fs", "g", "ab", "a", "bb", "b")


def chord_to_chroma(chord: Chord) -> np.ndarray:
    """A 12-float multi-hot vector with ones at the chord's pitch classes."""
    vec = np.zeros(12)
    for pc in chord.pitch_classes():
        vec[pc] = 1.0
    return vec


@dataclass(frozen=True, eq=False)
class ChromaMatrix(_SealedArray):
    """A (frames, 12) non-negative matrix at a fixed frame rate."""

    values: np.ndarray
    frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ

    def _checked(self, values: np.ndarray) -> np.ndarray:
        if values.ndim != 2 or values.shape[1] != 12:
            raise ValueError(f"chroma matrix must be (frames, 12), got {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("chroma values must be finite and non-negative")
        _positive(self.frame_rate_hz, "frame_rate_hz")
        return values

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.frame_rate_hz


def render_matrix(
    seq: ChordSequence, frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ
) -> ChromaMatrix:
    """Rasterise a chord sequence to frames sampled at their centre times.

    The frame count, round(duration * rate), is refused past MAX_FRAMES;
    a frame centred outside every event, or past the end, is all zeros.
    """
    _positive(frame_rate_hz, "frame_rate_hz")
    n_frames = int(round(seq.duration_s * frame_rate_hz))
    _check_frames(n_frames)
    centres = (np.arange(n_frames) + 0.5) / frame_rate_hz
    starts = np.array([e.start_s for e in seq.events])
    ends = np.array([e.end_s for e in seq.events])
    # The event each frame centre falls in, found as ChordSequence.chord_at
    # finds it: the last start at or before the centre, if it ends after.
    index = np.searchsorted(starts, centres, side="right") - 1
    inside = (index >= 0) & (centres < ends[np.maximum(index, 0)])
    # Row i of the table is event i's chroma, and the last row the zeros
    # of a frame outside every event.
    classes = [e.chord.pitch_classes() for e in seq.events]
    table = np.zeros((len(classes) + 1, 12))
    table[np.repeat(np.arange(len(classes)), list(map(len, classes))), list(chain(*classes))] = 1.0
    return ChromaMatrix._adopt(table[np.where(inside, index, len(classes))], frame_rate_hz)


CHROMA_MATRIX_FORMAT = "chroma-matrix/v2"
MAX_FRAMES = 2**20


def _check_frames(n_frames: int) -> None:
    if n_frames > MAX_FRAMES:
        raise ValueError(f"{n_frames} frames, more than a document holds ({MAX_FRAMES})")


def _runs(values: np.ndarray) -> list[list]:
    """[count, row] for each run of bit-identical consecutive rows.

    Rows are compared as bits, so a row holding -0.0 differs from one
    holding 0.0 there, as their text does.
    """
    bits = values.view(np.uint64)
    first = np.ones(len(values), dtype=bool)
    first[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(values))
    return [[count, row] for count, row in zip(counts.tolist(), values[starts].tolist())]


def chroma_matrix_to_dict(matrix: ChromaMatrix) -> dict:
    """The chroma-matrix/v2 document of a matrix; more than MAX_FRAMES raises ValueError."""
    _check_frames(matrix.n_frames)
    return {
        "format": CHROMA_MATRIX_FORMAT,
        "frame_rate_hz": float(matrix.frame_rate_hz),
        "frames": matrix.n_frames,
        "runs": _runs(matrix.values),
    }


def _expand_runs(runs, frames: int) -> np.ndarray:
    """The (frames, 12) rows of the runs, every count checked before any run is expanded.

    A run that is not a [count, row] pair fails to unpack, or its count,
    a string if it unpacks at all, fails as_integer.
    """
    if not 0 <= frames <= MAX_FRAMES:
        raise ValueError(f"frames {frames} is outside 0 to {MAX_FRAMES}")
    counts = [as_integer(count) for count, _ in runs]
    if min(counts, default=1) < 1 or sum(counts) != frames:
        raise ValueError(f"run counts are not positive integers summing to {frames} frames")
    rows = as_numbers([row for _, row in runs])
    if not runs:
        # An empty list holds no row to give it its 12 columns.
        rows = rows.reshape(0, 12)
    if rows.shape != (len(runs), 12):
        raise ValueError(f"rows of shape {rows.shape} are not {len(runs)} runs by 12")
    return np.repeat(rows, counts, axis=0)


def chroma_matrix_from_dict(doc: dict) -> ChromaMatrix:
    """A matrix from its chroma-matrix/v2 document."""

    def build(doc: dict) -> ChromaMatrix:
        values = _expand_runs(doc["runs"], as_integer(doc["frames"]))
        return ChromaMatrix._adopt(values, as_number(doc["frame_rate_hz"]))

    return decode(doc, CHROMA_MATRIX_FORMAT, build)


def write_matrix(matrix: ChromaMatrix, path) -> None:
    dump_document(chroma_matrix_to_dict(matrix), path)


def read_matrix(path) -> ChromaMatrix:
    return chroma_matrix_from_dict(load_document(path))


def write_matrix_csv(matrix: ChromaMatrix, path) -> None:
    """CSV export: header row of bin labels, then one row per frame."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_BIN_LABELS) + "\n")
        for count, row in _runs(matrix.values):
            fh.write((",".join(map(float.__repr__, row)) + "\n") * count)
