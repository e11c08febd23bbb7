"""Chroma targets: chord symbols and sequences rendered as 12-bin vectors.

Bin order is chromatic from C (bin 0) to B (bin 11).  A chord becomes a
multi-hot vector over its pitch classes; a timed sequence becomes a
frame-rate matrix by sampling each frame at its centre time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .chords import Chord, ChordSequence
from .formats import (
    as_integer,
    as_number,
    as_numbers,
    decode,
    dump_document,
    load_document,
    write_text,
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
class ChromaMatrix:
    """A (frames, 12) non-negative matrix at a fixed frame rate."""

    values: np.ndarray
    frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != 12:
            raise ValueError(f"chroma matrix must be (frames, 12), got {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("chroma values must be finite and non-negative")
        if not 0 < self.frame_rate_hz < np.inf:
            raise ValueError("frame_rate_hz must be finite and > 0")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.frame_rate_hz

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChromaMatrix):
            return NotImplemented
        return self.frame_rate_hz == other.frame_rate_hz and np.array_equal(
            self.values, other.values
        )


def render_matrix(
    seq: ChordSequence, frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ
) -> ChromaMatrix:
    """Rasterise a chord sequence to frames sampled at their centre times.

    The frame count is round(duration * rate); a frame whose centre falls
    outside every event (including past the end) is all zeros.
    """
    if not 0 < frame_rate_hz < np.inf:
        raise ValueError("frame_rate_hz must be finite and > 0")
    n_frames = int(round(seq.duration_s * frame_rate_hz))
    centres = (np.arange(n_frames) + 0.5) / frame_rate_hz
    starts = np.array([e.start_s for e in seq.events])
    ends = np.array([e.end_s for e in seq.events])
    # The event each frame centre falls in, found as ChordSequence.chord_at
    # finds it: the last start at or before the centre, if it ends after.
    index = np.searchsorted(starts, centres, side="right") - 1
    inside = (index >= 0) & (centres < ends[np.maximum(index, 0)])
    table = np.array([chord_to_chroma(e.chord) for e in seq.events]).reshape(-1, 12)
    values = np.zeros((n_frames, 12))
    values[inside] = table[index[inside]]
    return ChromaMatrix(values, frame_rate_hz)


CHROMA_MATRIX_FORMAT = "chroma-matrix/v1"


def _runs(values: np.ndarray) -> tuple[list[list[float]], list[int]]:
    """The first row of each run of bit-identical rows, and each row's run index.

    Rows are compared as bits, so a row holding -0.0 differs from one
    holding 0.0 there, as their text does.
    """
    bits = values.view(np.uint64)
    first = np.ones(len(values), dtype=bool)
    first[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    return values[first].tolist(), (np.cumsum(first) - 1).tolist()


def chroma_matrix_to_dict(matrix: ChromaMatrix) -> dict:
    """The chroma-matrix/v1 document of a matrix.

    The rows of each run of identical frames in "data" are one shared
    list object, which the document writer encodes once, so treat the
    dict as read-only: changing one frame's row changes its whole run.
    """
    rows, run = _runs(matrix.values)
    return {
        "format": CHROMA_MATRIX_FORMAT,
        "frame_rate_hz": float(matrix.frame_rate_hz),
        "frames": matrix.n_frames,
        "data": list(map(rows.__getitem__, run)),
    }


def chroma_matrix_from_dict(doc: dict) -> ChromaMatrix:
    def build(doc: dict) -> ChromaMatrix:
        values, frames = as_numbers(doc["data"]), as_integer(doc["frames"])
        if frames == 0 and values.shape == (0,):
            # An empty list holds no row to give it its 12 columns.
            values = values.reshape(0, 12)
        if values.shape != (frames, 12):
            raise ValueError(f"data of shape {values.shape} is not {doc['frames']} frames by 12")
        return ChromaMatrix(values, as_number(doc["frame_rate_hz"]))

    return decode(doc, CHROMA_MATRIX_FORMAT, build)


def write_matrix(matrix: ChromaMatrix, path) -> None:
    dump_document(chroma_matrix_to_dict(matrix), path)


def read_matrix(path) -> ChromaMatrix:
    return chroma_matrix_from_dict(load_document(path))


def write_matrix_csv(matrix: ChromaMatrix, path) -> None:
    """CSV export: header row of bin labels, then one row per frame.

    Each run of identical frames has its line made once, and the lines
    are written in batches.
    """
    rows, run = _runs(matrix.values)
    lines = [",".join(map(float.__repr__, row)) + "\n" for row in rows]
    write_text(path, chain((",".join(CSV_BIN_LABELS) + "\n",), map(lines.__getitem__, run)))
