"""Onset strength, tempo estimation, and least-squares beat-grid fitting.

Tempo comes from the autocorrelation of a spectral-flux onset envelope,
read exactly at the lags of the tempo range, with parabolic peak
refinement.  That tempo seeds a rigid grid whose period and phase are
then fitted to the envelope's onsets by weighted least squares, in the
manner of Ellis's beat-grid fitting ("Beat Tracking by Dynamic
Programming", JNMR 2007) without the dynamic programming.  That is a
deliberately simple model aimed at steady-tempo material.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, _SealedArray, _stft_blocks
from .formats import (
    _count,
    _positive,
    _real,
    as_integer,
    as_number,
    as_numbers,
    decode,
    dump_document,
    load_document,
)

DEFAULT_MIN_BPM = 60.0
DEFAULT_MAX_BPM = 200.0

# The preferred octave for tempo read-out; half/double candidates inside
# it win over a raw peak outside it.
_PREFERRED_BPM_LO = 90.0
_PREFERRED_BPM_HI = 180.0
_OCTAVE_STRENGTH = 0.5
# track_beats finds the phase on this many beats at the clip's centre,
# reads each beat within this fraction of a period of the fitted line,
# and grows the fitted window by this fraction on each side per pass.
_PHASE_WINDOW_BEATS = 16
_BEAT_REACH = 0.2
_WINDOW_GROWTH = 0.25


class NoTempoError(ValueError):
    """The onset envelope carries no usable periodicity."""


@dataclass(frozen=True, eq=False)
class OnsetEnvelope(_SealedArray):
    """Non-negative onset strength per analysis frame."""

    values: np.ndarray
    frame_rate_hz: float

    def _checked(self, values: np.ndarray) -> np.ndarray:
        if values.ndim != 1:
            raise ValueError("onset envelope must be 1-D")
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError("onset strengths must be finite and >= 0")
        _positive(self.frame_rate_hz, "frame_rate_hz")
        return values

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.frame_rate_hz


def onset_envelope(
    buffer: AudioBuffer, window_size: int = 1024, hop_size: int = 512
) -> OnsetEnvelope:
    """Half-wave-rectified spectral flux of a mono buffer.

    Frame k > 0 sums the positive magnitude increases from frame k-1;
    frame 0 is defined as zero.  Analysis windows are centred on frame
    times (the signal is framed as if led by half a window of zeros), so
    an onset at time t spikes at the frame nearest t * frame_rate.  The
    spectrum streams through in blocks, carrying the previous block's
    last frame, so neither a padded copy of the signal nor a full-size
    magnitude matrix is built.
    """
    if buffer.n_channels != 1:
        raise ValueError("onset envelope expects a mono buffer; call to_mono first")
    if buffer.n_samples < window_size:
        raise ValueError(f"buffer holds {buffer.n_samples} samples; need {window_size}")
    n_frames, blocks = _stft_blocks(buffer.samples[0], window_size, hop_size, window_size // 2)
    flux = np.empty(n_frames)
    previous = None
    for first, mags in blocks:
        # Frame k's rise over frame k-1; frame 0 rises over itself.
        rise = np.empty_like(mags)
        np.subtract(mags[0], mags[0] if previous is None else previous, out=rise[0])
        np.subtract(mags[1:], mags[:-1], out=rise[1:])
        np.clip(rise, 0.0, None, out=rise)
        flux[first : first + len(mags)] = rise.sum(axis=1)
        previous = mags[-1]
    return OnsetEnvelope._adopt(flux, buffer.sample_rate / hop_size)


def estimate_bpm(
    envelope: OnsetEnvelope,
    min_bpm: float = DEFAULT_MIN_BPM,
    max_bpm: float = DEFAULT_MAX_BPM,
) -> float:
    """Tempo from the envelope's autocorrelation peak, in [min_bpm, max_bpm].

    The envelope must cover at least 4 seconds.  Only the lags of the
    tempo range, and one either side, are read, each as the exact sum of
    lag products; the first maximum is refined by parabolic
    interpolation.  When its tempo lies outside [90, 180), the best of
    the three lags around the half or the double lag replaces it if that
    lag holds at least half the peak's value and its tempo lies inside.
    The result seeds track_beats, which fits the period itself.  A flat
    envelope raises NoTempoError.
    """
    if not (_real(min_bpm) and _real(max_bpm) and 0 < min_bpm < max_bpm):
        raise ValueError("need 0 < min_bpm < max_bpm")
    if envelope.duration_s < 4.0:
        raise NoTempoError(
            f"envelope covers {envelope.duration_s:.2f} s; need at least 4 s"
        )
    x = envelope.values - envelope.values.mean()
    if not np.any(x):
        raise NoTempoError("envelope is flat; no periodicity to measure")
    n = envelope.n_frames
    rate = envelope.frame_rate_hz
    lo = max(int(np.ceil(60.0 * rate / max_bpm)), 1)
    hi = min(int(np.floor(60.0 * rate / min_bpm)), n - 2)
    if lo > hi:
        raise NoTempoError("envelope too short for the requested tempo range")
    # ac[k - lo + 1] is the sum of lag-k products, for k in lo-1..hi+1.
    ac = np.array([np.dot(x[k:], x[: n - k]) for k in range(lo - 1, hi + 2)])

    def at(k: int) -> float:
        return float(ac[k - lo + 1])

    def preferred(k: int) -> bool:
        return _PREFERRED_BPM_LO <= 60.0 * rate / k < _PREFERRED_BPM_HI

    lag = lo + int(np.argmax(ac[1:-1]))
    if not preferred(lag):
        for candidate in (int(round(lag / 2)), lag * 2):
            near = [k for k in (candidate - 1, candidate, candidate + 1) if lo <= k <= hi]
            best = max(near, key=at, default=None)
            if best is not None and at(best) >= _OCTAVE_STRENGTH * at(lag) and preferred(best):
                lag = best
                break
    refined = lag + float(_parabolic_offset(at(lag - 1), at(lag), at(lag + 1)))
    return float(np.clip(60.0 * rate / refined, min_bpm, max_bpm))


def _parabolic_offset(y_prev, y_mid, y_next):
    """Offset in [-1/2, 1/2] of the extremum of the parabola through y at
    -1, 0, 1; 0 where the three are collinear.  Elementwise on arrays."""
    denom = y_prev - 2.0 * y_mid + y_next
    flat = denom == 0
    offset = 0.5 * (y_prev - y_next) / np.where(flat, 1.0, denom)
    return np.where(flat, 0.0, np.clip(offset, -0.5, 0.5))


@dataclass(frozen=True)
class BeatGrid:
    """Beat and downbeat times for a clip, with the tempo that placed them.

    Invariants: beats strictly ascend, consecutive spacing stays within
    10% of the nominal period, and downbeats are every beats_per_bar-th
    beat from a fixed offset.  An empty downbeat list is allowed and
    means the bar phase is unknown.
    """

    beats_s: tuple[float, ...]
    downbeats_s: tuple[float, ...]
    bpm: float
    beats_per_bar: int = 4

    def __post_init__(self):
        object.__setattr__(self, "beats_s", tuple(float(b) for b in self.beats_s))
        object.__setattr__(self, "downbeats_s", tuple(float(b) for b in self.downbeats_s))
        _positive(self.bpm, "bpm")
        _count(self.beats_per_bar, "beats_per_bar")
        if not self.beats_s:
            raise ValueError("a beat grid needs at least one beat")
        if not np.isfinite(self.beats_s).all():
            raise ValueError("beat times must be finite")
        period = 60.0 / self.bpm
        for a, b in zip(self.beats_s, self.beats_s[1:]):
            if b <= a:
                raise ValueError("beats must strictly ascend")
            if abs((b - a) - period) > 0.1 * period:
                raise ValueError(
                    f"beat spacing {b - a:.4f} s deviates more than 10% from {period:.4f} s"
                )
        if not self.downbeats_s:
            # bar phase unknown; build_anchor_map rejects such grids
            return
        try:
            offset = self.beats_s.index(self.downbeats_s[0])
        except ValueError:
            raise ValueError("downbeats must be a subset of beats") from None
        if self.downbeats_s != self.beats_s[offset :: self.beats_per_bar]:
            raise ValueError("downbeats must be every beats_per_bar-th beat from one offset")


def track_beats(
    envelope: OnsetEnvelope, bpm: float, beats_per_bar: int = 4
) -> BeatGrid:
    """Fit a rigid beat grid, beat k at frame a + b*k, to the envelope's onsets.

    The phase comes from 16 beats at bpm around the clip's centre (all
    of it if it holds fewer).  Each pass then reads every beat of the
    window as the envelope's maximum within 0.2 period of the line,
    refined by a parabola, and refits a and b by least squares, each beat
    weighted by the square root of its height over the window's highest.
    The window grows by a quarter on each side per pass until it covers
    the clip.  The downbeat offset maximises mean onset strength near
    the beats, and the grid carries the fitted tempo.  The clip must
    cover at least one bar at bpm.
    """
    _positive(bpm, "bpm")
    _count(beats_per_bar, "beats_per_bar")
    period = 60.0 / bpm
    duration = envelope.duration_s
    if duration < beats_per_bar * period:
        raise ValueError(
            f"clip covers {duration:.2f} s; need a full bar ({beats_per_bar * period:.2f} s)"
        )
    rate = envelope.frame_rate_hz
    values = envelope.values
    n = envelope.n_frames

    # Beat k sits at frame a + b * k.  The first a is the window's start
    # plus the frame offset, inside one period, whose beats' nearest
    # frames hold the most onset strength.
    b = period * rate
    count = min(_PHASE_WINDOW_BEATS, int((n - 1) / b) + 1)
    start = max((n - count * b) // 2, 0.0)
    offsets = np.arange(int(np.ceil(b)))
    idx = np.rint(start + offsets[:, None] + b * np.arange(count)).astype(np.int64)
    a = start + offsets[int(np.argmax(values[np.minimum(idx, n - 1)].sum(axis=1)))]

    first, last, covered = 0, count - 1, False
    while True:
        k = np.arange(first, last + 1)
        frames, heights = _read_beats(values, a + b * k, _BEAT_REACH * b)
        if np.count_nonzero(heights) >= 2:
            w = np.sqrt(heights / heights.max())
            (a, b), *_ = np.linalg.lstsq(np.column_stack([w, w * k]), w * frames, rcond=None)
        if covered:
            break
        # Grow toward the beats whose frames lie inside the clip under this fit.
        k_in = int(np.ceil(-a / b)), int(np.floor((n - 1 - a) / b))
        grow = max(int(_WINDOW_GROWTH * (last - first + 1)), 1)
        first, last = max(first - grow, k_in[0]), min(last + grow, k_in[1])
        covered = (first, last) == k_in

    period = b / rate
    phase = (a / rate) % period
    beats = phase + period * np.arange(int(np.floor((duration - phase) / period)) + 1)

    # Onset mass near each beat, not a point read: a narrow flux spike may
    # sit one frame either side of the rounded beat index.
    centres = np.rint(beats * rate).astype(np.int64)
    mass = np.array([values[max(c - 2, 0) : c + 3].sum() for c in centres])
    candidates = range(min(beats_per_bar, len(beats)))
    offset = max(candidates, key=lambda o: mass[o::beats_per_bar].mean())
    return BeatGrid(beats, beats[offset::beats_per_bar], 60.0 / period, beats_per_bar)


def _read_beats(values: np.ndarray, centres: np.ndarray, reach: float):
    """Each beat's onset frame and height: the envelope's first maximum
    within reach frames of its centre, refined by a parabola through the
    maximum and its neighbours (not at the envelope's ends)."""
    last = values.shape[0] - 1
    span = np.arange(-int(reach), int(reach) + 1)
    idx = np.clip(np.rint(centres).astype(np.int64)[:, None] + span, 0, last)
    top = idx[np.arange(len(idx)), np.argmax(values[idx], axis=1)]
    prev, mid, nxt = (values[np.clip(top + d, 0, last)] for d in (-1, 0, 1))
    offset = np.where((top > 0) & (top < last), _parabolic_offset(prev, mid, nxt), 0.0)
    return top + offset, mid


BEAT_GRID_FORMAT = "beat-grid/v1"


def beat_grid_to_dict(grid: BeatGrid) -> dict:
    return {
        "format": BEAT_GRID_FORMAT,
        "bpm": float(grid.bpm),
        "beats_per_bar": int(grid.beats_per_bar),
        "beats_s": [float(b) for b in grid.beats_s],
        "downbeats_s": [float(b) for b in grid.downbeats_s],
    }


def beat_grid_from_dict(doc: dict) -> BeatGrid:
    def build(doc: dict) -> BeatGrid:
        beats_s, downbeats_s = as_numbers(doc["beats_s"]), as_numbers(doc["downbeats_s"])
        if beats_s.ndim != 1 or downbeats_s.ndim != 1:
            raise ValueError("beats_s and downbeats_s must be flat lists of times")
        bpm, beats_per_bar = as_number(doc["bpm"]), as_integer(doc["beats_per_bar"])
        return BeatGrid(beats_s, downbeats_s, bpm, beats_per_bar)

    return decode(doc, BEAT_GRID_FORMAT, build)


def write_beat_grid(grid: BeatGrid, path) -> None:
    dump_document(beat_grid_to_dict(grid), path)


def read_beat_grid(path) -> BeatGrid:
    return beat_grid_from_dict(load_document(path))
