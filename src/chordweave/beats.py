"""Onset strength, tempo estimation, and rigid-grid beat tracking.

Tempo comes from the autocorrelation of a spectral-flux onset envelope
with parabolic peak refinement; beats are then laid out on a rigid grid
whose phase maximises onset energy.  That is a deliberately simple model
aimed at steady-tempo material.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, _stft_blocks
from .formats import (
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
_OCTAVE_STRENGTH = 0.95
# How far below a window's FFT-autocorrelation maximum, as a fraction of
# lag 0, a lag is still read exactly when picking the window's peak: far
# above the FFT's round-off, far below real differences between lags.
_AUTOCORRELATION_SLACK = 1e-9


class NoTempoError(ValueError):
    """The onset envelope carries no usable periodicity."""


@dataclass(frozen=True, eq=False)
class OnsetEnvelope:
    """Non-negative onset strength per analysis frame."""

    values: np.ndarray
    frame_rate_hz: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("onset envelope must be 1-D")
        if np.any(values < 0):
            raise ValueError("onset strengths must be >= 0")
        if self.frame_rate_hz <= 0:
            raise ValueError("frame_rate_hz must be > 0")
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
        if not isinstance(other, OnsetEnvelope):
            return NotImplemented
        return self.frame_rate_hz == other.frame_rate_hz and np.array_equal(
            self.values, other.values
        )


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
    return OnsetEnvelope(flux, buffer.sample_rate / hop_size)


def estimate_bpm(
    envelope: OnsetEnvelope,
    min_bpm: float = DEFAULT_MIN_BPM,
    max_bpm: float = DEFAULT_MAX_BPM,
) -> float:
    """Tempo from the envelope's autocorrelation peak, in [min_bpm, max_bpm].

    The envelope must cover at least 4 seconds.  The integer-lag peak is
    refined by parabolic interpolation; a half- or double-lag peak of at
    least 95% the strength replaces it when that moves the tempo into
    [90, 180).  A flat envelope raises NoTempoError.
    """
    if not 0 < min_bpm < max_bpm:
        raise ValueError("need 0 < min_bpm < max_bpm")
    if envelope.duration_s < 4.0:
        raise NoTempoError(
            f"envelope covers {envelope.duration_s:.2f} s; need at least 4 s"
        )
    x = envelope.values - envelope.values.mean()
    if not np.any(x):
        raise NoTempoError("envelope is flat; no periodicity to measure")
    n = envelope.n_frames
    # The FFT autocorrelation locates peaks in O(n log n); its values are
    # off by round-off of order eps * log(n) * ac[0].  Every value the
    # tempo is computed from is then read exactly, as the direct sum of
    # lag products, so the tempo does not depend on that round-off.  An
    # FFT size of at least 2n - 1 keeps the circular wrap off lags < n.
    n_fft = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.rfft(x, n_fft)
    approx = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n_fft)[:n]
    slack = _AUTOCORRELATION_SLACK * approx[0]

    def ac(k: int) -> float:
        return float(np.dot(x[k:], x[: n - k]))

    def peak(lo: int, hi: int) -> int:
        """The first lag in lo..hi whose exact value is largest.

        A lag that the FFT puts more than `slack` below the window's
        maximum is below it exactly too, so only the rest are read.
        """
        window = approx[lo : hi + 1]
        return max((lo + np.flatnonzero(window >= window.max() - slack)).tolist(), key=ac)

    rate = envelope.frame_rate_hz
    lo = max(int(np.ceil(60.0 * rate / max_bpm)), 1)
    hi = min(int(np.floor(60.0 * rate / min_bpm)), n - 2)
    if lo > hi:
        raise NoTempoError("envelope too short for the requested tempo range")
    lag = peak(lo, hi)
    bpm_at = lambda k: 60.0 * rate / k
    if not _PREFERRED_BPM_LO <= bpm_at(lag) < _PREFERRED_BPM_HI:
        for candidate in (int(round(lag / 2)), lag * 2):
            if (
                lo <= candidate <= hi
                and ac(candidate) >= _OCTAVE_STRENGTH * ac(lag)
                and _PREFERRED_BPM_LO <= bpm_at(candidate) < _PREFERRED_BPM_HI
            ):
                lag = candidate
                break
    refined = lag + _parabolic_offset(ac(lag - 1), ac(lag), ac(lag + 1))
    # Tighten the sub-frame estimate with the peak's in-range multiples:
    # the localization error at the m-th multiple divides by m, so a
    # least-squares fit over all of them keeps a rigid grid built from
    # this tempo from drifting across a whole clip.  Each multiple is
    # read as the mass centroid of its local peak (sharp envelopes split
    # their mass across adjacent lags, which parabolic fits misplace).
    # Multiples are used only up to half the envelope, where correlation
    # support is still real, and only where they confirm the winning lag.
    num = refined
    den = 1.0
    half = max(lag // 2, 2)
    for m in range(2, (n // 2) // lag + 1):
        center = int(round(m * refined))
        w_lo = max(center - half, 1)
        w_hi = min(center + half, n - 2)
        if w_lo >= w_hi:
            break
        top = peak(w_lo, w_hi)
        if abs(top / m - refined) > 1.0:
            continue
        lags = np.arange(max(top - 2, 1), min(top + 2, n - 2) + 1)
        weights = np.clip([ac(k) for k in lags], 0.0, None)
        if weights.sum() <= 0.0:
            continue
        num += m * float((lags * weights).sum() / weights.sum())
        den += m * m
    return float(np.clip(60.0 * rate / (num / den), min_bpm, max_bpm))


def _parabolic_offset(y_prev: float, y_mid: float, y_next: float) -> float:
    """Offset in [-1/2, 1/2] of the extremum of the parabola through y at -1, 0, 1."""
    denom = y_prev - 2.0 * y_mid + y_next
    if denom == 0:
        return 0.0
    return float(np.clip(0.5 * (y_prev - y_next) / denom, -0.5, 0.5))


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
        if not 0 < self.bpm < np.inf:
            raise ValueError("bpm must be finite and > 0")
        if self.beats_per_bar < 1:
            raise ValueError("beats_per_bar must be >= 1")
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
    """Place a rigid beat grid at the phase with maximal onset energy.

    Candidate phases are the envelope's frame times inside one period;
    each is scored by summing the envelope at the frames nearest its
    beats (first maximum wins).  The downbeat offset likewise maximises
    mean onset strength.  The clip must cover at least one bar.
    """
    if not 0 < bpm < np.inf:
        raise ValueError("bpm must be finite and > 0")
    if beats_per_bar < 1:
        raise ValueError("beats_per_bar must be >= 1")
    period = 60.0 / bpm
    duration = envelope.duration_s
    if duration < beats_per_bar * period:
        raise ValueError(
            f"clip covers {duration:.2f} s; need a full bar ({beats_per_bar * period:.2f} s)"
        )
    rate = envelope.frame_rate_hz
    values = envelope.values

    def beats_from(phase: float) -> np.ndarray:
        count = int(np.floor((duration - phase) / period)) + 1
        return phase + period * np.arange(count)

    def score(times: np.ndarray) -> float:
        idx = np.clip(np.rint(times * rate).astype(np.int64), 0, envelope.n_frames - 1)
        return float(values[idx].sum())

    best_phase = 0.0
    best_score = -np.inf
    for j in range(int(np.ceil(period * rate))):
        phase = j / rate
        if phase >= period:
            break
        s = score(beats_from(phase))
        if s > best_score:
            best_phase, best_score = phase, s
    beats = beats_from(best_phase)

    def local_energy(t: float) -> float:
        # Onset mass near t, not a point read: a narrow flux spike may
        # sit one frame either side of the rounded beat index.
        center = int(round(t * rate))
        lo = max(center - 2, 0)
        hi = min(center + 3, envelope.n_frames)
        return float(values[lo:hi].sum())

    best_offset = 0
    best_mean = -np.inf
    for offset in range(min(beats_per_bar, len(beats))):
        subset = beats[offset::beats_per_bar]
        mean = float(np.mean([local_energy(t) for t in subset]))
        if mean > best_mean:
            best_offset, best_mean = offset, mean
    return BeatGrid(beats, beats[best_offset::beats_per_bar], float(bpm), beats_per_bar)


BEAT_GRID_FORMAT = "beat-grid/v1"


def beat_grid_to_dict(grid: BeatGrid) -> dict:
    return {
        "format": BEAT_GRID_FORMAT,
        "bpm": float(grid.bpm),
        "beats_per_bar": grid.beats_per_bar,
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
