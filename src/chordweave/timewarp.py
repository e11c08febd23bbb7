"""Time-scale modification by waveform-similarity overlap-add.

Stretching shifts durations without shifting pitch: Hann-windowed grains
are laid down at a fixed synthesis hop while their analysis positions
slide through the input at the stretch ratio, each nudged within a
search tolerance to best continue the previous grain.  Anchor maps apply
a different ratio per segment so specific instants (downbeats) land
exactly where asked.

The offset search scores each candidate grain by its correlation with
the continuation of the previous one and takes the best, but a score
within max(TIE_RELATIVE * |best|, TIE_FLOOR * |template| * |region|) of
the best counts as a tie, and ties go to the candidate nearest the
nominal offset.  The floor is a fraction of the Cauchy-Schwarz bound on
every score: where the template and the region share no sound (a click
that never overlaps the region's click), every true score is 0 and the
computed ones are FFT round-off, which must not move the grain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .beats import BeatGrid

RATIO_MIN = 0.25
RATIO_MAX = 4.0

# Near-tie rule of the offset search; see the module docstring.
TIE_RELATIVE = 1e-6
TIE_FLOOR = 1e-9


@dataclass(frozen=True)
class WsolaConfig:
    """Grain length, synthesis hop (defaults to half a grain), and search range."""

    frame_length: int = 1024
    synthesis_hop: int | None = None
    search_tolerance: int = 512

    def __post_init__(self):
        if self.frame_length < 4 or self.frame_length % 2:
            raise ValueError("frame_length must be an even integer >= 4")
        if self.synthesis_hop is not None and not 0 < self.synthesis_hop <= self.frame_length:
            raise ValueError("synthesis_hop must lie in 1..frame_length")
        if self.search_tolerance < 0:
            raise ValueError("search_tolerance must be >= 0")

    @property
    def hop(self) -> int:
        return self.frame_length // 2 if self.synthesis_hop is None else self.synthesis_hop


def _rows(x: np.ndarray, windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Row i holds x[starts[i] : starts[i] + lengths[i]], zero-padded to the window width.

    `windows` is x's sliding window view; full rows are copied from it,
    and only the short ones are gathered sample by sample.
    """
    width = windows.shape[1]
    rows = windows[np.minimum(starts, len(x) - width)]
    short = np.flatnonzero(lengths < width)
    if short.size:
        taps = np.arange(width)
        at = np.minimum(starts[short, None] + taps, len(x) - 1)
        rows[short] = np.where(taps < lengths[short, None], x[at], 0.0)
    return rows


def _search_offsets(mono: np.ndarray, spans, config: WsolaConfig) -> list[np.ndarray]:
    """Chosen analysis start of every grain of every span of `mono`.

    `spans` holds (offset, length, target_len) triples, one per segment
    to stretch; the starts come back relative to each segment.  Segments
    are independent, so step k searches the k-th grain of every segment
    that has one, one row each.  Templates and search regions are
    gathered from `mono` and correlated with one row-wise FFT of size
    next_pow2(2 * search_tolerance + frame_length): the correlation is
    circular, but no searched lag reads past the end of its row.
    """
    grain, hop, tol = config.frame_length, config.hop, config.search_tolerance
    offset, n, target = (np.array(col, dtype=np.int64) for col in zip(*spans))
    max_start = n - grain
    counts = np.ceil((target - grain) / hop).astype(np.int64) + 1
    starts = np.zeros((len(spans), counts.max()), dtype=np.int64)
    width = 2 * tol + grain
    size = 1 << (width - 1).bit_length()
    if len(mono) < width:  # too short for even one window view
        mono = np.concatenate([mono, np.zeros(width - len(mono))])
    template_windows = np.lib.stride_tricks.sliding_window_view(mono, grain)
    region_windows = np.lib.stride_tricks.sliding_window_view(mono, width)
    lags = np.arange(2 * tol + 1)
    for k in range(1, counts.max()):
        rows = np.flatnonzero(counts > k)
        # As round(k * hop * n / target_len) in Python, for products below 2**53.
        nominal = np.rint(k * hop * n[rows] / target[rows]).astype(np.int64)
        nominal = np.clip(nominal, 0, max_start[rows])
        lo = np.maximum(nominal - tol, 0)
        hi = np.minimum(nominal + tol, max_start[rows])
        # The template continues the previous grain and is zero past the
        # segment's end; the region is x[lo : hi + grain] of the segment.
        follow = starts[rows, k - 1] + hop
        templates = _rows(mono, template_windows, offset[rows] + follow, n[rows] - follow)
        regions = _rows(mono, region_windows, offset[rows] + lo, hi - lo + grain)
        spectrum = np.conj(np.fft.rfft(templates, size))
        spectrum *= np.fft.rfft(regions, size)
        scores = np.fft.irfft(spectrum, size)[:, : lags.size]
        # Lags past hi - lo lie outside the segment's search window.
        clipped = np.flatnonzero(hi - lo < 2 * tol)
        scores[clipped] = np.where(lags <= (hi - lo)[clipped, None], scores[clipped], -np.inf)
        best = scores.max(axis=1)
        norms = np.sqrt(np.einsum("ij,ij->i", templates, templates)) * np.sqrt(
            np.einsum("ij,ij->i", regions, regions)
        )
        near_tol = np.maximum(TIE_RELATIVE * np.abs(best), TIE_FLOOR * norms)
        # Near-ties resolve toward the nominal offset: in silence every
        # score is ~0 and a bare argmax would drag each grain to the
        # window edge, shifting content and never reading the last
        # samples of the buffer.  The first of equally near lags wins.
        distance = np.abs(lags + (lo - nominal)[:, None])
        distance[scores < (best - near_tol)[:, None]] = np.iinfo(np.int64).max
        starts[rows, k] = lo + np.argmin(distance, axis=1)
    return [row[:count] for row, count in zip(starts, counts)]


def _overlap_add(x: np.ndarray, starts: np.ndarray, target_len: int, config: WsolaConfig):
    grain = config.frame_length
    hop = config.hop
    window = np.hanning(grain)
    length = (len(starts) - 1) * hop + grain
    out = np.zeros(length)
    weight = np.zeros(length)
    for k, start in enumerate(starts):
        seg = x[start : start + grain]
        if len(seg) < grain:
            seg = np.concatenate([seg, np.zeros(grain - len(seg))])
        pos = k * hop
        out[pos : pos + grain] += seg * window
        weight[pos : pos + grain] += window
    np.divide(out, weight, out=out, where=weight > 1e-8)
    return out[:target_len]


def _stretch_segments(samples: np.ndarray, bounds, config: WsolaConfig) -> list[np.ndarray]:
    """Stretch samples[:, lo:hi] to exactly target_len samples per (lo, hi, target_len).

    A segment already target_len long passes through as a view, and one
    too short to grain is resampled.  The rest are stretched by WSOLA, with
    grain offsets searched on the channel mean so channels stay
    phase-locked, all segments in one search.
    """
    pieces = [None] * len(bounds)
    spans, grained = [], []
    for i, (lo, hi, target_len) in enumerate(bounds):
        segment = samples[:, lo:hi]
        n = hi - lo
        if n == target_len:
            pieces[i] = segment
        elif target_len == 0:
            pieces[i] = np.zeros((samples.shape[0], 0))
        elif n == 0:
            pieces[i] = np.zeros((samples.shape[0], target_len))
        elif n <= config.frame_length or target_len <= config.frame_length:
            # Too short to grain: fall back to resampling the waveform.
            src = np.arange(n, dtype=np.float64)
            dst = np.linspace(0.0, n - 1, target_len)
            pieces[i] = np.stack([np.interp(dst, src, ch) for ch in segment])
        else:
            spans.append((lo, n, target_len))
            grained.append(i)
    if spans:
        mono = samples.mean(axis=0) if samples.shape[0] > 1 else samples[0]
        for i, (lo, n, target_len), starts in zip(
            grained, spans, _search_offsets(mono, spans, config)
        ):
            pieces[i] = np.stack(
                [_overlap_add(ch[lo : lo + n], starts, target_len, config) for ch in samples]
            )
    return pieces


def wsola_stretch(
    buffer: AudioBuffer, ratio: float, config: WsolaConfig | None = None
) -> AudioBuffer:
    """Stretch a buffer's duration by `ratio` without changing its pitch.

    ratio 2.0 doubles the duration, 0.5 halves it; the allowed range is
    [0.25, 4].  ratio 1.0 returns the samples untouched.  The output
    length is exactly round(ratio * n) samples.
    """
    if config is None:
        config = WsolaConfig()
    if not RATIO_MIN <= ratio <= RATIO_MAX:
        raise ValueError(f"stretch ratio {ratio} outside [{RATIO_MIN}, {RATIO_MAX}]")
    if buffer.n_samples < config.frame_length:
        raise ValueError(
            f"buffer of {buffer.n_samples} samples is too short for "
            f"frame length {config.frame_length}"
        )
    if ratio == 1.0:
        return buffer
    bounds = [(0, buffer.n_samples, int(round(buffer.n_samples * ratio)))]
    return AudioBuffer(_stretch_segments(buffer.samples, bounds, config)[0], buffer.sample_rate)


@dataclass(frozen=True)
class AnchorMap:
    """Finite (source_s, target_s) pairs, strictly increasing, starting at (0, 0)."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = tuple((float(s), float(t)) for s, t in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if len(pairs) < 2:
            raise ValueError("an anchor map needs at least two pairs")
        if pairs[0] != (0.0, 0.0):
            raise ValueError("the first anchor pair must be (0, 0)")
        for (s0, t0), (s1, t1) in zip(pairs, pairs[1:]):
            if not (s0 < s1 < np.inf and t0 < t1 < np.inf):
                raise ValueError("anchor pairs must be finite and strictly increase in both")

    @property
    def source_duration_s(self) -> float:
        return self.pairs[-1][0]

    @property
    def target_duration_s(self) -> float:
        return self.pairs[-1][1]


def build_anchor_map(source: BeatGrid, target: BeatGrid) -> AnchorMap:
    """Pair the k-th source downbeat with the k-th target downbeat.

    The longer downbeat list is truncated to the shorter; a leading
    (0, 0) is supplied when absent.  Leading pairs so close to zero that
    anchoring through the origin would force a ratio outside the legal
    stretch range are dropped rather than breaking the map.
    """
    if not source.downbeats_s or not target.downbeats_s:
        raise ValueError("both grids must contain at least one downbeat")
    pairs = list(zip(source.downbeats_s, target.downbeats_s))
    while pairs:
        s, t = pairs[0]
        if s == 0.0 and t == 0.0:
            break
        if s > 0.0 and t > 0.0 and RATIO_MIN <= t / s <= RATIO_MAX:
            break
        pairs.pop(0)
    if not pairs or pairs[0] != (0.0, 0.0):
        pairs.insert(0, (0.0, 0.0))
    if len(pairs) < 2:
        raise ValueError("not enough usable downbeat pairs to build an anchor map")
    return AnchorMap(tuple(pairs))


def align_to_anchors(
    buffer: AudioBuffer, anchors: AnchorMap, config: WsolaConfig | None = None
) -> AudioBuffer:
    """Warp a buffer piecewise so each source anchor lands on its target.

    Segment i (between consecutive anchor pairs) is stretched by its own
    ratio, which must stay inside [0.25, 4].  The output holds exactly
    round(last_target * rate) samples; input past the last source anchor
    is dropped.
    """
    if config is None:
        config = WsolaConfig()
    rate = buffer.sample_rate
    if round(anchors.source_duration_s * rate) > buffer.n_samples:
        raise ValueError(
            f"last source anchor at {anchors.source_duration_s:g} s lies past "
            f"the {buffer.duration_s:g} s buffer"
        )
    for (s0, t0), (s1, t1) in zip(anchors.pairs, anchors.pairs[1:]):
        ratio = (t1 - t0) / (s1 - s0)
        if not RATIO_MIN <= ratio <= RATIO_MAX:
            raise ValueError(
                f"segment [{s0:g}, {s1:g}] s needs ratio {ratio:.3f}, "
                f"outside [{RATIO_MIN}, {RATIO_MAX}]"
            )
    bounds = [
        (
            min(int(round(s0 * rate)), buffer.n_samples),
            min(int(round(s1 * rate)), buffer.n_samples),
            int(round(t1 * rate)) - int(round(t0 * rate)),
        )
        for (s0, t0), (s1, t1) in zip(anchors.pairs, anchors.pairs[1:])
    ]
    pieces = _stretch_segments(buffer.samples, bounds, config)
    return AudioBuffer(np.concatenate(pieces, axis=1), rate)
