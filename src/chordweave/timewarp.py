"""Time-scale modification by waveform-similarity overlap-add.

Stretching shifts durations without shifting pitch: Hann-windowed grains
are laid down half a grain apart (the synthesis hop is not an option)
while their analysis positions slide through the input at the stretch
ratio, each nudged within a search tolerance to best continue the
previous grain.  Anchor maps apply a different ratio per segment so
specific instants (downbeats) land exactly where asked, and
align_to_anchors is the one way in: a whole-buffer stretch of n samples
by one ratio is the one-segment map ((0, 0), (n / rate,
round(n * ratio) / rate)).

The offset search scores each candidate grain by its correlation with
the continuation of the previous one and takes the best, but a score
within max(TIE_RELATIVE * |best|, TIE_FLOOR * |template| * |region|) of
the best counts as a tie, and ties go to the candidate nearest the
nominal offset.  The floor is a fraction of the Cauchy-Schwarz bound on
every score: where the template and the region share no sound (a click
that never overlaps the region's click), every true score is 0 and the
computed ones are FFT round-off, which must not move the grain.

The warp's output is allocated once and every segment writes its own
slice of it.  Segments are independent once their anchors are fixed, so
when the output holds at least PARALLEL_MIN_SAMPLES samples the WSOLA
segments are split into groups of about equal grain counts, one per CPU
available to the process (at most one per segment): the calling thread
works one group and worker threads the rest, each with its own offset
search.  NumPy's FFTs and array loops release the interpreter lock, so
the groups run side by side.  No segment's arithmetic depends on which
group holds it, so the output is byte-identical to a one-thread run.
Below the threshold, as for short clips, the calling thread warps alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .audio import AudioBuffer
from .beats import BeatGrid

RATIO_MIN = 0.25
RATIO_MAX = 4.0

# Near-tie rule of the offset search; see the module docstring.
TIE_RELATIVE = 1e-6
TIE_FLOOR = 1e-9

# The least output length, in samples, worth a second thread; see the
# module docstring.  About 45 s at 44.1 kHz.  On a 2-vCPU guest, two
# threads warped a 30 s clip (1.3M samples) in 231 ms against 195 ms on
# one, and a 90 s clip (3.9M samples) in 378 ms against 545 ms.
# pipeline.prepare_conditioning applies the same rule to its input.
PARALLEL_MIN_SAMPLES = 2_000_000

# Grains overlap-added per gather, which bounds the gathered grains to
# this many rows whatever the segment's length.
_OLA_BLOCK = 512


@dataclass(frozen=True)
class WsolaConfig:
    """Grain length and search range; grains are laid half a grain apart."""

    frame_length: int = 1024
    search_tolerance: int = 512

    def __post_init__(self):
        if self.frame_length < 4 or self.frame_length % 2:
            raise ValueError("frame_length must be an even integer >= 4")
        if self.search_tolerance < 0:
            raise ValueError("search_tolerance must be >= 0")

    @property
    def hop(self) -> int:
        """The synthesis hop: half a grain."""
        return self.frame_length // 2


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


def _overlap_add(
    x: np.ndarray, starts: np.ndarray, out: np.ndarray, config: WsolaConfig, halves: np.ndarray
):
    """Overlap-add the Hann-windowed grains x[:, s : s + grain] for s in starts into out.

    Grain k lands at k * hop, half a grain apart; the sum is divided by
    the summed window where that exceeds 1e-8, and its first
    out.shape[1] samples are written.  Every start must leave a whole
    grain inside x.  `halves` is the Hann window as two rows of one hop.

    The sum is laid out as rows of one hop each: grain k adds its first
    half to output row k and its second half to row k + 1.  No output
    sample has more than those two addends, and a sum of two is the same
    in either order, so the result is bit-identical to a loop over grains.
    """
    grain, hop = config.frame_length, config.hop
    n_grains = len(starts)
    window = halves.reshape(-1)
    weight = np.zeros((n_grains + 1, hop))
    weight[:-1] += halves[0]
    weight[1:] += halves[1]
    weight = weight.reshape(-1)[: out.shape[1]]
    divide = weight > 1e-8
    windowed = np.empty((min(n_grains, _OLA_BLOCK), grain))
    for ch, dest in zip(x, out):
        grains = np.lib.stride_tricks.sliding_window_view(ch, grain)
        total = np.zeros((n_grains + 1, hop))
        for first in range(0, n_grains, _OLA_BLOCK):
            block = starts[first : first + _OLA_BLOCK]
            chunks = windowed[: len(block)]
            np.multiply(grains[block], window, out=chunks)
            chunks = chunks.reshape(len(block), 2, hop)
            total[first : first + len(block)] += chunks[:, 0]
            total[first + 1 : first + 1 + len(block)] += chunks[:, 1]
        dest[:] = total.reshape(-1)[: len(dest)]
        np.divide(dest, weight, out=dest, where=divide)


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _groups(n_grains: np.ndarray, workers: int) -> list[np.ndarray]:
    """Split segment indices into at most `workers` consecutive runs of about equal grains."""
    total = np.cumsum(n_grains)
    cuts = np.searchsorted(total, total[-1] * np.arange(1, workers) / workers, side="right")
    return [group for group in np.split(np.arange(len(n_grains)), cuts) if group.size]


def _run_split(calls: list) -> list:
    """Every call's result, in order, with the first call on this thread and
    each of the rest on a worker thread of its own.

    Every call finishes before this returns or raises, and the first
    failure in call order is raised; the workers are gone by then.
    """
    if len(calls) == 1:
        return [calls[0]()]
    # Imported here, not at the top: it loads `logging` and `queue`, which
    # nothing else in the package needs, and a process that never splits
    # work (a document or short-clip run) would carry them for nothing.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(calls) - 1) as pool:
        futures = [pool.submit(call) for call in calls[1:]]
        first = calls[0]()
        return [first] + [future.result() for future in futures]


def _stretch_segments(samples: np.ndarray, bounds, config: WsolaConfig) -> np.ndarray:
    """Stretch samples[:, lo:hi] to exactly target_len samples per (lo, hi, target_len).

    The stretched segments come back end to end in one new array.  A
    segment already target_len long is copied, and one too short to
    grain is resampled.  The rest are stretched by WSOLA, with grain
    offsets searched on the channel mean so channels stay phase-locked,
    in one search per group of segments (see the module docstring).
    """
    lengths = [target_len for _, _, target_len in bounds]
    out = np.empty((samples.shape[0], sum(lengths)))
    spans, slots = [], []
    for (lo, hi, target_len), at in zip(bounds, np.cumsum([0] + lengths)):
        dest = out[:, at : at + target_len]
        n = hi - lo
        if n == target_len:
            dest[:] = samples[:, lo:hi]
        elif n == 0:
            dest[:] = 0.0
        elif n <= config.frame_length or target_len <= config.frame_length:
            # Too short to grain: fall back to resampling the waveform.
            src = np.arange(n, dtype=np.float64)
            dst = np.linspace(0.0, n - 1, target_len)
            for ch, row in zip(samples[:, lo:hi], dest):
                row[:] = np.interp(dst, src, ch)
        else:
            spans.append((lo, n, target_len))
            slots.append(dest)
    if not spans:
        return out
    mono = samples.mean(axis=0) if samples.shape[0] > 1 else samples[0]
    grain, hop = config.frame_length, config.hop
    halves = np.hanning(grain).reshape(2, hop)

    def stretch(group):
        group_spans = [spans[i] for i in group]
        for i, starts in zip(group, _search_offsets(mono, group_spans, config)):
            lo, n, _ = spans[i]
            _overlap_add(samples[:, lo : lo + n], starts, slots[i], config, halves)

    workers = 1
    if out.shape[1] >= PARALLEL_MIN_SAMPLES:
        workers = min(_available_cpus(), len(spans))
    n_grains = [-(-(target_len - grain) // hop) + 1 for _, _, target_len in spans]
    groups = _groups(np.array(n_grains), workers)
    _run_split([partial(stretch, group) for group in groups])
    return out


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
    return AudioBuffer._adopt(_aligned_samples(buffer, anchors, config), buffer.sample_rate)


def _aligned_samples(
    buffer: AudioBuffer, anchors: AnchorMap, config: WsolaConfig | None = None
) -> np.ndarray:
    """align_to_anchors' samples, in a new writable array no one else holds."""
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
    return _stretch_segments(buffer.samples, bounds, config)
