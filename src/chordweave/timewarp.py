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

The offset search scores candidate grains by their correlation with the
continuation of the previous one, coarse to fine: the correlation of
sums of DECIMATION samples picks a coarse lag, and exact scores of the
lags within DECIMATION of it pick the grain.  Each pass takes its best
score, but a score within max(TIE_RELATIVE * |best|, TIE_FLOOR *
|template| * |region|) of the best counts as a tie, and ties go to the
candidate nearest the nominal offset; the coarse pass measures that
distance at full rate.  The floor is a fraction of the Cauchy-Schwarz
bound on every score of the pass (of the box sums, in the coarse one):
where the template and the region share no sound (a click that never
overlaps the region's click), every true score is 0 and the computed
ones are FFT round-off, which must not move the grain.  The search may
miss the grain an exhaustive search of every lag would take, but only
where the box sums rank the candidates differently from the exact
scores.

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

# The offset search's coarse pass scores sums of this many samples (added
# in pairs of pairs by _box_sums), and its refine pass the full-rate lags
# within this many of the coarse pick.
DECIMATION = 4

# The least length, in samples, worth a second thread; see the module
# docstring.  About 45 s at 44.1 kHz.  _thread_count applies it to the
# warp's output and to pipeline.prepare_conditioning's input.  Medians of
# interleaved runs on a 2-vCPU guest, one thread against two:
# - prepare_conditioning's analysis split pays from about 45 s (2.0M
#   samples): 51 against 35 ms at 45 s, 70 against 38 ms at 60 s.
# - The warp's groups pay only from about 120 s (5.3M samples): 109
#   against 159 ms at 45 s, 232 against 252 ms at 90 s, 439 against
#   324 ms at 150 s.  Below that, each group's search holds so few
#   segments that its steps are mostly interpreter work, which the
#   threads take turns at.
PARALLEL_MIN_SAMPLES = 2_000_000

# A distance past every candidate's, for scores outside the near-tie band.
_FAR = np.iinfo(np.int64).max

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


def _rows(
    x: np.ndarray, windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Row i holds x[starts[i] : starts[i] + lengths[i]], zero-padded to the window width.

    `windows` is x's sliding window view; full rows are copied from it,
    and only the short ones are cut to length.
    """
    rows = windows[np.minimum(starts, len(windows) - 1)]
    for i in (lengths < rows.shape[1]).nonzero()[0].tolist():
        rows[i, : lengths[i]] = x[starts[i] : starts[i] + lengths[i]]
        rows[i, lengths[i] :] = 0.0
    return rows


def _box_sums(rows: np.ndarray, out: np.ndarray, pairs: np.ndarray):
    """out[:, i] = (rows[:, 4i] + rows[:, 4i + 1]) + (rows[:, 4i + 2] + rows[:, 4i + 3]),
    the sums of DECIMATION = 4 samples added in pairs.

    `rows` holds 4 * out.shape[1] columns, and `pairs` is scratch of half
    as many.
    """
    np.add(rows[:, 0::2], rows[:, 1::2], out=pairs)
    np.add(pairs[:, 0::2], pairs[:, 1::2], out=out)


def _norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a[i]| * |b[i]| for every row i."""
    return np.sqrt(np.einsum("ij,ij->i", a, a)) * np.sqrt(np.einsum("ij,ij->i", b, b))


def _pick(scores: np.ndarray, norms: np.ndarray, distance: np.ndarray) -> np.ndarray:
    """Each row's chosen column by the near-tie rule: of the scores within
    tolerance of the row's best, the one of least `distance` from the
    nominal offset, the first of equally near ones.  `distance` is
    overwritten."""
    best = scores.max(axis=1)
    near_tol = np.maximum(TIE_RELATIVE * np.abs(best), TIE_FLOOR * norms)
    distance[scores < (best - near_tol)[:, None]] = _FAR
    return np.argmin(distance, axis=1)


def _search_offsets(mono: np.ndarray, spans, config: WsolaConfig) -> list[np.ndarray]:
    """Chosen analysis start of every grain of every span of `mono`.

    `spans` holds (offset, length, target_len) triples, one per segment
    to stretch; the starts come back relative to each segment.  Segments
    are independent, so step k searches the k-th grain of every segment
    that has one, one row each, coarse to fine:

    - Coarse: the template and the search region x[lo : hi + grain],
      both zero past the segment's end, are gathered from `mono` and
      summed in boxes of DECIMATION samples from their first sample.  The
      box sums are correlated with one row-wise FFT of size
      next_pow2(ceil((2 * search_tolerance + frame_length) / DECIMATION)),
      512 by default: the correlation is circular, but no searched coarse
      lag reads past the end of its row.  Coarse lag c, which sums the
      products of the lags within DECIMATION of DECIMATION * c, is
      searched where DECIMATION * c lies inside the window, and the
      near-tie rule picks one, measuring DECIMATION * c from nominal.
    - Refine: the lags DECIMATION * (c - 1) ... DECIMATION * (c + 1)
      inside the window are scored with exact dot products, and the
      near-tie rule picks the grain among them.

    The box sums go to buffers allocated once per search.
    """
    grain, hop, tol = config.frame_length, config.hop, config.search_tolerance
    # Segments in order of falling grain count, so that the segments a step
    # searches are always the first rows.
    counts = np.array([-(-(target_len - grain) // hop) + 1 for _, _, target_len in spans])
    order = np.argsort(-counts, kind="stable")
    offset, n, target = (np.array([spans[i][col] for i in order], np.int64) for col in range(3))
    counts = counts[order]
    steps = counts[0]
    searched = np.count_nonzero(counts[:, None] > np.arange(steps), axis=0)
    width = 2 * tol + grain
    box_grain, box_width = -(-grain // DECIMATION), -(-width // DECIMATION)
    size = 1 << (box_width - 1).bit_length()
    coarse_lags = DECIMATION * np.arange(2 * tol // DECIMATION + 1)
    fine_taps = np.arange(2 * DECIMATION + 1)
    # Templates and regions are gathered as whole boxes, and the refine's
    # lags read one run each.
    widths = DECIMATION * box_grain, DECIMATION * box_width, grain + 2 * DECIMATION
    if len(mono) < max(widths):  # too short for the window views
        mono = np.concatenate([mono, np.zeros(max(widths) - len(mono))])
    template_windows, region_windows, fine_sources = (
        np.lib.stride_tricks.sliding_window_view(mono, w) for w in widths
    )
    # The FFT's inputs, zero past the box sums each step writes.
    box_templates = np.zeros((len(spans), size))
    box_regions = np.zeros((len(spans), size))
    pairs = np.empty((len(spans), 2 * box_width))
    # Row k holds step k: each grain's nominal start, as round(k * hop * n /
    # target_len) in Python for products below 2**53, clamped to the
    # segment, and its window, which starts at `window_at` in `mono` and
    # holds window_span + 1 starts.  `ahead` is nominal less the window's
    # first start.
    nominal = np.rint(np.arange(steps)[:, None] * hop * n / target).astype(np.int64)
    nominal = np.clip(nominal, 0, n - grain)
    lo = np.maximum(nominal - tol, 0)
    window_span = np.minimum(nominal + tol, n - grain) - lo
    window_at = offset + lo
    ahead = nominal - lo
    # Chosen starts, in `mono`; each segment's first grain takes its first sample.
    starts = np.empty((steps, len(spans)), np.int64)
    starts[0] = offset
    for k in range(1, steps):
        r = searched[k]
        at, span = window_at[k, :r], window_span[k, :r]
        # The template continues the previous grain and is zero past the
        # segment's end; the region is the window's starts plus one grain.
        follow = starts[k - 1, :r] + hop
        ends = offset[:r] + n[:r]
        template = _rows(mono, template_windows, follow, np.minimum(ends - follow, grain))
        region = _rows(mono, region_windows, at, span + grain)
        box_template, box_region = box_templates[:r], box_regions[:r]
        _box_sums(template, box_template[:, :box_grain], pairs[:r, : 2 * box_grain])
        _box_sums(region, box_region[:, :box_width], pairs[:r])
        spectrum = np.fft.rfft(box_template)
        np.conjugate(spectrum, out=spectrum)
        spectrum *= np.fft.rfft(box_region)
        scores = np.fft.irfft(spectrum, size)[:, : coarse_lags.size]
        # Coarse lags past the window's last start lie outside it.
        clipped = (span < coarse_lags[-1]).nonzero()[0]
        scores[clipped] = np.where(coarse_lags <= span[clipped, None], scores[clipped], -np.inf)
        # Near-ties resolve toward the nominal offset: in silence every
        # score is ~0 and a bare argmax would drag each grain to the
        # window edge, shifting content and never reading the last
        # samples of the buffer.
        distance = np.abs(coarse_lags - ahead[k, :r, None])
        coarse = coarse_lags[_pick(scores, _norms(box_template, box_region), distance)]
        # Exact scores of the lags within DECIMATION of the coarse one.  Their
        # run starts DECIMATION lags before it, or where `mono` lets it, and
        # its lags outside that range or outside the window score -inf.
        first = np.clip(at + coarse - DECIMATION, 0, len(fine_sources) - 1)
        run = fine_sources[first]
        windows = np.lib.stride_tricks.as_strided(
            run, (r, fine_taps.size, grain), (run.strides[0], run.strides[1], run.strides[1])
        )
        fine = np.matmul(template[:, None, None, :grain], windows[..., None])[..., 0, 0]
        lags = (first - at)[:, None] + fine_taps
        outside = (lags < np.maximum(coarse - DECIMATION, 0)[:, None]) | (
            lags > np.minimum(coarse + DECIMATION, span)[:, None]
        )
        fine[outside] = -np.inf
        chosen = _pick(fine, _norms(template, region), np.abs(lags - ahead[k, :r, None]))
        starts[k, :r] = first + chosen
    chosen_starts = [None] * len(spans)
    for row, i in enumerate(order):
        chosen_starts[i] = starts[: counts[row], row] - offset[row]
    return chosen_starts


def _overlap_add(
    x: np.ndarray,
    starts: np.ndarray,
    out: np.ndarray,
    config: WsolaConfig,
    halves: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray],
):
    """Overlap-add the Hann-windowed grains x[:, s : s + grain] for s in starts into out.

    Grain k lands at k * hop, half a grain apart; the sum is divided by
    the summed window where that exceeds 1e-8, and its first
    out.shape[1] samples are written.  Every start must leave a whole
    grain inside x.  `halves` is the Hann window as two rows of one hop,
    and `scratch` is _ola_scratch for at least len(starts) grains, which
    this overwrites.

    The sum is laid out as rows of one hop each: grain k adds its first
    half to output row k and its second half to row k + 1.  No output
    sample has more than those two addends, and a sum of two is the same
    in either order, so the result is bit-identical to a loop over grains.
    """
    grain, hop = config.frame_length, config.hop
    n_grains = len(starts)
    window = halves.reshape(-1)
    sums, windowed = scratch
    total, weight = sums[:, : n_grains + 1]
    weight.fill(0.0)
    weight[:-1] += halves[0]
    weight[1:] += halves[1]
    weight = weight.reshape(-1)[: out.shape[1]]
    divide = weight > 1e-8
    for ch, dest in zip(x, out):
        grains = np.lib.stride_tricks.sliding_window_view(ch, grain)
        total.fill(0.0)
        for first in range(0, n_grains, _OLA_BLOCK):
            block = starts[first : first + _OLA_BLOCK]
            chunks = windowed[: len(block)]
            np.multiply(grains[block], window, out=chunks)
            chunks = chunks.reshape(len(block), 2, hop)
            total[first : first + len(block)] += chunks[:, 0]
            total[first + 1 : first + 1 + len(block)] += chunks[:, 1]
        dest[:] = total.reshape(-1)[: len(dest)]
        np.divide(dest, weight, out=dest, where=divide)


def _ola_scratch(n_grains: int, config: WsolaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for _overlap_add of up to n_grains grains: the sum and the
    summed window as rows of one hop, and one block of windowed grains.

    A warp reuses them from segment to segment.  Allocated per segment,
    buffers of this size are fresh pages from the system each time, and
    filling those cost the overlap-add more than its arithmetic.
    """
    return (
        np.empty((2, n_grains + 1, config.hop)),
        np.empty((min(n_grains, _OLA_BLOCK), config.frame_length)),
    )


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_count(n_samples: int) -> int:
    """Threads to split work on n_samples samples over: every available CPU
    from PARALLEL_MIN_SAMPLES samples on, else one."""
    return _available_cpus() if n_samples >= PARALLEL_MIN_SAMPLES else 1


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
        scratch = _ola_scratch(max(n_grains[i] for i in group), config)
        for i, starts in zip(group, _search_offsets(mono, group_spans, config)):
            lo, n, _ = spans[i]
            _overlap_add(samples[:, lo : lo + n], starts, slots[i], config, halves, scratch)

    workers = min(_thread_count(out.shape[1]), len(spans))
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
