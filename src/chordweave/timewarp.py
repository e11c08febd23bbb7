"""Time-scale modification by waveform-similarity overlap-add.

Stretching shifts durations without shifting pitch: Hann-windowed grains
are laid down half a grain apart (the synthesis hop is not an option)
while their analysis positions follow a time map through the input, each
nudged within a search tolerance to best continue the previous grain.
An anchor map, piecewise linear between its pairs, is that time map, so
specific instants (downbeats) land exactly where asked.  align_to_anchors
is the one way in: a whole-buffer stretch of n samples by one ratio is
the one-segment map ((0, 0), (n / rate, round(n * ratio) / rate)).

One grain grid and one overlap-add span the whole output, so nothing is
cut at an anchor.  Grain k lands at output sample k * hop, and its
nominal source start is the map read there.  Each interior anchor, at
source sample S and target sample T, holds a pair of grains: the pin,
grain k = T // hop - 1, starts at S - T + k * hop, which puts S exactly
at output T in its second half, and grain k - 1 one hop earlier in the
source, so the pair plays the source unbroken from one to two hops
before the anchor on.  The grains before the pair fade into it there,
away from the transient a downbeat anchor marks; the pin alone would
end that fade up to one hop before the anchor.  The offset search
restarts after each pair: each pin and the grains after it up to the
next pair form a chain, whose nominal starts are the map shifted to
pass through the pin, and no grain of a chain starts later than one
grain before the next pair, so none carries the next anchor's sound
early.

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

Chains are independent, so when the output holds at least
WARP_PARALLEL_MIN_SAMPLES samples the warp runs on one thread per CPU
available to the process, in two phases: groups of chains of about
equal grain counts are searched side by side, and then ranges of the
output of about equal length are overlap-added side by side.  The
calling thread takes the first of each, and NumPy's FFTs and array
loops release the interpreter lock.  No chain's or range's arithmetic
depends on its thread, so the output is byte-identical to a one-thread
run.  Below the threshold, as for short clips, the calling thread warps
alone.
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
# docstring.  _thread_count applies PARALLEL_MIN_SAMPLES (about 45 s at
# 44.1 kHz) to pipeline.prepare_conditioning's input and
# WARP_PARALLEL_MIN_SAMPLES (about 104 s) to the warp's output.  Medians
# of interleaved runs on a 2-vCPU guest, one thread against two:
# - prepare_conditioning's analysis split pays from about 45 s (2.0M
#   samples): 51 against 35 ms at 45 s, 70 against 38 ms at 60 s.
# - The warp over the whole buffer, a 126 BPM click track warped onto
#   120 BPM bars (7 runs a length): 86 against 102 ms at 45 s, 114
#   against 172 ms at 60 s, 132 against 159 ms at 75 s, 157 against
#   180 ms at 90 s, 173 against 163 ms at 105 s and 212 against 172 ms
#   at 120 s; two threads won 1, 0, 0, 3, 5 and 6 of 7.  Below about
#   100 s each group's coarse-to-fine search holds so few segments that
#   its steps are mostly interpreter work, which the threads take turns
#   at.
PARALLEL_MIN_SAMPLES = 2_000_000
WARP_PARALLEL_MIN_SAMPLES = 4_600_000

# A distance past every candidate's, for scores outside the near-tie band.
_FAR = np.iinfo(np.int64).max

# Output rows of one hop overlap-added per gather, which bounds the
# gathered grains to one more than this whatever the output's length.
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


def _chains(src: np.ndarray, dst: np.ndarray, n: int, config: WsolaConfig) -> list:
    """The warp's grains as chains of (nominal starts, last start).

    `src` and `dst` hold the anchors' source and target sample positions,
    dst[-1] > 0, and n >= frame_length is the buffer's length.  Grain k's
    map start is src[j] + rint((k * hop - dst[j]) * (src[j + 1] - src[j])
    / (dst[j + 1] - dst[j])) in the segment j that holds k * hop.  Chains
    start at grain 0 and at each grain of each held pair (see the module
    docstring), and a pair that would reach back to grain 0 or the last
    pair is not held.  A chain's first grain takes its held start, and
    the rest the map starts shifted through it, clamped to [0, last].
    """
    grain, hop = config.frame_length, config.hop
    n_grains = max(-(-(dst[-1] - grain) // hop), 0) + 1
    at = np.arange(n_grains) * hop
    j = np.searchsorted(dst, at, side="right") - 1
    step = (at - dst[j]) * (src[j + 1] - src[j]) / (dst[j + 1] - dst[j])
    mapped = src[j] + np.rint(step).astype(np.int64)
    heads = [(0, 0)]  # each chain's first grain and its start
    for s, t in zip(src[1:-1], dst[1:-1]):
        k = t // hop - 1
        if k - 1 > heads[-1][0]:
            pin = min(max(s - t + k * hop, 0), n - grain)
            heads += [(k - 1, max(pin - hop, 0)), (k, pin)]
    chains = []
    for (first, start), (stop, end) in zip(heads, heads[1:] + [(n_grains, n)]):
        last = max(end - grain, 0)
        nominal = np.clip(mapped[first:stop] + (start - mapped[first]), 0, last)
        nominal[0] = start
        chains.append((nominal, last))
    return chains


def _search_offsets(mono: np.ndarray, chains, config: WsolaConfig) -> list[np.ndarray]:
    """Chosen start, in `mono`, of every grain of every chain.

    `chains` holds (nominal starts, last start) pairs as _chains gives
    them.  A chain's first grain takes its nominal start; each later one
    is searched among the starts within search_tolerance of its nominal
    start, and at most the chain's last start.  Chains are independent,
    so step k searches the k-th grain of every chain that has one, one
    row each, coarse to fine:

    - Coarse: the template, which continues the previous grain and is
      zero past the end of `mono`, and the search region x[lo : hi +
      grain] are gathered from `mono` and summed in boxes of DECIMATION
      samples from their first sample.  The box sums are correlated with
      one row-wise FFT of size next_pow2(ceil((2 * search_tolerance +
      frame_length) / DECIMATION)), 512 by default: the correlation is
      circular, but no searched coarse lag reads past the end of its row.
      Coarse lag c, which sums the products of the lags within DECIMATION
      of DECIMATION * c, is searched where DECIMATION * c lies inside the
      window, and the near-tie rule picks one, measuring DECIMATION * c
      from nominal.
    - Refine: the lags DECIMATION * (c - 1) ... DECIMATION * (c + 1)
      inside the window are scored with exact dot products, and the
      near-tie rule picks the grain among them.

    The box sums go to buffers allocated once per search.
    """
    grain, hop, tol = config.frame_length, config.hop, config.search_tolerance
    n = len(mono)
    # Chains in order of falling grain count, so that the chains a step
    # searches are always the first rows.
    counts = np.array([len(nominal) for nominal, _ in chains])
    order = np.argsort(-counts, kind="stable")
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
    if n < max(widths):  # too short for the window views
        mono = np.concatenate([mono, np.zeros(max(widths) - n)])
    template_windows, region_windows, fine_sources = (
        np.lib.stride_tricks.sliding_window_view(mono, w) for w in widths
    )
    # The FFT's inputs, zero past the box sums each step writes.
    box_templates = np.zeros((len(chains), size))
    box_regions = np.zeros((len(chains), size))
    pairs = np.empty((len(chains), 2 * box_width))
    # Row k holds step k: each grain's nominal start and its window, which
    # starts at `lo` and holds window_span + 1 starts.  `ahead` is nominal
    # less the window's first start.
    nominal = np.zeros((steps, len(chains)), np.int64)
    for row, i in enumerate(order):
        nominal[: counts[row], row] = chains[i][0]
    last = np.array([chains[i][1] for i in order])
    lo = np.maximum(nominal - tol, 0)
    window_span = np.minimum(nominal + tol, last) - lo
    ahead = nominal - lo
    starts = np.empty((steps, len(chains)), np.int64)
    starts[0] = nominal[0]
    for k in range(1, steps):
        r = searched[k]
        at, span = lo[k, :r], window_span[k, :r]
        # The template continues the previous grain; the region is the
        # window's starts plus one grain.
        follow = starts[k - 1, :r] + hop
        template = _rows(mono, template_windows, follow, np.minimum(n - follow, grain))
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
    return [starts[: counts[row], row] for row in np.argsort(order)]


def _overlap_add(
    x: np.ndarray, starts: np.ndarray, out: np.ndarray, r0: int, r1: int, halves: np.ndarray
):
    """Rows r0 to r1 - 1 of out (row r holds samples r * hop to (r + 1) *
    hop) from the Hann-windowed grains x[:, s : s + grain], s in starts.

    Row r sums the first half of grain r and the second half of grain
    r - 1, where those exist, divided by their summed window where that
    exceeds 1e-8.  A sum of two is the same in either order, so the rows
    are bit-identical to a loop over grains however they are split
    between calls.  Every start must leave a whole grain inside x.
    `halves` is the Hann window as two rows of one hop.
    """
    hop = halves.shape[1]
    grains = [np.lib.stride_tricks.sliding_window_view(ch, 2 * hop) for ch in x]
    total = np.empty((_OLA_BLOCK, hop))
    windowed = np.empty((_OLA_BLOCK + 1, 2, hop))
    for b0 in range(r0, r1, _OLA_BLOCK):
        b1 = min(b0 + _OLA_BLOCK, r1)
        # Rows b0 to b1 - 1 take halves of grains g0 to g1 - 1: grain
        # b0 - 1, when it exists, lends its second half only.
        g0, g1 = max(b0 - 1, 0), min(b1, len(starts))
        lent = b0 - g0
        block = starts[g0:g1]
        weight = np.broadcast_to(halves[0] + halves[1], (b1 - b0, hop))
        if b0 == 0 or b1 > len(starts):  # an end row holds one grain's half
            row = np.arange(b0, b1)[:, None]
            weight = (row < len(starts)) * halves[0] + (row > 0) * halves[1]
        divide = weight > 1e-8
        rows = total[: b1 - b0]
        for ch, dest in zip(grains, out):
            chunks = windowed[: len(block)]
            np.multiply(ch[block].reshape(-1, 2, hop), halves, out=chunks)
            seconds = chunks[: b1 - 1 - g0, 1]
            rows.fill(0.0)
            rows[: len(block) - lent] += chunks[lent:, 0]
            rows[1 - lent : 1 - lent + len(seconds)] += seconds
            np.divide(rows, weight, out=rows, where=divide)
            span = dest[b0 * hop : b1 * hop]
            span[:] = rows.reshape(-1)[: len(span)]


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_count(n_samples: int, warp: bool = False) -> int:
    """Threads to split work on n_samples samples over: every available CPU
    from WARP_PARALLEL_MIN_SAMPLES samples on for the warp, or from
    PARALLEL_MIN_SAMPLES for the analysis, else one."""
    least = WARP_PARALLEL_MIN_SAMPLES if warp else PARALLEL_MIN_SAMPLES
    return _available_cpus() if n_samples >= least else 1


def _groups(n_grains: np.ndarray, workers: int) -> list[np.ndarray]:
    """Split chain indices into at most `workers` consecutive runs of about equal grains."""
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
    """Warp a buffer along an anchor map so each source anchor lands on its target.

    Each segment's ratio, target over source duration, must stay inside
    [0.25, 4], and each interior anchor lands exactly (see the module
    docstring).  The output holds exactly round(last_target * rate)
    samples; input past the last source anchor is dropped, but for what
    the last grains read.
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
    src = np.array([min(int(round(s * rate)), buffer.n_samples) for s, _ in anchors.pairs])
    dst = np.array([int(round(t * rate)) for _, t in anchors.pairs])
    samples, length = buffer.samples, int(dst[-1])
    if length == 0 or np.array_equal(src, dst):  # the identity map, or no output
        return samples[:, :length].copy()
    grain, hop = config.frame_length, config.hop
    if samples.shape[1] < grain:  # zeros stand in past the end for the one grain
        samples = np.pad(samples, ((0, 0), (0, grain - samples.shape[1])))
    chains = _chains(src, dst, samples.shape[1], config)
    # Offsets are searched on the channel mean, so channels stay phase-locked.
    mono = samples.mean(axis=0) if samples.shape[0] > 1 else samples[0]
    firsts = np.cumsum([0] + [len(nominal) for nominal, _ in chains])
    starts = np.empty(firsts[-1], np.int64)

    def search(group):
        for i, chosen in zip(group, _search_offsets(mono, [chains[i] for i in group], config)):
            starts[firsts[i] : firsts[i + 1]] = chosen

    workers = _thread_count(length, warp=True)
    _run_split([partial(search, g) for g in _groups(np.diff(firsts), min(workers, len(chains)))])
    out = np.empty((samples.shape[0], length))
    halves = np.hanning(grain).reshape(2, hop)
    rows = -(-length // hop)
    cuts = [rows * i // workers for i in range(workers + 1)]
    ranges = [(r0, r1) for r0, r1 in zip(cuts, cuts[1:]) if r1 > r0]
    _run_split([partial(_overlap_add, samples, starts, out, *rs, halves) for rs in ranges])
    return out
