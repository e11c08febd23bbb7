import sys
import threading
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from chordweave import timewarp
from chordweave.audio import AudioBuffer, to_mono
from chordweave.beats import BeatGrid
from chordweave.synth import chord_tones, click_track, concat, mix, sine
from chordweave.timewarp import (
    RATIO_MAX,
    AnchorMap,
    WsolaConfig,
    _search_offsets,
    align_to_anchors,
    build_anchor_map,
)

from test_audio import stft

SR = 44100


# The per-grain WSOLA that the batched search replaced, kept as the
# reference: the same coarse-to-fine search one grain at a time, segment
# after segment, with box sums by slicing, the coarse correlation by
# np.correlate and the refine by np.dot.


def _box_sums(x, boxes):
    """Sums of 4 samples of x, zero-padded to `boxes` boxes, from its first
    sample, added in pairs."""
    x = np.concatenate([x, np.zeros(4 * boxes - len(x))])
    return (x[0::4] + x[1::4]) + (x[2::4] + x[3::4])


def _near_nominal(scores, lags, nominal, floor):
    """The near-tie rule: of the lags scoring within tolerance of the best,
    the nearest to nominal, the first of equally near ones."""
    best = scores.max()
    near = lags[scores >= best - max(1e-6 * abs(best), floor)]
    return int(near[np.argmin(np.abs(near - nominal))])


def _reference_offsets(x, target_len, config):
    n, grain, hop, tol = len(x), config.frame_length, config.hop, config.search_tolerance
    max_start = n - grain
    n_grains = 1 if target_len <= grain else int(np.ceil((target_len - grain) / hop)) + 1
    starts = np.zeros(n_grains, dtype=np.int64)
    prev = 0
    for k in range(n_grains):
        nominal = min(max(int(round(k * hop * n / target_len)), 0), max_start)
        if k == 0:
            starts[0] = prev = nominal
            continue
        template = x[prev + hop : prev + hop + grain]
        template = np.concatenate([template, np.zeros(grain - len(template))])
        lo = max(nominal - tol, 0)
        hi = min(nominal + tol, max_start)
        region = x[lo : hi + grain]
        coarse_template = _box_sums(template, -(-grain // 4))
        coarse_region = _box_sums(region, -(-(2 * tol + grain) // 4))
        coarse = np.correlate(coarse_region, coarse_template, "valid")[: (hi - lo) // 4 + 1]
        floor = 1e-9 * np.linalg.norm(coarse_template) * np.linalg.norm(coarse_region)
        at = _near_nominal(coarse, 4 * np.arange(len(coarse)), nominal - lo, floor)
        lags = np.arange(max(at - 4, 0), min(at + 4, hi - lo) + 1)
        fine = np.array([np.dot(template, region[lag : lag + grain]) for lag in lags])
        floor = 1e-9 * np.linalg.norm(template) * np.linalg.norm(region)
        starts[k] = prev = lo + _near_nominal(fine, lags, nominal - lo, floor)
    return starts


def _reference_overlap_add(x, starts, target_len, config):
    grain, hop = config.frame_length, config.hop
    window = np.hanning(grain)
    length = (len(starts) - 1) * hop + grain
    out = np.zeros(length)
    weight = np.zeros(length)
    for k, start in enumerate(starts):
        seg = x[start : start + grain]
        seg = np.concatenate([seg, np.zeros(grain - len(seg))])
        out[k * hop : k * hop + grain] += seg * window
        weight[k * hop : k * hop + grain] += window
    np.divide(out, weight, out=out, where=weight > 1e-8)
    return out[:target_len]


def _reference_to_length(samples, target_len, config):
    n = samples.shape[1]
    if n == target_len:
        return samples.copy()
    if target_len == 0:
        return np.zeros((samples.shape[0], 0))
    if n == 0:
        return np.zeros((samples.shape[0], target_len))
    if n <= config.frame_length or target_len <= config.frame_length:
        dst = np.linspace(0.0, n - 1, target_len)
        return np.stack([np.interp(dst, np.arange(n, dtype=np.float64), ch) for ch in samples])
    mono = samples.mean(axis=0) if samples.shape[0] > 1 else samples[0]
    starts = _reference_offsets(mono, target_len, config)
    return np.stack([_reference_overlap_add(ch, starts, target_len, config) for ch in samples])


# The warp along a whole anchor map, one grain at a time: the map read at
# each grain's output position, a held pair of grains per interior anchor,
# each chain's nominal starts shifted through its first grain and capped
# one grain before the next pair, one search per grain and one
# overlap-add.  On a one-segment map it is _reference_to_length's WSOLA.


def _reference_chains(n, src, dst, config):
    """Each chain's (nominal starts, last start) over a buffer of n >= grain samples."""
    grain, hop = config.frame_length, config.hop
    n_grains = 1 if dst[-1] <= grain else int(np.ceil((dst[-1] - grain) / hop)) + 1

    def mapped(k):
        j = max(i for i in range(len(dst) - 1) if dst[i] <= k * hop)
        return src[j] + round((k * hop - dst[j]) * (src[j + 1] - src[j]) / (dst[j + 1] - dst[j]))

    heads = [(0, 0)]
    for s, t in zip(src[1:-1], dst[1:-1]):
        k = t // hop - 1
        if k - 1 > heads[-1][0]:
            pin = min(max(s - t + k * hop, 0), n - grain)
            heads += [(k - 1, max(pin - hop, 0)), (k, pin)]
    chains = []
    for (first, start), (stop, end) in zip(heads, heads[1:] + [(n_grains, n)]):
        last, shift = max(end - grain, 0), start - mapped(first)
        nominal = [min(max(mapped(k) + shift, 0), last) for k in range(first + 1, stop)]
        chains.append(([start] + nominal, last))
    return chains


def _reference_chain_offsets(x, nominal, last, config):
    grain, hop, tol = config.frame_length, config.hop, config.search_tolerance
    starts = [nominal[0]]
    for k in range(1, len(nominal)):
        prev = starts[-1]
        template = x[prev + hop : prev + hop + grain]
        template = np.concatenate([template, np.zeros(grain - len(template))])
        lo = max(nominal[k] - tol, 0)
        hi = min(nominal[k] + tol, last)
        region = x[lo : hi + grain]
        coarse_template = _box_sums(template, -(-grain // 4))
        coarse_region = _box_sums(region, -(-(2 * tol + grain) // 4))
        coarse = np.correlate(coarse_region, coarse_template, "valid")[: (hi - lo) // 4 + 1]
        floor = 1e-9 * np.linalg.norm(coarse_template) * np.linalg.norm(coarse_region)
        at = _near_nominal(coarse, 4 * np.arange(len(coarse)), nominal[k] - lo, floor)
        lags = np.arange(max(at - 4, 0), min(at + 4, hi - lo) + 1)
        fine = np.array([np.dot(template, region[lag : lag + grain]) for lag in lags])
        floor = 1e-9 * np.linalg.norm(template) * np.linalg.norm(region)
        starts.append(lo + _near_nominal(fine, lags, nominal[k] - lo, floor))
    return starts


def reference_align(buffer, anchors, config):
    rate, n = buffer.sample_rate, buffer.n_samples
    src = [min(int(round(s * rate)), n) for s, _ in anchors.pairs]
    dst = [int(round(t * rate)) for _, t in anchors.pairs]
    if src == dst:
        return buffer.samples[:, : dst[-1]].copy()
    # A buffer shorter than a grain reads zeros past its end.
    samples = np.pad(buffer.samples, ((0, 0), (0, max(config.frame_length - n, 0))))
    mono = samples.mean(axis=0)
    starts = []
    for chain in _reference_chains(samples.shape[1], src, dst, config):
        starts += _reference_chain_offsets(mono, *chain, config)
    return np.stack([_reference_overlap_add(ch, starts, dst[-1], config) for ch in samples])


def _one_segment_chains(n, target_len, config):
    """The grain chains of n samples stretched to target_len as one segment."""
    return timewarp._chains(np.array([0, n]), np.array([0, target_len]), n, config)


def stretch(buffer, ratio, config=None):
    """The whole buffer stretched by one ratio: a one-segment anchor map."""
    n, rate = buffer.n_samples, buffer.sample_rate
    return align_to_anchors(buffer, AnchorMap(((0.0, 0.0), (n / rate, round(n * ratio) / rate))), config)


def dominant_bin(buffer):
    return int(np.argmax(stft(to_mono(buffer), 4096, 1024).mean(axis=0)))


def uniform_grid(bpm, n_beats, beats_per_bar=4, offset=0):
    beats = tuple(k * 60.0 / bpm for k in range(n_beats))
    return BeatGrid(beats, beats[offset::beats_per_bar], bpm=bpm, beats_per_bar=beats_per_bar)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5, 2.0])
def test_stretch_duration_and_pitch(ratio):
    tone = sine(440.0, 2.0, SR)
    out = stretch(tone, ratio)
    target = round(tone.n_samples * ratio)
    assert abs(out.n_samples - target) <= WsolaConfig().hop
    assert dominant_bin(out) == dominant_bin(tone)


def test_stretch_identity_is_verbatim():
    tone = sine(440.0, 1.0, SR)
    out = stretch(tone, 1.0)
    assert np.array_equal(np.asarray(out.samples), np.asarray(tone.samples))


def test_stretch_rejects_out_of_range_ratio():
    tone = sine(440.0, 1.0, SR)
    with pytest.raises(ValueError):
        stretch(tone, 0.2)
    with pytest.raises(ValueError):
        stretch(tone, 4.5)


def test_stretch_preserves_channels():
    stereo = AudioBuffer(np.stack([np.sin(np.arange(SR) * 0.1), np.cos(np.arange(SR) * 0.1)]), SR)
    out = stretch(stereo, 1.5)
    assert out.n_channels == 2


def test_config_validation():
    with pytest.raises(ValueError):
        WsolaConfig(frame_length=1023)
    with pytest.raises(ValueError):
        WsolaConfig(frame_length=2)
    assert WsolaConfig(frame_length=2048).hop == 1024


def test_anchor_map_validation():
    with pytest.raises(ValueError):
        AnchorMap(((0.0, 0.0),))
    with pytest.raises(ValueError):
        AnchorMap(((0.5, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        AnchorMap(((0.0, 0.0), (2.0, 1.0), (1.0, 2.0)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            AnchorMap(((0.0, 0.0), (bad, 1.0)))
        with pytest.raises(ValueError):
            AnchorMap(((0.0, 0.0), (1.0, 2.0), (2.0, bad)))
    amap = AnchorMap(((0.0, 0.0), (1.0, 2.0)))
    assert amap.source_duration_s == 1.0
    assert amap.target_duration_s == 2.0


def test_build_map_identical_grids_is_identity():
    grid = uniform_grid(120.0, 16)
    amap = build_anchor_map(grid, grid)
    assert all(s == t for s, t in amap.pairs)
    assert amap.pairs[0] == (0.0, 0.0)


def test_build_map_pairs_downbeats_in_order():
    src = uniform_grid(120.0, 12)
    beats = tuple(k * 0.55 for k in range(12))
    tgt = BeatGrid(beats, beats[0::4], bpm=60.0 / 0.55)
    amap = build_anchor_map(src, tgt)
    assert amap.pairs == ((0.0, 0.0), (2.0, 2.2), (4.0, 4.4))


def test_build_map_truncates_to_shorter():
    src = uniform_grid(120.0, 12)    # downbeats 0, 2, 4
    tgt = uniform_grid(120.0, 20)    # downbeats 0, 2, 4, 6, 8
    amap = build_anchor_map(src, tgt)
    assert len(amap.pairs) == 3


def test_build_map_prepends_origin():
    src = uniform_grid(120.0, 12, offset=1)
    tgt = uniform_grid(120.0, 12, offset=1)
    amap = build_anchor_map(src, tgt)
    assert amap.pairs[0] == (0.0, 0.0)
    assert amap.pairs[1] == (0.5, 0.5)


def test_build_map_drops_unanchorable_head():
    # source starts its first bar at 0, target 2 s in: pairing them would
    # need an infinite-ratio first segment, so that pair must go
    src = uniform_grid(120.0, 20)
    beats = tuple(2.0 + k * 0.5 for k in range(12))
    tgt = BeatGrid(beats, beats[0::4], bpm=120.0)
    amap = build_anchor_map(src, tgt)
    assert amap.pairs[0] == (0.0, 0.0)
    assert all(t / s <= RATIO_MAX for s, t in amap.pairs[1:])


def test_build_map_needs_downbeats():
    grid = uniform_grid(120.0, 8)
    empty = BeatGrid((0.0, 0.5, 1.0), (), bpm=120.0)
    with pytest.raises(ValueError):
        build_anchor_map(grid, empty)
    with pytest.raises(ValueError):
        build_anchor_map(empty, grid)


def test_align_identity_map_is_verbatim():
    clicks = click_track(120.0, 4.0, SR)
    amap = AnchorMap(((0.0, 0.0), (2.0, 2.0), (4.0, 4.0)))
    out = align_to_anchors(to_mono(clicks), amap)
    assert np.array_equal(np.asarray(out.samples), np.asarray(to_mono(clicks).samples))


def test_align_output_length_is_exact():
    clicks = click_track(120.0, 4.0, SR)
    amap = AnchorMap(((0.0, 0.0), (2.0, 2.5), (4.0, 5.5)))
    out = align_to_anchors(to_mono(clicks), amap)
    assert out.n_samples == round(5.5 * SR)


def test_align_drops_audio_past_last_anchor():
    clicks = click_track(120.0, 6.0, SR)
    amap = AnchorMap(((0.0, 0.0), (4.0, 4.0)))
    out = align_to_anchors(to_mono(clicks), amap)
    assert out.n_samples == 4 * SR


def test_align_rejects_ratio_outside_range():
    clicks = click_track(120.0, 4.0, SR)
    amap = AnchorMap(((0.0, 0.0), (1.0, 3.0), (2.0, 8.0)))
    with pytest.raises(ValueError, match="outside"):
        align_to_anchors(to_mono(clicks), amap)


def test_align_rejects_anchor_past_buffer():
    clicks = click_track(120.0, 2.0, SR)
    amap = AnchorMap(((0.0, 0.0), (4.0, 4.0)))
    with pytest.raises(ValueError):
        align_to_anchors(to_mono(clicks), amap)


def test_align_moves_clicks_to_target_downbeats():
    clicks = click_track(120.0, 8.0, SR)
    amap = AnchorMap(((0.0, 0.0), (2.0, 2.2), (4.0, 4.0), (6.0, 6.6)))
    out = align_to_anchors(to_mono(clicks), amap)
    x = np.abs(np.asarray(out.samples).ravel())
    for src_t, tgt_t in amap.pairs[1:-1]:
        lo = int((tgt_t - 0.025) * SR)
        hi = int((tgt_t + 0.025) * SR)
        assert x[lo:hi].max() > 0.1


def _warped_click_peak(ratio, click_s, anchor_s, noise):
    """The peak within 30 ms of where a 3 ms click at click_s over `noise`
    lands, warped by a map whose one interior anchor, at anchor_s, ends a
    segment stretched by `ratio` and starts one kept at its length."""
    duration = len(noise) / SR
    click = click_track(30.0, duration, SR, start_s=click_s, amplitude=0.8)
    target = anchor_s * ratio
    amap = AnchorMap(((0.0, 0.0), (anchor_s, target), (duration, target + duration - anchor_s)))
    out = np.abs(align_to_anchors(AudioBuffer(click.samples[0] + noise, SR), amap).samples[0])
    delta = click_s - anchor_s
    lands = target + (delta * ratio if delta < 0 else delta)
    return out[round((lands - 0.03) * SR) : round((lands + 0.03) * SR)].max()


@pytest.mark.parametrize("ratio", [0.8, 0.95, 1.05, 1.25])
def test_clicks_near_an_anchor_keep_their_peak(ratio):
    # A click from 10 ms before an interior anchor to 10 ms after it keeps
    # the peak of a click mid-segment, at four places of the anchor within
    # the hop grid.  Where a warp splits its output at the anchor, a click
    # a few ms before it is lost.
    noise = np.random.default_rng(0).normal(0.0, 0.01, round(0.6 * SR))
    for phase in range(4):
        anchor_s = 0.3 + phase * 128 / SR / ratio
        mid = _warped_click_peak(ratio, anchor_s / 2, anchor_s, noise)
        for ms in range(-10, 11):
            kept = _warped_click_peak(ratio, anchor_s + ms / 1000, anchor_s, noise) / mid
            assert kept >= (0.85 if ms >= -8 else 0.6), (phase, ms, kept)


@given(st.floats(0.5, 2.0))
@settings(max_examples=15)
def test_stretch_length_property(ratio):
    tone = sine(330.0, 0.5, 22050)
    out = stretch(tone, ratio)
    assert abs(out.n_samples - round(tone.n_samples * ratio)) <= WsolaConfig().hop


@given(
    st.lists(st.floats(0.3, 1.8), min_size=1, max_size=4),
)
@settings(max_examples=15)
def test_align_length_property(ratios):
    # build a monotone map from per-segment ratios over 1 s source spans
    pairs = [(0.0, 0.0)]
    for k, r in enumerate(ratios):
        s0, t0 = pairs[-1]
        pairs.append((s0 + 1.0, t0 + r))
    buf = AudioBuffer(np.random.default_rng(7).normal(0, 0.1, (len(ratios) + 1) * 22050), 22050)
    out = align_to_anchors(buf, AnchorMap(tuple(pairs)))
    assert out.n_samples == round(pairs[-1][1] * 22050)


def test_tie_floor_keeps_grain_on_nominal_offset():
    # Stretched to 0.4x, grain 1 has nominal start 1280 and searches
    # x[768 : 2816].  Its template x[512 : 1536] holds the clicks at 650
    # and 900, the region only the one at 900, and at no searched lag do
    # two clicks meet: every true score is 0, and the grain must stay on
    # its nominal offset rather than follow FFT round-off.
    x = np.zeros(20000)
    x[[650, 900]] = 1.0
    starts = _search_offsets(x, _one_segment_chains(len(x), 8000, WsolaConfig()), WsolaConfig())[0]
    assert starts[1] == 1280


def test_equally_near_ties_go_to_the_earlier_offset():
    # Grain 1 as above: its template's click at 512 meets the region's
    # clicks at 1180 and 1380, 100 samples either side of nominal.
    x = np.zeros(20000)
    x[[512, 1180, 1380]] = 1.0
    starts = _search_offsets(x, _one_segment_chains(len(x), 8000, WsolaConfig()), WsolaConfig())[0]
    assert starts[1] == 1180


SIGNALS = ("noise", "tone", "clicks", "silence", "gapped")


def _signal(kind, rng, channels, n):
    if kind == "silence":
        return np.zeros((channels, n))
    if kind == "clicks":
        x = np.zeros((channels, n))
        at = np.cumsum(rng.integers(200, 3000, n // 200 + 1))
        at = at[at < n]
        x[:, at] = rng.uniform(0.2, 1.0, (channels, len(at)))
        return x
    if kind == "tone":
        t = np.arange(n) / 8000.0
        return np.stack([np.sin(2 * np.pi * rng.uniform(50, 2000) * t) for _ in range(channels)])
    x = rng.normal(0.0, 0.3, (channels, n))
    if kind == "gapped":
        lo = int(rng.integers(0, n))
        x[:, lo : lo + int(rng.integers(500, 5000))] = 0.0
    return x


@st.composite
def warp_cases(draw):
    """A buffer and an anchor map whose segments are stretched (ratio
    0.5-2), kept at their length (ratio 1) or shorter than a grain."""
    pairs, src, tgt = [(0.0, 0.0)], 0, 0
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["stretch", "copy", "short"]))
        n = draw(st.integers(16, 1024) if kind == "short" else st.integers(1025, 6000))
        ratio = 1.0 if kind == "copy" else draw(st.floats(0.5, 2.0))
        src += n
        tgt += max(1, round(n * ratio))
        pairs.append((src / 8000, tgt / 8000))
    signal = draw(st.sampled_from(SIGNALS))
    channels = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = _signal(signal, rng, channels, src + draw(st.integers(0, 2000)))
    return AudioBuffer(samples, 8000), AnchorMap(tuple(pairs))


@given(warp_cases())
@settings(max_examples=40, deadline=None)
def test_align_matches_per_grain_reference(case):
    buffer, anchors = case
    out = align_to_anchors(buffer, anchors)
    expected = reference_align(buffer, anchors, WsolaConfig())
    assert np.array_equal(np.asarray(out.samples), expected)


# The exhaustive search the coarse-to-fine one replaced, kept as its
# yardstick: every lag of the window scored, by one FFT correlation of
# size next_pow2(region + grain - 1).


def _exhaustive_scores(region, template):
    n, m = len(region), len(template)
    size = 1 << (n + m - 1).bit_length()
    spectrum = np.fft.rfft(region, size) * np.fft.rfft(template[::-1], size)
    return np.fft.irfft(spectrum, size)[m - 1 : n]


def _chain_deficits(x, nominal, last, starts, config):
    """Each searched grain's score deficit: the exhaustive best of its window
    less the chosen start's score, over |template| * |chosen window| (over
    |template| * |region| where the chosen window is silent)."""
    grain, hop, tol = config.frame_length, config.hop, config.search_tolerance
    deficits = np.zeros(len(starts) - 1)
    for k in range(1, len(starts)):
        lo, hi = max(nominal[k] - tol, 0), min(nominal[k] + tol, last)
        template = x[starts[k - 1] + hop : starts[k - 1] + hop + grain]
        template = np.concatenate([template, np.zeros(grain - len(template))])
        region = x[lo : hi + grain]
        scores = _exhaustive_scores(region, template)
        window = np.linalg.norm(x[starts[k] : starts[k] + grain]) or np.linalg.norm(region)
        bound = np.linalg.norm(template) * window
        if bound > 0:
            deficits[k - 1] = (scores.max() - scores[starts[k] - lo]) / bound
    return deficits


def _warp_deficits(buffer, anchors, config):
    """The score deficits of every grain searched in warping buffer by anchors."""
    rate, n = buffer.sample_rate, buffer.n_samples
    src = np.array([min(round(s * rate), n) for s, _ in anchors.pairs])
    dst = np.array([round(t * rate) for _, t in anchors.pairs])
    if np.array_equal(src, dst):
        return np.zeros(0)
    mono = np.pad(buffer.samples.mean(axis=0), (0, max(config.frame_length - n, 0)))
    chains = timewarp._chains(src, dst, len(mono), config)
    starts = _search_offsets(mono, chains, config)
    return np.concatenate(
        [_chain_deficits(mono, *chain, chosen, config) for chain, chosen in zip(chains, starts)]
    )


# The search scores box sums of 4 samples and refines only around the
# coarse pick, so it may miss the exhaustive best.  DEFICIT_MAX bounds a
# grain's deficit on the cases of the per-grain reference test.  Over
# 40,000 of them, drawn under seeds not used while writing the search,
# the largest was 2.18 and the 99.9th percentile of a case's worst grain
# 0.58 when each anchor segment was warped on its own; over 10,000 drawn
# for the warp along one map, 1.22 and 0.98.  The grains near or past 1
# are mostly a lone click pair meeting at the last lag of a window cut
# short at its chain's last start, a lag the coarse pass counts in the
# coarse lag past the window when the pair straddles a box edge; the rest
# of the tail is noise beside a gap and tones near rate / 4, which the
# box sums cancel.
DEFICIT_MAX = 2.5


@given(warp_cases())
@settings(max_examples=40, deadline=None)
def test_search_stays_near_the_exhaustive_best(case):
    assert _warp_deficits(*case, WsolaConfig()).max(initial=0.0) <= DEFICIT_MAX


def _bars(kind, seed, n_bars=4, rate=44100):
    """Bars at rate of one tone of 50-2000 Hz, or of a triad a bar over
    accented beat clicks, as in the benchmark's clips; and an anchor map
    that stretches each bar but the last by its own ratio of 0.9-1.1."""
    rng = np.random.default_rng(seed)
    bpm = rng.uniform(85.0, 150.0)
    bar_s = 4 * 60.0 / bpm
    if kind == "tone":
        signal = sine(rng.uniform(50.0, 2000.0), n_bars * bar_s, rate)
    else:
        roots = rng.integers(12, size=n_bars)
        triads = [(root, root + int(rng.choice([3, 4])), root + 7) for root in roots]
        tones = concat(chord_tones([pc % 12 for pc in triad], bar_s, rate) for triad in triads)
        signal = mix([tones, click_track(bpm, tones.duration_s, rate, accent_every=4)])
    pairs, target = [(0.0, 0.0)], 0.0
    for k in range(1, n_bars):
        target += bar_s * rng.uniform(0.9, 1.1)
        pairs.append((k * bar_s, target))
    return signal, AnchorMap(tuple(pairs))


# On tones and triads 99% of grains stay within TONAL_DEFICIT_P99 of the
# exhaustive best.  A window of tonal sound holds many near-equal peaks,
# and the box sums rank them by up to a few percent wrong: sustained
# triads with no onsets at all read a p99 near 0.014.
TONAL_DEFICIT_P99 = 0.01


@pytest.mark.parametrize("kind", ["tone", "triad"])
def test_search_keeps_tones_and_triads_near_the_exhaustive_best(kind):
    deficits = np.concatenate(
        [_warp_deficits(*_bars(kind, seed), WsolaConfig()) for seed in range(4)]
    )
    assert np.quantile(deficits, 0.99) <= TONAL_DEFICIT_P99


def test_search_memory_stays_within_rows_times_window():
    # One 60 s segment at 8 kHz: a step gathers one template and one
    # region, so the search needs a few rows of one window, not a copy of
    # the signal (a box-summed copy alone would take a quarter of its bytes).
    mono = np.random.default_rng(17).normal(0.0, 0.3, 60 * 8000)
    chains = _one_segment_chains(len(mono), round(len(mono) * 1.05), WsolaConfig())
    tracemalloc.start()
    try:
        _search_offsets(mono, chains, WsolaConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mono.nbytes / 8


STRETCH_CONFIGS = pytest.mark.parametrize(
    "config",
    [
        WsolaConfig(frame_length=256, search_tolerance=100),
        # A 96-sample hop on a grain that is not a power of two long.
        WsolaConfig(frame_length=192, search_tolerance=64),
        WsolaConfig(frame_length=256, search_tolerance=0),
        # A grain (198) and a search span (2 * 61) that are not multiples of
        # the box length 4, so the coarse pass's template ends in a short box.
        WsolaConfig(frame_length=198, search_tolerance=61),
    ],
    ids=["half-hop", "short-hop", "no-search", "box-remainder"],
)
STRETCH_SIGNALS = pytest.mark.parametrize("signal", SIGNALS)
STRETCH_RATIOS = pytest.mark.parametrize("ratio", [0.3, 1.7, 3.5])


@STRETCH_CONFIGS
@STRETCH_SIGNALS
@STRETCH_RATIOS
def test_stretch_matches_per_grain_reference(config, signal, ratio):
    samples = _signal(signal, np.random.default_rng(3), 2, 6000)
    out = stretch(AudioBuffer(samples, 8000), ratio, config)
    expected = _reference_to_length(samples, int(round(6000 * ratio)), config)
    assert np.array_equal(np.asarray(out.samples), expected)


@pytest.fixture
def split_warp(monkeypatch):
    """Every warp split into three threads, as on a host with three CPUs."""
    monkeypatch.setattr(timewarp, "WARP_PARALLEL_MIN_SAMPLES", 0)
    monkeypatch.setattr(timewarp, "_available_cpus", lambda: 3)


def test_align_matches_per_grain_reference_in_groups(split_warp):
    test_align_matches_per_grain_reference()


@STRETCH_CONFIGS
@STRETCH_SIGNALS
@STRETCH_RATIOS
def test_stretch_matches_per_grain_reference_in_groups(split_warp, config, signal, ratio):
    test_stretch_matches_per_grain_reference(config, signal, ratio)


def test_many_segments_land_in_their_slices(split_warp, monkeypatch):
    searches = []
    search = timewarp._search_offsets

    def recording_search(mono, chains, config):
        searches.append((threading.get_ident(), [int(nominal[0]) for nominal, _ in chains]))
        return search(mono, chains, config)

    monkeypatch.setattr(timewarp, "_search_offsets", recording_search)
    rng = np.random.default_rng(11)
    # 14 stretched segments of different lengths, each followed by one kept at its length.
    pairs, src, tgt = [(0.0, 0.0)], 0, 0
    for k in range(14):
        n = int(rng.integers(1500, 4000))
        for length, target in ((n, round(n * rng.uniform(0.6, 1.8))), (300, 300)):
            src, tgt = src + length, tgt + target
            pairs.append((src / 8000, tgt / 8000))
    buffer = AudioBuffer(rng.normal(0.0, 0.3, (2, src)), 8000)
    anchors = AnchorMap(tuple(pairs))
    # Threads switch as often as the interpreter allows, so the groups'
    # writes into the shared output interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = align_to_anchors(buffer, anchors)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out.samples, reference_align(buffer, anchors, WsolaConfig()))
    # Three groups, the calling thread's among them, cover each chain once.
    assert len(searches) == 3
    assert threading.get_ident() in {ident for ident, _ in searches}
    src, dst = (np.array([round(p[i] * 8000) for p in pairs]) for i in (0, 1))
    chains = timewarp._chains(src, dst, buffer.n_samples, WsolaConfig())
    starts = sorted(first for _, firsts in searches for first in firsts)
    assert starts == sorted(int(nominal[0]) for nominal, _ in chains)


@STRETCH_CONFIGS
@pytest.mark.parametrize("block", [1, 7])
def test_overlap_add_in_blocks_matches_reference(monkeypatch, config, block):
    # Segments here hold a few hundred grains, fewer than one gather block:
    # smaller blocks make every block boundary of the overlap-add run.
    monkeypatch.setattr(timewarp, "_OLA_BLOCK", block)
    for signal in ("noise", "clicks"):
        test_stretch_matches_per_grain_reference(config, signal, 1.7)


def test_window_built_once_per_warp(split_warp, monkeypatch):
    # Eight stretched segments in three groups share one Hann window.
    calls = []
    hanning = np.hanning

    def counting_hanning(m):
        calls.append(m)
        return hanning(m)

    monkeypatch.setattr(np, "hanning", counting_hanning)
    rng = np.random.default_rng(5)
    ratios = [0.8, 1.2, 1.1, 0.9, 1.3, 0.7, 1.15, 0.85]
    targets = np.cumsum([0.0] + [0.5 * r for r in ratios])
    pairs = [(k * 0.5, t) for k, t in enumerate(targets)]
    buffer = AudioBuffer(rng.normal(0.0, 0.3, (2, 4 * 8000 + 10)), 8000)
    anchors = AnchorMap(tuple(pairs))
    out = align_to_anchors(buffer, anchors)
    assert calls == [WsolaConfig().frame_length]
    monkeypatch.setattr(np, "hanning", hanning)
    assert np.array_equal(out.samples, reference_align(buffer, anchors, WsolaConfig()))
