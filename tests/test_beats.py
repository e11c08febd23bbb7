import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chordweave.audio import AudioBuffer, to_mono
from chordweave.beats import (
    BeatGrid,
    NoTempoError,
    OnsetEnvelope,
    beat_grid_from_dict,
    beat_grid_to_dict,
    estimate_bpm,
    onset_envelope,
    read_beat_grid,
    track_beats,
    write_beat_grid,
)
from chordweave.formats import FormatError
from chordweave.pipeline import RemixConfig, estimate_grid
from chordweave.synth import chord_tones, click_track, concat, find_clicks, silence

SR = 44100


def test_find_clicks_reads_back_a_click_track():
    # Each 3 ms burst starts at a zero sample and crosses the threshold
    # several times; only its first crossing counts.
    clicks = click_track(120.0, 2.0, 8000, start_s=0.1)
    expected = [(800 + 4000 * k + 1) / 8000 for k in range(4)]
    assert find_clicks(clicks) == expected
    stereo = AudioBuffer(np.vstack([clicks.samples, clicks.samples]), 8000)
    assert find_clicks(stereo) == expected
    assert find_clicks(clicks, threshold=0.5) == []


def test_envelope_first_frame_is_zero():
    env = onset_envelope(to_mono(click_track(120.0, 2.0, SR)))
    assert env.values[0] == 0.0
    assert (np.asarray(env.values) >= 0.0).all()


def test_envelope_click_lands_on_nearest_frame():
    buf = concat([silence(2.0, SR), click_track(60.0, 0.5, SR)])
    env = onset_envelope(to_mono(buf))
    spike = int(np.argmax(env.values))
    assert abs(spike - round(2.0 * env.frame_rate_hz)) <= 1


def test_envelope_rejects_short_and_stereo_input():
    with pytest.raises(ValueError):
        onset_envelope(AudioBuffer(np.zeros(100), SR))
    with pytest.raises(ValueError):
        onset_envelope(AudioBuffer(np.zeros((2, 44100)), SR))


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_envelope_rejects_negative_and_non_finite_strengths(bad):
    with pytest.raises(ValueError, match="finite and >= 0"):
        OnsetEnvelope(np.r_[np.zeros(500), bad, np.ones(500)], 86.0)
    # Each is refused as a frame rate too.
    with pytest.raises(ValueError, match="frame_rate_hz must be finite and > 0"):
        OnsetEnvelope(np.zeros(8), bad)


@pytest.mark.parametrize("bpm", [70.0, 90.0, 120.0, 140.0])
def test_estimate_bpm_on_clicks(bpm):
    env = onset_envelope(to_mono(click_track(bpm, 10.0, SR)))
    assert abs(estimate_bpm(env) - bpm) <= 1.0


def test_estimate_bpm_prefers_stated_range():
    est = estimate_bpm(onset_envelope(to_mono(click_track(100.0, 10.0, SR))))
    assert 90.0 <= est < 180.0


def test_estimate_bpm_needs_signal():
    flat = OnsetEnvelope(np.zeros(1000), 86.0)
    with pytest.raises(NoTempoError):
        estimate_bpm(flat)


def test_estimate_bpm_needs_length():
    env = onset_envelope(to_mono(click_track(120.0, 2.0, SR)))
    with pytest.raises(NoTempoError):
        estimate_bpm(env)


def _correlate_bpm(envelope, min_bpm=60.0, max_bpm=200.0):
    """Reference: estimate_bpm read off np.correlate's O(n^2) autocorrelation."""
    if envelope.duration_s < 4.0:
        raise NoTempoError("short")
    x = envelope.values - envelope.values.mean()
    if not np.any(x):
        raise NoTempoError("flat")
    ac = np.correlate(x, x, mode="full")[envelope.n_frames - 1 :]
    rate = envelope.frame_rate_hz
    lo = max(int(np.ceil(60.0 * rate / max_bpm)), 1)
    hi = min(int(np.floor(60.0 * rate / min_bpm)), envelope.n_frames - 2)
    if lo > hi:
        raise NoTempoError("short")
    lag = lo + int(np.argmax(ac[lo : hi + 1]))
    bpm_at = lambda k: 60.0 * rate / k
    if not 90.0 <= bpm_at(lag) < 180.0:
        for candidate in (int(round(lag / 2)), lag * 2):
            c_lo, c_hi = max(candidate - 1, lo), min(candidate + 1, hi)
            if c_lo > c_hi:
                continue
            best = c_lo + int(np.argmax(ac[c_lo : c_hi + 1]))
            if ac[best] >= 0.5 * ac[lag] and 90.0 <= bpm_at(best) < 180.0:
                lag = best
                break

    y_prev, y_mid, y_next = ac[lag - 1], ac[lag], ac[lag + 1]
    denom = y_prev - 2.0 * y_mid + y_next
    offset = 0.0 if denom == 0 else float(np.clip(0.5 * (y_prev - y_next) / denom, -0.5, 0.5))
    return float(np.clip(60.0 * rate / (lag + offset), min_bpm, max_bpm))


@pytest.mark.parametrize(
    "bpm, duration_s, window",
    [
        (61.0, 240.0, None),
        (97.0, 238.0, None),
        (143.0, 161.0, None),
        (120.0, 60.0, None),
        (187.0, 12.0, None),
        (88.8, 200.0, (0.9, 1.1)),
        (151.3, 180.0, (0.9, 1.1)),
    ],
)
def test_estimate_bpm_matches_direct_correlation(bpm, duration_s, window):
    env = onset_envelope(to_mono(click_track(bpm, duration_s, SR, accent_every=4, start_s=0.3)))
    lo, hi = (60.0, 200.0) if window is None else (bpm * window[0], bpm * window[1])
    assert estimate_bpm(env, lo, hi) == _correlate_bpm(env, lo, hi)


@st.composite
def _envelopes(draw):
    """Noisy periodic envelopes; integer-valued ones make exact lag ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(300, 3000))
    period = draw(st.floats(20.0, 90.0))
    noise = draw(st.sampled_from([0.0, 0.3, 3.0]))
    values = (np.arange(n) % period < 1.0) + noise * rng.random(n)
    if draw(st.booleans()):
        values = np.round(values * draw(st.sampled_from([1, 2, 5])))
    return OnsetEnvelope(values, 86.1328125)


@given(_envelopes())
def test_estimate_bpm_matches_direct_correlation_on_noisy_envelopes(env):
    try:
        expected = _correlate_bpm(env)
    except NoTempoError:
        with pytest.raises(NoTempoError):
            estimate_bpm(env)
        return
    assert estimate_bpm(env) == expected


def test_track_beats_finds_offset_phase():
    buf = click_track(120.0, 8.0, SR, start_s=0.25)
    env = onset_envelope(to_mono(buf))
    grid = track_beats(env, estimate_bpm(env))
    assert grid.beats_s[0] == pytest.approx(0.25, abs=0.02)


def test_track_beats_downbeats_on_accents():
    buf = click_track(120.0, 10.0, SR, accent_every=4)
    grid = estimate_grid(buf, RemixConfig())
    bar_s = 4 * 60.0 / 120.0
    for d in grid.downbeats_s:
        nearest = round(d / bar_s) * bar_s
        assert abs(d - nearest) <= 0.012


def test_track_beats_uniform_clicks_take_lowest_offset():
    buf = click_track(120.0, 8.0, SR)
    grid = estimate_grid(buf, RemixConfig())
    assert grid.downbeats_s[0] == grid.beats_s[0]


def test_track_beats_needs_one_bar():
    env = onset_envelope(to_mono(click_track(60.0, 3.0, SR)))
    with pytest.raises(ValueError):
        track_beats(env, 60.0)


def test_beat_spacing_follows_bpm():
    grid = estimate_grid(click_track(100.0, 10.0, SR, accent_every=4), RemixConfig())
    diffs = np.diff(grid.beats_s)
    assert np.allclose(diffs, 60.0 / grid.bpm, rtol=1e-6)


def test_gain_invariance_is_exact():
    buf = to_mono(click_track(120.0, 10.0, SR, accent_every=4))
    quiet = AudioBuffer(np.asarray(buf.samples) * 0.125, SR)
    a = estimate_grid(buf, RemixConfig())
    b = estimate_grid(quiet, RemixConfig())
    assert a.bpm == b.bpm
    assert a.beats_s == b.beats_s
    assert a.downbeats_s == b.downbeats_s


def test_shift_equivariance_within_a_hop():
    base = to_mono(click_track(120.0, 10.0, SR, accent_every=4))
    shifted = to_mono(concat([silence(0.5, SR), click_track(120.0, 10.0, SR, accent_every=4)]))
    a = estimate_grid(base, RemixConfig())
    b = estimate_grid(shifted, RemixConfig())
    hop_s = 512 / SR
    assert abs(a.bpm - b.bpm) <= 1.0
    # each shifted beat sits one beat grid over from the original, modulo
    # the period; compare against true click times instead of indices
    for d in b.downbeats_s:
        nearest = round((d - 0.5) / 2.0) * 2.0 + 0.5
        assert abs(d - nearest) <= 2 * hop_s


_TRIADS = ((0, 4, 7), (9, 0, 4), (5, 9, 0), (7, 11, 2))


def _clicks_and_triads(bpm, duration_s, lead_s=0.3, accent_every=4):
    """A click per beat from lead_s (downbeats 1.5 times louder when
    accented) plus one harmonic triad per 4-beat bar, cycling I-vi-IV-V."""
    clicks = click_track(
        bpm, duration_s, SR, accent_every=accent_every, accent_gain=1.5, start_s=lead_s
    )
    x = clicks.samples[0].copy()
    bar_s = 4 * 60.0 / bpm
    tones = {}
    k = 0
    while lead_s + k * bar_s < duration_s:
        a = int(round((lead_s + k * bar_s) * SR))
        b = min(int(round((lead_s + (k + 1) * bar_s) * SR)), len(x))
        key = (k % len(_TRIADS), b - a)
        if key not in tones:
            tones[key] = chord_tones(_TRIADS[key[0]], key[1] / SR, SR, amplitude=0.27).samples[0]
        x[a:b] += tones[key][: b - a]
        k += 1
    return AudioBuffer(x, SR)


def _worst_downbeat_ms(grid, bpm, lead_s, duration_s):
    """The grid's downbeat farthest from a true one (lead_s + k bars), in ms."""
    bar_s = 4 * 60.0 / bpm
    truth = lead_s + bar_s * np.arange(int((duration_s - lead_s) / bar_s) + 1)
    d = np.asarray(grid.downbeats_s)
    idx = np.clip(np.searchsorted(truth, d), 1, len(truth) - 1)
    return 1000.0 * float(np.minimum(abs(d - truth[idx - 1]), abs(d - truth[idx])).max())


@pytest.mark.parametrize(
    "bpm, duration_s, accent_every",
    [
        (97.0, 180.0, 4),
        (121.0, 180.0, 4),
        (143.0, 180.0, 4),
        # The raw autocorrelation peak is the double lag, and the beat lag
        # falls between two frames, which split its strength.
        (149.97, 180.0, 4),
        (124.27, 210.0, 4),
        # Unaccented clicks: only each bar's triad onset marks the bar.
        (118.0, 180.0, 0),
    ],
)
def test_long_clip_grid_lands_on_every_downbeat(bpm, duration_s, accent_every):
    clip = _clicks_and_triads(bpm, duration_s, accent_every=accent_every)
    grid = estimate_grid(clip, RemixConfig())
    assert abs(grid.bpm - bpm) <= 0.05
    assert _worst_downbeat_ms(grid, bpm, 0.3, duration_s) <= 12.0


@pytest.mark.parametrize("bpm", [143.0, 148.0, 155.0])
def test_generated_grid_seeded_at_the_request_tempo(bpm):
    # A backend track at 1.05 times the requested tempo, as perfbench's
    # loopback answers, searched within 10% of the request's tempo.
    track = click_track(bpm, 240.0, SR, accent_every=4, accent_gain=1.5, start_s=0.25)
    grid = estimate_grid(track, RemixConfig(), seed_bpm=bpm / 1.05)
    assert _worst_downbeat_ms(grid, bpm, 0.25, 240.0) <= 12.0


def test_grid_validation():
    with pytest.raises(ValueError):
        BeatGrid((0.0, 0.4, 0.8), (0.0,), bpm=120.0)
    with pytest.raises(ValueError):
        BeatGrid((0.0, 0.5, 0.4), (0.0,), bpm=120.0)
    with pytest.raises(ValueError):
        BeatGrid((0.0, 0.5, 1.0), (0.25,), bpm=120.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            BeatGrid((0.0, 0.5, 1.0), (0.0,), bpm=bad)
        with pytest.raises(ValueError):
            BeatGrid((bad,), (), bpm=120.0)
        with pytest.raises(ValueError):
            BeatGrid((0.0, 0.5, bad), (0.0,), bpm=120.0)


def test_grid_downbeats_subset_by_offset():
    beats = tuple(0.5 * k for k in range(8))
    grid = BeatGrid(beats, beats[1::4], bpm=120.0)
    assert grid.downbeats_s == (0.5, 2.5)


def test_grid_serialization_round_trip(tmp_path):
    grid = estimate_grid(click_track(120.0, 8.0, SR, accent_every=4), RemixConfig())
    path = tmp_path / "grid.json"
    write_beat_grid(grid, path)
    again = read_beat_grid(path)
    assert again.bpm == grid.bpm
    assert again.beats_s == grid.beats_s
    assert again.downbeats_s == grid.downbeats_s
    assert again.beats_per_bar == grid.beats_per_bar


def test_grid_dict_shape():
    grid = BeatGrid((0.0, 0.5, 1.0, 1.5), (0.0,), bpm=120.0)
    doc = beat_grid_to_dict(grid)
    assert doc["format"] == "beat-grid/v1"
    assert doc["beats_s"] == [0.0, 0.5, 1.0, 1.5]
    assert doc["downbeats_s"] == [0.0]
    assert doc["beats_per_bar"] == 4


def test_grid_from_dict_rejects_wrong_format():
    with pytest.raises(FormatError):
        beat_grid_from_dict({"format": "chord-seq/v1"})
