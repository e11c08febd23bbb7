import dataclasses
import json
import re
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest

from chordweave.analysis import ChromagramConfig
from chordweave.audio import AudioBuffer, encode_wav, to_mono
from chordweave.chords import parse_progression
from chordweave.chroma import chroma_matrix_to_dict, render_matrix
from chordweave.pipeline import (
    DurationMismatchError,
    GenerationRequest,
    NonAudioResponseError,
    PipelineStepError,
    RemixConfig,
    StemSet,
    TransportError,
    ConditioningBundle,
    build_request,
    estimate_generated_grid,
    finalize_remix,
    generation_request_from_dict,
    generation_request_to_dict,
    ingest_stems,
    max_response_bytes,
    peak_normalize,
    prepare_conditioning,
    read_generation_request,
    request_generation,
    run_remix,
    write_generation_request,
)
from chordweave import pipeline, timewarp
from chordweave.synth import chord_tones, click_track, concat, mix, silence
from chordweave.timewarp import align_to_anchors, build_anchor_map

SR = 44100
START = 0.25


def make_instrumental(duration_s=8.0, bpm=120.0):
    bars = int(duration_s / (4 * 60.0 / bpm))
    prog = parse_progression(" ".join(["C:maj", "G:maj"] * (bars // 2)), bpm=bpm)
    layers = [click_track(bpm, duration_s, SR, accent_every=4, start_s=START)]
    for ev in prog.events:
        tones = chord_tones(sorted(ev.chord.pitch_classes()), ev.duration_s, SR, amplitude=0.3)
        layers.append(concat([silence(ev.start_s + START, SR), tones]))
    return mix(layers)


@pytest.fixture(scope="module")
def instrumental():
    return make_instrumental()


@pytest.fixture(scope="module")
def bundle(instrumental):
    return prepare_conditioning(StemSet(instrumental=instrumental), "test prompt", RemixConfig())


def test_stem_set_validation(instrumental):
    with pytest.raises(ValueError):
        StemSet(instrumental=AudioBuffer(np.zeros((1, 0)), SR))
    with pytest.raises(ValueError):
        StemSet(
            instrumental=instrumental,
            vocals=AudioBuffer(np.zeros(1000), 22050),
        )


def test_ingest_resamples_to_config_rate():
    half = AudioBuffer(np.zeros((2, 22050)), 22050)
    stems = ingest_stems(half, AudioBuffer(np.zeros(22050), 22050), RemixConfig())
    assert stems.instrumental.sample_rate == stems.vocals.sample_rate == 44100
    assert stems.instrumental.n_samples == stems.vocals.n_samples == 44100


def test_conditioning_bundle_fields(bundle, instrumental):
    assert bundle.prompt == "test prompt"
    assert bundle.duration_s == pytest.approx(instrumental.duration_s)
    assert abs(bundle.beat_grid.bpm - 120.0) <= 1.0
    assert bundle.chroma.frame_rate_hz == 50.0


def test_conditioning_chroma_covers_chords(bundle):
    assert bundle.chroma.duration_s >= bundle.chords.duration_s - 1.0 / bundle.chroma.frame_rate_hz


def test_conditioning_bundle_invariant_enforced(bundle):
    short = render_matrix(parse_progression("C:maj", bpm=240), 50.0)
    with pytest.raises(ValueError):
        ConditioningBundle(
            beat_grid=bundle.beat_grid,
            chords=bundle.chords,
            chroma=short,
            prompt="x",
            duration_s=bundle.duration_s,
        )
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ConditioningBundle(bundle.beat_grid, bundle.chords, bundle.chroma, "x", bad)


def test_conditioning_is_deterministic(instrumental):
    config = RemixConfig()
    a = prepare_conditioning(StemSet(instrumental=instrumental), "p", config)
    b = prepare_conditioning(StemSet(instrumental=instrumental), "p", config)
    assert a.beat_grid.beats_s == b.beat_grid.beats_s
    assert chroma_matrix_to_dict(a.chroma) == chroma_matrix_to_dict(b.chroma)


def test_step_attribution_for_bad_audio():
    tiny = AudioBuffer(np.zeros(256), SR)
    with pytest.raises(PipelineStepError) as info:
        prepare_conditioning(StemSet(instrumental=tiny), "p", RemixConfig())
    assert info.value.step == 1
    assert "step 1" in str(info.value)


def test_build_request_copies_bundle(bundle):
    req = build_request(bundle)
    assert req.prompt == bundle.prompt
    assert req.bpm == bundle.beat_grid.bpm
    assert req.duration_s == bundle.duration_s
    assert req.chroma == bundle.chroma


def test_request_validation(bundle):
    with pytest.raises(ValueError):
        GenerationRequest("", 120.0, 8.0, bundle.chroma)
    with pytest.raises(ValueError):
        GenerationRequest("p", -1.0, 8.0, bundle.chroma)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            GenerationRequest("p", bad, 8.0, bundle.chroma)
        with pytest.raises(ValueError):
            GenerationRequest("p", 120.0, bad, bundle.chroma)


def test_request_serialization_round_trip(bundle, tmp_path):
    req = build_request(bundle)
    path = tmp_path / "req.json"
    write_generation_request(req, path)
    again = read_generation_request(path)
    assert again.prompt == req.prompt
    assert again.bpm == req.bpm
    assert again.chroma == req.chroma
    doc = generation_request_to_dict(req)
    assert doc["format"] == "genreq/v2"
    assert doc["chroma"]["format"] == "chroma-matrix/v2"
    assert generation_request_from_dict(doc).duration_s == req.duration_s


def test_dry_run_writes_request_and_returns_none(bundle, tmp_path):
    req = build_request(bundle)
    out = tmp_path / "req.json"
    result = request_generation(req, mode="dry_run", out_path=out)
    assert result is None
    again = read_generation_request(out)
    assert again.chroma == req.chroma


def test_dry_run_is_byte_identical(bundle, tmp_path):
    req = build_request(bundle)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    request_generation(req, mode="dry_run", out_path=a)
    request_generation(req, mode="dry_run", out_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_dry_run_file_is_the_live_body(bundle, tmp_path, stub_server):
    url, state = stub_server
    req = build_request(bundle)
    path = tmp_path / "request.json"
    request_generation(req, mode="dry_run", out_path=path)
    with pytest.raises(NonAudioResponseError):
        request_generation(req, endpoint=url, mode="live", timeout_s=10.0)
    assert state["requests"][0] == path.read_bytes()


def test_live_loopback_returns_stub_audio(bundle, stub_server):
    url, state = stub_server
    stub_wav = encode_wav(click_track(126.0, 8.0, SR), "pcm16")
    state["body"] = stub_wav
    req = build_request(bundle)
    got = request_generation(req, endpoint=url, mode="live", timeout_s=10.0)
    assert got.sample_rate == SR
    assert got.n_samples == click_track(126.0, 8.0, SR).n_samples
    sent = json.loads(state["requests"][0])
    assert sent["format"] == "genreq/v2"
    assert sent["chroma"] == chroma_matrix_to_dict(req.chroma)
    assert sent["prompt"] == "test prompt"


def test_live_rejects_non_audio_response(bundle, stub_server):
    url, state = stub_server
    state["body"] = b"<html>busy</html>"
    state["content_type"] = "text/html"
    with pytest.raises(NonAudioResponseError):
        request_generation(build_request(bundle), endpoint=url, mode="live", timeout_s=10.0)


def test_live_rejects_zero_sample_rate(bundle, stub_server):
    url, state = stub_server
    wav = encode_wav(click_track(126.0, 8.0, SR), "pcm16")
    # The fmt chunk's sample-rate field sits at bytes 24-27.
    state["body"] = wav[:24] + struct.pack("<I", 0) + wav[28:]
    with pytest.raises(NonAudioResponseError):
        request_generation(build_request(bundle), endpoint=url, mode="live", timeout_s=10.0)


def test_live_rejects_duration_mismatch(bundle, stub_server):
    url, state = stub_server
    state["body"] = encode_wav(click_track(126.0, 2.0, SR), "pcm16")
    with pytest.raises(DurationMismatchError):
        request_generation(build_request(bundle), endpoint=url, mode="live", timeout_s=10.0)


def _short_request(bundle):
    """A 10 ms request, whose response cap is small enough to exceed."""
    return GenerationRequest("test prompt", 120.0, 0.01, bundle.chroma)


def test_response_cap_fits_the_largest_accepted_wav():
    # 1.05 x 10 s at 192 kHz, 8 channels of 32 bits, plus 1 MiB of headers.
    assert max_response_bytes(10.0) == 2_016_000 * 32 + 2**20


def test_live_rejects_declared_oversized_response_before_reading(bundle, stub_server):
    url, state = stub_server
    state["body"] = encode_wav(click_track(126.0, 0.01, SR), "pcm16")
    # Declares more than the cap and than it sends: reading would fail.
    state["content_length"] = str(max_response_bytes(0.01) + 1)
    with pytest.raises(NonAudioResponseError, match="exceeds"):
        request_generation(_short_request(bundle), endpoint=url, mode="live", timeout_s=10.0)


def test_live_caps_undeclared_response_size(bundle, stub_server):
    url, state = stub_server
    limit = max_response_bytes(0.01)
    wav = encode_wav(click_track(126.0, limit / (2 * SR), SR), "pcm16")
    assert len(wav) > limit
    state["body"] = wav
    state["content_length"] = False
    with pytest.raises(NonAudioResponseError, match="exceeds"):
        request_generation(_short_request(bundle), endpoint=url, mode="live", timeout_s=10.0)


def test_live_reads_undeclared_response_in_bounded_pieces(bundle, stub_server, monkeypatch):
    url, state = stub_server
    wav = encode_wav(click_track(126.0, 8.0, SR), "pcm16")
    state["body"] = wav
    state["content_length"] = False
    read_sizes = []
    real_urlopen = urllib.request.urlopen

    def recording_urlopen(*args, **kwargs):
        response = real_urlopen(*args, **kwargs)
        real_read = response.read

        def read(amt=None):
            read_sizes.append(amt)
            return real_read(amt)

        response.read = read
        return response

    monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
    got = request_generation(build_request(bundle), endpoint=url, mode="live", timeout_s=10.0)
    assert got.n_samples == click_track(126.0, 8.0, SR).n_samples
    # No read asks for the whole cap, which a read may reserve up front.
    assert read_sizes and all(amt is not None and amt <= 2**20 for amt in read_sizes)


def test_live_reads_to_close_past_malformed_content_length(bundle, stub_server):
    url, state = stub_server
    state["body"] = encode_wav(click_track(126.0, 8.0, SR), "pcm16")
    # isdigit() accepts a superscript two, int() does not.
    state["content_length"] = "\u00b2"
    got = request_generation(build_request(bundle), endpoint=url, mode="live", timeout_s=10.0)
    assert got.n_samples == click_track(126.0, 8.0, SR).n_samples


def test_live_response_shorter_than_declared_is_transport_error(bundle, stub_server):
    url, state = stub_server
    wav = encode_wav(click_track(126.0, 8.0, SR), "pcm16")
    state["body"] = wav
    state["content_length"] = str(len(wav) + 100)
    with pytest.raises(TransportError, match="closed the response early"):
        request_generation(build_request(bundle), endpoint=url, mode="live", timeout_s=10.0)


def test_live_unreachable_endpoint_is_transport_error(bundle):
    with pytest.raises(TransportError):
        request_generation(
            build_request(bundle), endpoint="http://127.0.0.1:9", mode="live", timeout_s=2.0
        )


@pytest.mark.parametrize("timeout_s", [-1.0, 0.0, np.nan, np.inf])
def test_live_timeout_is_checked_before_any_work(monkeypatch, instrumental, bundle, timeout_s):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(pipeline, "ingest_stems", no_work)
    monkeypatch.setattr(urllib.request, "urlopen", no_work)
    url = "http://127.0.0.1:9"
    with pytest.raises(ValueError, match="timeout_s must be finite and > 0"):
        request_generation(build_request(bundle), endpoint=url, mode="live", timeout_s=timeout_s)
    with pytest.raises(ValueError, match="timeout_s must be finite and > 0"):
        run_remix(instrumental, None, "p", endpoint=url, mode="live", timeout_s=timeout_s)


def test_live_requires_endpoint(bundle):
    with pytest.raises(TransportError):
        request_generation(build_request(bundle), endpoint=None, mode="live")


@pytest.fixture
def no_work(monkeypatch):
    """Make every step and the network fail the test if they start."""

    def started(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("ingest_stems", "prepare_conditioning", "write_generation_request"):
        monkeypatch.setattr(pipeline, name, started)
    monkeypatch.setattr(urllib.request, "urlopen", started)


@pytest.mark.parametrize(
    "endpoint",
    [None, "", "file:///etc/hostname", "notaurl", "http://[::1", "http://", "ftp://host/x",
     "http://host:port/"],
)
def test_bad_endpoint_is_refused_before_any_work(no_work, instrumental, bundle, endpoint):
    match = re.escape(f"endpoint {endpoint!r}" if endpoint else "no endpoint configured")
    with pytest.raises(TransportError, match=match):
        request_generation(build_request(bundle), endpoint=endpoint, mode="live")
    with pytest.raises(TransportError, match=match):
        run_remix(instrumental, None, "p", endpoint=endpoint, mode="live")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"prompt": "", "mode": "dry_run", "out_path": "req.json"}, "prompt must be non-empty"),
        ({"prompt": "p", "mode": "dry_run"}, "dry_run mode needs an output path"),
        ({"prompt": "p", "mode": "offline"}, "mode must be 'live' or 'dry_run'"),
    ],
    ids=["empty-prompt", "dry-run-without-out-path", "unknown-mode"],
)
def test_run_remix_checks_its_arguments_before_any_work(no_work, instrumental, kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_remix(instrumental, None, **kwargs)


def test_estimate_generated_grid_seeded(bundle):
    gen = click_track(126.0, 8.0, SR, accent_every=4, start_s=START)
    grid = estimate_generated_grid(gen, build_request(bundle), RemixConfig())
    assert abs(grid.bpm - 126.0) <= 1.0


def test_peak_normalize_scales_down_only():
    loud = AudioBuffer(np.array([0.0, 1.4, -0.7]), SR)
    out = peak_normalize(loud, -1.0)
    ceiling = 10.0 ** (-1.0 / 20.0)
    assert np.abs(np.asarray(out.samples)).max() == pytest.approx(ceiling)
    quiet = AudioBuffer(np.array([0.0, 0.4]), SR)
    assert peak_normalize(quiet, -1.0) is quiet
    zero = AudioBuffer(np.zeros(8), SR)
    assert peak_normalize(zero, -1.0) is zero


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_peak_normalize_rejects_non_finite_ceiling(bad):
    with pytest.raises(ValueError, match="ceiling_dbfs"):
        peak_normalize(AudioBuffer(np.array([0.0, 1.4, -0.7]), SR), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["conditioning_frame_rate_hz", "ceiling_dbfs"])
def test_remix_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        RemixConfig(**{name: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["generated_gain", "vocal_gain"])
def test_remix_config_rejects_non_finite_gain(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RemixConfig(**{name: bad})


@pytest.mark.parametrize(
    "values",
    [
        {"min_bpm": 200.0, "max_bpm": 100.0},
        {"min_bpm": 120.0, "max_bpm": 120.0},
        {"min_bpm": 0.0},
        {"min_bpm": -60.0},
        {"min_bpm": np.nan},
        {"max_bpm": np.nan},
    ],
    ids=["reversed", "empty", "zero", "negative", "nan-min", "nan-max"],
)
def test_remix_config_rejects_bad_tempo_range(values):
    with pytest.raises(ValueError, match="min_bpm < max_bpm"):
        RemixConfig(**values)


@pytest.mark.parametrize("bad", [0, -4])
def test_remix_config_rejects_bars_without_beats(bad):
    with pytest.raises(ValueError, match="beats_per_bar must be >= 1"):
        RemixConfig(beats_per_bar=bad)


_FIXED = {
    RemixConfig: {
        "sample_rate": 44100,
        "beat_window_size": 1024,
        "beat_hop_size": 512,
        "bpm_seed_tolerance": 0.10,
        "chromagram": ChromagramConfig(),
        "wsola": timewarp.WsolaConfig(),
    },
    ChromagramConfig: {"window_size": 4096, "hop_size": 2048, "fmin_hz": 65.4, "fmax_hz": 2093.0},
}


@pytest.mark.parametrize(
    "cls, name", [(cls, name) for cls, names in _FIXED.items() for name in names]
)
def test_fixed_resolutions_are_constants(cls, name):
    # Every caller reads the analysis at one resolution, perfbench's traced
    # twin included, so each value is read off the config but never set.
    assert getattr(cls(), name) == _FIXED[cls][name]
    assert name not in {f.name for f in dataclasses.fields(cls)}
    with pytest.raises(TypeError):
        cls(**{name: _FIXED[cls][name]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_peak_normalize_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="NaN or infinite"):
        peak_normalize(AudioBuffer(np.array([0.0, bad, 0.5]), SR), -1.0)


def test_finalize_reports_non_finite_mix_as_step_5(instrumental, bundle):
    config = RemixConfig()
    samples = np.array(chord_tones([0], 8.25, SR, amplitude=0.2).samples)
    samples[0, SR] = np.nan
    stems = StemSet(instrumental=instrumental, vocals=AudioBuffer(samples, SR))
    gen = click_track(126.0, 8.0, SR, accent_every=4, start_s=START)
    gen_grid = estimate_generated_grid(gen, build_request(bundle), config)
    with pytest.raises(PipelineStepError) as info:
        finalize_remix(gen, stems, gen_grid, bundle.beat_grid, config)
    assert info.value.step == 5


def test_finalize_aligns_and_caps_peak(instrumental, bundle):
    config = RemixConfig()
    gen = click_track(126.0, 8.0, SR, accent_every=4, start_s=START)
    gen_grid = estimate_generated_grid(gen, build_request(bundle), config)
    out = finalize_remix(gen, StemSet(instrumental=instrumental), gen_grid, bundle.beat_grid, config)
    ceiling = 10.0 ** (config.ceiling_dbfs / 20.0)
    assert np.abs(np.asarray(out.samples)).max() <= ceiling + 1e-9
    assert out.sample_rate == instrumental.sample_rate
    # background clicks land on the input grid's interior downbeats
    x = np.abs(np.asarray(to_mono(out).samples).ravel())
    for d in bundle.beat_grid.downbeats_s:
        if d >= out.duration_s - 0.05:
            continue
        lo, hi = int((d - 0.025) * SR), int((d + 0.025) * SR)
        assert x[lo:hi].max() > 0.05


def test_finalize_mixes_vocals(instrumental, bundle):
    config = RemixConfig()
    vocals = chord_tones([0], 8.25, SR, amplitude=0.2)
    stems = StemSet(instrumental=instrumental, vocals=vocals)
    gen = click_track(126.0, 8.0, SR, accent_every=4, start_s=START)
    gen_grid = estimate_generated_grid(gen, build_request(bundle), config)
    out = finalize_remix(gen, stems, gen_grid, bundle.beat_grid, config)
    # vocal energy persists past the warped background's end
    tail = np.asarray(out.samples)[:, int(7.0 * SR):]
    assert np.abs(tail).max() > 0.01


@pytest.mark.parametrize("gains", [(1.0, 1.0), (0.7, 1.3)], ids=["unit", "scaled"])
@pytest.mark.parametrize("vocal_channels", [0, 1, 2])
def test_finalize_matches_separate_steps(instrumental, bundle, gains, vocal_channels):
    # The mix as warp, gains, zero-padded sum and peak_normalize, one step at a time.
    config = RemixConfig(generated_gain=gains[0], vocal_gain=gains[1])
    clicks = click_track(126.0, 8.0, SR, accent_every=4, start_s=START)
    gen = AudioBuffer(clicks.samples * 2.5, SR)
    gen_grid = estimate_generated_grid(gen, build_request(bundle), config)
    vocals = None
    if vocal_channels:
        tone = chord_tones([0, 4], 8.25, SR, amplitude=0.4).samples
        levels = np.array([[1.0], [0.5]])[:vocal_channels]
        vocals = AudioBuffer(np.repeat(tone, vocal_channels, axis=0) * levels, SR)
    out = finalize_remix(gen, StemSet(instrumental, vocals), gen_grid, bundle.beat_grid, config)
    warped = align_to_anchors(gen, build_anchor_map(gen_grid, bundle.beat_grid), config.wsola)
    mixed = warped.samples * config.generated_gain
    if vocals is not None:
        mixed = np.pad(mixed, ((0, 0), (0, max(0, vocals.n_samples - warped.n_samples))))
        mixed[:, : vocals.n_samples] += to_mono(vocals).samples * config.vocal_gain
    expected = peak_normalize(AudioBuffer(mixed, SR), config.ceiling_dbfs)
    assert np.array_equal(out.samples, expected.samples)
    assert not out.samples.flags.writeable


def test_warp_and_mix_buffers_are_read_only(instrumental, bundle):
    config = RemixConfig()
    gen = click_track(126.0, 8.0, SR, accent_every=4, start_s=START)
    gen_grid = estimate_generated_grid(gen, build_request(bundle), config)
    loud = AudioBuffer(np.array(gen.samples) * 4.0, SR)
    buffers = [
        align_to_anchors(gen, build_anchor_map(gen_grid, bundle.beat_grid)),
        peak_normalize(loud, -1.0),
        finalize_remix(gen, StemSet(instrumental), gen_grid, bundle.beat_grid, config),
    ]
    for buffer in buffers:
        assert buffer.samples.flags.c_contiguous and not buffer.samples.flags.writeable


def test_warp_error_in_a_worker_is_a_step_4_error(monkeypatch, instrumental, bundle):
    monkeypatch.setattr(timewarp, "WARP_PARALLEL_MIN_SAMPLES", 0)
    monkeypatch.setattr(timewarp, "_available_cpus", lambda: 2)
    caller = threading.get_ident()
    failure = ValueError("grain search failed")
    search = timewarp._search_offsets

    def failing_in_workers(mono, chains, config):
        if threading.get_ident() != caller:
            raise failure
        return search(mono, chains, config)

    monkeypatch.setattr(timewarp, "_search_offsets", failing_in_workers)
    config = RemixConfig()
    gen = click_track(126.0, 8.0, SR, accent_every=4, start_s=START)
    gen_grid = estimate_generated_grid(gen, build_request(bundle), config)
    with pytest.raises(PipelineStepError) as info:
        finalize_remix(gen, StemSet(instrumental), gen_grid, bundle.beat_grid, config)
    assert info.value.step == 4
    assert info.value.__cause__ is failure


def test_finalize_rejects_empty_generation(instrumental, bundle):
    config = RemixConfig()
    with pytest.raises(PipelineStepError) as info:
        finalize_remix(
            AudioBuffer(np.zeros(10), SR),
            StemSet(instrumental=instrumental),
            bundle.beat_grid,
            bundle.beat_grid,
            config,
        )
    assert info.value.step == 4


def test_run_remix_dry_run_deterministic(instrumental, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_remix(instrumental, None, "jazzy", mode="dry_run", out_path=a)
    run_remix(instrumental, None, "jazzy", mode="dry_run", out_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_step_error_message_shape():
    err = PipelineStepError(5, "mixing failed")
    assert str(err) == "step 5 (mixing): mixing failed"


@pytest.fixture
def overlap_analysis(monkeypatch):
    """Every prepare_conditioning past the size gate, as on a long clip."""
    monkeypatch.setattr(timewarp, "PARALLEL_MIN_SAMPLES", 0)


def _recording(monkeypatch, name, threads, fail=None, delay=0.0):
    """Patch pipeline.<name> to note its thread, and raise `fail` off the calling thread."""
    caller, original = threading.get_ident(), getattr(pipeline, name)

    def call(*args, **kwargs):
        threads.append(threading.get_ident())
        time.sleep(delay)
        if fail is not None and threading.get_ident() != caller:
            raise fail
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, call)


def test_overlapped_analysis_matches_serial(overlap_analysis, monkeypatch, instrumental, bundle):
    monkeypatch.setattr(timewarp, "_available_cpus", lambda: 2)
    threads = []
    _recording(monkeypatch, "compute_chromagram", threads)
    config = RemixConfig()
    overlapped = prepare_conditioning(StemSet(instrumental=instrumental), "test prompt", config)
    assert threads and threads[0] != threading.get_ident()
    assert overlapped == bundle


def test_chromagram_error_in_the_worker_is_a_step_3_error(overlap_analysis, monkeypatch, instrumental):
    monkeypatch.setattr(timewarp, "_available_cpus", lambda: 2)
    failure = ValueError("chromagram failed")
    _recording(monkeypatch, "compute_chromagram", [], fail=failure)
    with pytest.raises(PipelineStepError) as info:
        prepare_conditioning(StemSet(instrumental=instrumental), "p", RemixConfig())
    assert info.value.step == 3
    assert info.value.__cause__ is failure


def test_grid_error_wins_over_a_worker_error(overlap_analysis, monkeypatch, instrumental):
    monkeypatch.setattr(timewarp, "_available_cpus", lambda: 2)
    baseline = threading.active_count()
    grid_failure = ValueError("no grid")
    chroma_failure = ValueError("chromagram failed")

    def failing_grid(buffer, config, seed_bpm=None):
        raise grid_failure

    monkeypatch.setattr(pipeline, "estimate_grid", failing_grid)
    # The worker fails after the grid has, so the grid's error is raised
    # only once the worker is done.
    threads = []
    _recording(monkeypatch, "compute_chromagram", threads, fail=chroma_failure, delay=0.05)
    with pytest.raises(PipelineStepError) as info:
        prepare_conditioning(StemSet(instrumental=instrumental), "p", RemixConfig())
    assert info.value.step == 1
    assert info.value.__cause__ is grid_failure
    assert threads and threads[0] != threading.get_ident()
    assert threading.active_count() == baseline


@pytest.mark.parametrize("cpus", [1, 2])
def test_analysis_stays_on_the_calling_thread(monkeypatch, instrumental, bundle, cpus):
    # One CPU past the size gate, or a clip below it: no thread is started.
    if cpus == 1:
        monkeypatch.setattr(timewarp, "PARALLEL_MIN_SAMPLES", 0)
    monkeypatch.setattr(timewarp, "_available_cpus", lambda: cpus)
    threads = []
    for name in ("estimate_grid", "compute_chromagram", "recognize_chords"):
        _recording(monkeypatch, name, threads)
    baseline = threading.active_count()

    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    config = RemixConfig()
    assert prepare_conditioning(StemSet(instrumental=instrumental), "test prompt", config) == bundle
    assert len(threads) == 3 and set(threads) == {threading.get_ident()}
    assert threading.active_count() == baseline


def _separate_steps(gen, vocals, gen_grid, input_grid, config):
    """The mix as warp, gains, zero-padded sum and peak_normalize, one step at a time."""
    warped = align_to_anchors(gen, build_anchor_map(gen_grid, input_grid), config.wsola)
    mixed = warped.samples * config.generated_gain
    if vocals is not None:
        mixed = np.pad(mixed, ((0, 0), (0, max(0, vocals.n_samples - warped.n_samples))))
        mixed[:, : vocals.n_samples] += to_mono(vocals).samples * config.vocal_gain
    return peak_normalize(AudioBuffer(mixed, SR), config.ceiling_dbfs)


@pytest.mark.parametrize("gains", [(1.0, 1.0), (0.7, 1.3)], ids=["unit", "scaled"])
@pytest.mark.parametrize("ceiling_dbfs", [-1.0, -30.0], ids=["ceiling", "rescaled"])
@pytest.mark.parametrize("vocal_length", ["shorter", "as_long", "longer"])
def test_finalize_matches_separate_steps_at_vocal_lengths(
    instrumental, bundle, gains, ceiling_dbfs, vocal_length
):
    config = RemixConfig(generated_gain=gains[0], vocal_gain=gains[1], ceiling_dbfs=ceiling_dbfs)
    gen = click_track(126.0, 8.0, SR, accent_every=4, start_s=START)
    gen_grid = estimate_generated_grid(gen, build_request(bundle), config)
    anchors = build_anchor_map(gen_grid, bundle.beat_grid)
    n_warp = int(round(anchors.target_duration_s * SR))
    n_vocals = {"shorter": n_warp - 1000, "as_long": n_warp, "longer": n_warp + 1}[vocal_length]
    tone = chord_tones([0, 4], 8.25, SR, amplitude=0.1).samples[:, :n_vocals]
    vocals = AudioBuffer(np.repeat(tone, 2, axis=0) * np.array([[1.0], [0.5]]), SR)
    warped = align_to_anchors(gen, anchors, config.wsola)
    before = warped.samples.copy()
    out = finalize_remix(gen, StemSet(instrumental, vocals), gen_grid, bundle.beat_grid, config)
    expected = _separate_steps(gen, vocals, gen_grid, bundle.beat_grid, config)
    assert out.n_samples == max(n_warp, n_vocals)
    assert np.array_equal(out.samples, expected.samples)
    assert not out.samples.flags.writeable
    if ceiling_dbfs == -30.0:
        assert np.abs(out.samples).max() == pytest.approx(10.0 ** (ceiling_dbfs / 20.0))
    # The mix is built in an array of its own, not in an earlier warp's.
    assert np.array_equal(warped.samples, before)
    assert not np.shares_memory(out.samples, warped.samples)
