import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chordweave
from chordweave import pipeline
from chordweave.audio import AudioBuffer, read_wav, resample_linear, write_wav
from chordweave.beats import BeatGrid, write_beat_grid
from chordweave.chroma import read_matrix
from chordweave.cli import _config, build_parser, run
from chordweave.pipeline import RemixConfig
from chordweave.synth import chord_tones, click_track, concat, mix, silence
from chordweave.chords import parse_progression

SR = 44100


@pytest.fixture(scope="module")
def input_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "input.wav"
    prog = parse_progression("C:maj G:maj C:maj G:maj", bpm=120)
    layers = [click_track(120.0, 8.0, SR, accent_every=4, start_s=0.25)]
    for ev in prog.events:
        tones = chord_tones(sorted(ev.chord.pitch_classes()), ev.duration_s, SR, amplitude=0.3)
        layers.append(concat([silence(ev.start_s + 0.25, SR), tones]))
    write_wav(mix(layers), path, "float32")
    return path


@pytest.fixture(scope="module")
def short_wav(tmp_path_factory):
    """A 2 s click track: too short for a tempo estimate."""
    path = tmp_path_factory.mktemp("cli") / "short.wav"
    write_wav(click_track(126.0, 2.0, SR, accent_every=4), path)
    return path


def test_parse_writes_two_events(tmp_path):
    out = tmp_path / "chords.json"
    code = run(["parse", "C:maj G:maj", "--bpm", "120", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "chord-seq/v1"
    assert len(doc["events"]) == 2
    assert doc["events"][1]["chord"] == "G:maj"
    assert doc["events"][1]["start_s"] == pytest.approx(2.0)


def test_parse_stdout_when_no_out(capsys):
    assert run(["parse", "C:maj", "--bpm", "120"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "chord-seq/v1"


def test_parse_bad_progression_is_exit_1(capsys):
    assert run(["parse", "C:maj X:nope", "--bpm", "120"]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_missing_required_flag_is_exit_1(capsys):
    assert run(["parse", "C:maj"]) == 1


def test_unknown_subcommand_is_exit_1(capsys):
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "C:maj", "--bpm", "120", "--frame-rate", "7"],
        ["parse", "C:maj", "--bpm", "120", "--sample-rate", "8000"],
        ["align", "a.wav", "--source-grid", "s.json", "--target-grid", "t.json",
         "--out", "o.wav", "--sample-rate", "8000"],
        ["analyze-chords", "a.wav", "--sample-rate", "8000"],
        ["beats", "a.wav", "--sample-rate", "8000"],
        ["melody", "a.wav", "--sample-rate", "8000"],
        ["remix", "a.wav", "--prompt", "p", "--out", "o.wav", "--sample-rate", "8000"],
    ],
    ids=[
        "parse-frame-rate",
        "parse-sample-rate",
        "align-sample-rate",
        "analyze-chords-sample-rate",
        "beats-sample-rate",
        "melody-sample-rate",
        "remix-sample-rate",
    ],
)
def test_flag_the_command_does_not_read_is_exit_1(argv, capsys):
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_encode_frame_count(tmp_path):
    chords = tmp_path / "chords.json"
    out = tmp_path / "chroma.json"
    assert run(["parse", "C:maj G:maj", "--bpm", "120", "--out", str(chords)]) == 0
    assert run(["encode", "--chords", str(chords), "--frame-rate", "50", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "chroma-matrix/v2"
    assert doc["frames"] == 200
    assert [count for count, _ in doc["runs"]] == [100, 100]


def test_zero_frame_encode_reads_back(tmp_path):
    # One bar at 30,000 BPM lasts 8 ms, less than half a frame at 50 Hz.
    chords = tmp_path / "chords.json"
    out = tmp_path / "chroma.json"
    assert run(["parse", "C:maj", "--bpm", "30000", "--out", str(chords)]) == 0
    assert run(["encode", "--chords", str(chords), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["runs"] == []
    assert read_matrix(out).values.shape == (0, 12)


def test_encode_csv(tmp_path):
    chords = tmp_path / "chords.json"
    out = tmp_path / "chroma.csv"
    run(["parse", "C:maj", "--bpm", "120", "--out", str(chords)])
    assert run(["encode", "--chords", str(chords), "--csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "c,cs,d,eb,e,f,fs,g,ab,a,bb,b"


def test_encode_csv_requires_out(tmp_path):
    chords = tmp_path / "chords.json"
    run(["parse", "C:maj", "--bpm", "120", "--out", str(chords)])
    assert run(["encode", "--chords", str(chords), "--csv"]) == 1


def test_encode_missing_file_is_exit_2(tmp_path):
    assert run(["encode", "--chords", str(tmp_path / "absent.json")]) == 2


def test_encode_malformed_document_is_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "beat-grid/v1"}')
    assert run(["encode", "--chords", str(bad)]) == 1


def test_beats_reports_grid(input_wav, tmp_path):
    out = tmp_path / "grid.json"
    assert run(["beats", str(input_wav), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "beat-grid/v1"
    assert abs(doc["bpm"] - 120.0) <= 1.0
    assert len(doc["downbeats_s"]) >= 3


def test_analyze_chords_finds_progression(input_wav, tmp_path):
    for flags, signature in (([], [4, 4]), (["--beats-per-bar", "3"], [3, 4])):
        out = tmp_path / "chords.json"
        argv = ["analyze-chords", str(input_wav), "--bpm", "120", *flags, "--out", str(out)]
        assert run(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["time_signature"] == signature
        names = [e["chord"] for e in doc["events"]]
        assert "C:maj" in names
        assert "G:maj" in names


def test_analyze_chords_bpm_only_seeds_the_grid(input_wav, tmp_path):
    events = []
    for flags in ([], ["--bpm", "120"]):
        out = tmp_path / "chords.json"
        assert run(["analyze-chords", str(input_wav), *flags, "--out", str(out)]) == 0
        events.append(json.loads(out.read_text())["events"])
    assert events[0] == events[1]


def test_melody_rows_are_one_hot(input_wav, tmp_path):
    out = tmp_path / "melody.json"
    assert run(["melody", str(input_wav), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = np.array([row for _, row in doc["runs"]])
    assert ((rows.sum(axis=1) == 0) | (rows.sum(axis=1) == 1)).all()
    assert sum(count for count, _ in doc["runs"]) == doc["frames"]


def test_align_warps_to_target_grid(tmp_path):
    wav = tmp_path / "clicks.wav"
    write_wav(click_track(120.0, 8.0, SR), wav, "float32")
    src_beats = tuple(0.5 * k for k in range(16))
    tgt_beats = tuple(0.55 * k for k in range(16))
    src = BeatGrid(src_beats, src_beats[0::4], bpm=120.0)
    tgt = BeatGrid(tgt_beats, tgt_beats[0::4], bpm=60.0 / 0.55)
    sg, tg = tmp_path / "src.json", tmp_path / "tgt.json"
    write_beat_grid(src, sg)
    write_beat_grid(tgt, tg)
    out = tmp_path / "aligned.wav"
    code = run(
        ["align", str(wav), "--source-grid", str(sg), "--target-grid", str(tg),
         "--encoding", "float32", "--out", str(out)]
    )
    assert code == 0
    assert read_wav(out).n_samples == round(0.55 * 12 * SR)


def test_remix_dry_run_writes_genreq(input_wav, tmp_path):
    out = tmp_path / "req.json"
    code = run(["remix", str(input_wav), "--prompt", "jazzy", "--dry-run", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "genreq/v2"
    assert doc["prompt"] == "jazzy"
    assert doc["chroma"]["format"] == "chroma-matrix/v2"


def test_remix_dry_run_is_byte_identical(input_wav, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["remix", str(input_wav), "--prompt", "p", "--dry-run", "--out", str(a)]) == 0
    assert run(["remix", str(input_wav), "--prompt", "p", "--dry-run", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_remix_without_endpoint_is_exit_3(input_wav, tmp_path, monkeypatch):
    monkeypatch.delenv("CHORDWEAVE_ENDPOINT", raising=False)
    out = tmp_path / "mix.wav"
    assert run(["remix", str(input_wav), "--prompt", "p", "--out", str(out)]) == 3


@pytest.fixture
def no_analysis(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("the analysis started")

    monkeypatch.setattr(pipeline, "prepare_conditioning", started)


@pytest.mark.parametrize(
    "endpoint", [None, "file:///etc/hostname", "notaurl", "http://[::1", "http://"]
)
def test_remix_bad_endpoint_is_exit_3_before_any_work(
    no_analysis, input_wav, tmp_path, monkeypatch, capsys, endpoint
):
    monkeypatch.delenv("CHORDWEAVE_ENDPOINT", raising=False)
    out = tmp_path / "mix.wav"
    argv = ["remix", str(input_wav), "--prompt", "p", "--out", str(out)]
    assert run(argv + ["--endpoint", endpoint] * (endpoint is not None)) == 3
    named = f"endpoint {endpoint!r}" if endpoint else "no endpoint configured"
    err = capsys.readouterr().err
    assert f"chordweave: endpoint error: {named}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [False, True], ids=["live", "dry_run"])
def test_remix_empty_prompt_is_exit_1_before_any_work(
    no_analysis, input_wav, tmp_path, capsys, dry_run
):
    out = tmp_path / "out"
    argv = ["remix", str(input_wav), "--prompt", "", "--endpoint", "http://127.0.0.1:9"]
    assert run(argv + ["--dry-run"] * dry_run + ["--out", str(out)]) == 1
    assert "chordweave: error: prompt must be non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_remix_unreachable_endpoint_is_exit_3(input_wav, tmp_path):
    out = tmp_path / "mix.wav"
    code = run(
        ["remix", str(input_wav), "--prompt", "p", "--endpoint", "http://127.0.0.1:9",
         "--timeout-s", "2", "--out", str(out)]
    )
    assert code == 3


def test_remix_endpoint_from_env(input_wav, tmp_path, monkeypatch, stub_server):
    url, state = stub_server
    from chordweave.audio import encode_wav

    state["body"] = encode_wav(click_track(126.0, 8.25, SR, accent_every=4), "pcm16")
    monkeypatch.setenv("CHORDWEAVE_ENDPOINT", url)
    out = tmp_path / "mix.wav"
    code = run(["remix", str(input_wav), "--prompt", "p", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert len(state["requests"]) == 1


def test_mix_full_path(input_wav, tmp_path):
    gen = tmp_path / "gen.wav"
    write_wav(click_track(126.0, 8.25, SR, accent_every=4, start_s=0.25), gen, "float32")
    out = tmp_path / "mix.wav"
    code = run(["mix", str(gen), "--input", str(input_wav), "--out", str(out)])
    assert code == 0
    mixed = read_wav(out)
    ceiling = 10.0 ** (-1.0 / 20.0)
    assert np.abs(np.asarray(mixed.samples)).max() <= ceiling + 1e-4


def test_mix_writes_the_pipeline_rate(input_wav, tmp_path):
    # A 48 kHz stereo input is ingested at 44.1 kHz, as remix ingests it.
    mono = read_wav(input_wav)
    stereo = resample_linear(AudioBuffer(np.vstack([mono.samples] * 2), SR), 48000)
    source = tmp_path / "input48k.wav"
    write_wav(stereo, source, "float32")
    gen = tmp_path / "gen.wav"
    write_wav(click_track(126.0, 8.25, SR, accent_every=4, start_s=0.25), gen, "float32")
    out = tmp_path / "mix.wav"
    assert run(["mix", str(gen), "--input", str(source), "--out", str(out)]) == 0
    assert read_wav(out).sample_rate == RemixConfig.sample_rate == 44100


@pytest.mark.parametrize("command", ["beats", "analyze-chords"])
def test_stage_command_names_structure_analysis(command, short_wav, capsys):
    assert run([command, str(short_wav)]) == 1
    err = capsys.readouterr().err
    assert "chordweave: error: step 1 (structure analysis): envelope covers 2.00 s" in err


def test_mix_names_timing_alignment(input_wav, short_wav, tmp_path, capsys):
    out = tmp_path / "mix.wav"
    assert run(["mix", str(short_wav), "--input", str(input_wav), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "chordweave: error: step 4 (timing alignment): envelope covers 2.00 s" in err
    assert not out.exists()


def test_package_exports_are_exactly_all():
    assert len(set(chordweave.__all__)) == len(chordweave.__all__)
    for name in chordweave.__all__:
        assert getattr(chordweave, name) is not None, name
    namespace = {}
    exec("from chordweave import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(chordweave.__all__)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_mix_non_finite_ceiling_is_exit_1(input_wav, tmp_path, bad, capsys):
    out = tmp_path / "mix.wav"
    argv = ["mix", str(input_wav), "--input", str(input_wav), f"--ceiling-dbfs={bad}"]
    assert run([*argv, "--out", str(out)]) == 1
    assert "ceiling_dbfs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_parse_non_finite_bpm_is_exit_1(tmp_path, bad, capsys):
    out = tmp_path / "chords.json"
    assert run(["parse", "C:maj", "--bpm", bad, "--out", str(out)]) == 1
    assert "chordweave: error: bpm" in capsys.readouterr().err
    assert not out.exists()


def test_encode_hostile_chord_field_is_exit_1_without_traceback(tmp_path):
    chords = tmp_path / "chords.json"
    doc = {
        "format": "chord-seq/v1",
        "bpm": 120.0,
        "time_signature": [4, 4],
        "events": [{"chord": 5, "start_s": 0.0, "duration_s": 2.0}],
    }
    chords.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "chordweave.cli", "encode", "--chords", str(chords)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert "chordweave: error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_melody_non_finite_silence_floor_is_exit_1_before_reading(tmp_path, bad):
    # No WAV lies at the path, so reading it first would exit 2.
    wav = tmp_path / "missing.wav"
    proc = subprocess.run(
        [sys.executable, "-m", "chordweave.cli", "melody", str(wav), f"--silence-floor={bad}"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert "chordweave: error: silence_floor must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr


_UNUSABLE_SETTINGS = [
    (["mix", "--generated-gain=nan"], "generated_gain must be finite"),
    (["mix", "--generated-gain=inf"], "generated_gain must be finite"),
    (["mix", "--vocal-gain=nan"], "vocal_gain must be finite"),
    (["mix", "--vocal-gain=-inf"], "vocal_gain must be finite"),
    (["mix", "--min-bpm=0"], "need 0 < min_bpm < max_bpm"),
    (["beats", "--min-bpm=200", "--max-bpm=100"], "need 0 < min_bpm < max_bpm"),
    (["analyze-chords", "--max-bpm=nan"], "need 0 < min_bpm < max_bpm"),
    (["remix", "--prompt=p", "--dry-run", "--beats-per-bar=0"], "beats_per_bar must be >= 1"),
]


@pytest.mark.parametrize(
    "argv, message", _UNUSABLE_SETTINGS, ids=[" ".join(argv) for argv, _ in _UNUSABLE_SETTINGS]
)
def test_unusable_settings_are_exit_1_before_any_work(tmp_path, argv, message):
    # No WAV lies at the paths, so reading one first would exit 2.
    command, *flags = argv
    wavs = [str(tmp_path / "missing.wav")]
    if command == "mix":
        wavs += ["--input", str(tmp_path / "missing-input.wav")]
    proc = subprocess.run(
        [sys.executable, "-m", "chordweave.cli", command, *wavs, *flags,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"chordweave: error: {message}"]


@pytest.mark.parametrize("bad", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("dry_run", [False, True], ids=["live", "dry_run"])
def test_remix_bad_timeout_is_exit_1_before_any_work(tmp_path, bad, dry_run, capsys):
    # No WAV lies at the path, so reading it first would exit 2.
    argv = ["remix", str(tmp_path / "missing.wav"), "--prompt", "p", f"--timeout-s={bad}"]
    argv += ["--dry-run"] * dry_run + ["--endpoint", "http://127.0.0.1:9"]
    argv += ["--out", str(tmp_path / "out")]
    assert run(argv) == 1
    assert "chordweave: error: timeout_s must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", '{"frame-rate": NaN}', "{nope"])
def test_config_file_must_be_a_json_object(tmp_path, text, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["parse", "C:maj", "--bpm", "120", "--config", str(cfg)]) == 1
    assert "chordweave: error:" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame-rate": 25.0}))
    chords = tmp_path / "chords.json"
    out = tmp_path / "chroma.json"
    run(["parse", "C:maj G:maj", "--bpm", "120", "--out", str(chords)])
    code = run(["encode", "--chords", str(chords), "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["frames"] == 100


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame-rat": 25.0}))
    assert run(["parse", "C:maj", "--bpm", "120", "--config", str(cfg)]) == 1


def test_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bpm": 60.0}))
    assert run(["parse", "C:maj", "--bpm", "120", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bpm"] == 120.0


@pytest.mark.parametrize(
    "value",
    [
        {"min-bpm": None},
        {"frame-rate": [50]},
        {"beat-unit": 4.5},
        {"beat-unit": True},
        {"beats-per-bar": "four"},
        {"bpm": {}},
        {"frame-rate": False},
        {"csv": 1},
        {"csv": "true"},
        {"encoding": "mp3"},
        {"verbose": True},
    ],
    ids=json.dumps,
)
@pytest.mark.parametrize("command", ["beats", "encode", "parse", "remix"])
def test_config_values_its_flags_would_refuse_are_input_errors(
    tmp_path, capsys, input_wav, value, command
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(value))
    out = tmp_path / "out.json"
    argv = {
        "beats": ["beats", str(input_wav)],
        "encode": ["encode", "--chords", str(tmp_path / "chords.json")],
        "parse": ["parse", "C:maj", "--bpm", "120"],
        "remix": ["remix", str(input_wav), "--prompt", "p", "--dry-run"],
    }[command]
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"chordweave: error: config file option {next(iter(value))!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_values_are_typed_as_their_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beats-per-bar": 3.0, "beat-unit": "8", "bpm": 90, "verbose": 1}))
    assert run(["parse", "C:maj", "--bpm", "120", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["time_signature"] == [3, 8]
    assert "1 events" in captured.err
    cfg.write_text(json.dumps({"frame-rate": "25", "csv": True}))
    chords, out = tmp_path / "chords.json", tmp_path / "chroma.csv"
    run(["parse", "C:maj G:maj", "--bpm", "120", "--out", str(chords)])
    assert run(["encode", "--chords", str(chords), "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 100


def _child_env():
    """Environment in which a child Python imports the chordweave this test imported."""
    env = dict(os.environ)
    src = str(Path(chordweave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _assert_parse_exit_codes(argv):
    env = _child_env()
    ok = subprocess.run(
        [*argv, "parse", "C:maj G:maj", "--bpm", "120"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["format"] == "chord-seq/v1"
    bad = subprocess.run(
        [*argv, "parse", "C:maj X:nope", "--bpm", "120"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode == 1, bad.stderr


def test_console_script_runs():
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, sep, attr = scripts.get("chordweave", "").partition(":")
    assert module and sep and attr.isidentifier(), scripts
    # The code an installer's generated console-script wrapper runs.
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _assert_parse_exit_codes([sys.executable, "-c", wrapper])
    installed = shutil.which("chordweave")
    if installed:
        _assert_parse_exit_codes([installed])


def test_import_does_not_load_concurrent_futures():
    # The thread pool is imported only when work is split across threads.
    code = "import sys, chordweave.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_invocation_matches(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "chordweave.cli", "parse", "C:maj", "--bpm", "90"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bpm"] == 90.0


def test_remix_demo_script_runs(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_remix_demo.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workdir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert read_wav(tmp_path / "remix.wav").n_samples > 0


def test_deeply_nested_config_file_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["--config", str(cfg), "parse", "C:maj"]) == 1
    err = capsys.readouterr().err
    assert "chordweave: error:" in err
    assert "Traceback" not in err


_SUBPARSERS = {p.prog.split()[-1]: p for p in build_parser()[1]}


@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
def test_flag_defaults_are_remix_config_defaults(command):
    actions = _SUBPARSERS[command]._actions
    defaults = argparse.Namespace(**{action.dest: action.default for action in actions})
    assert _config(defaults) == RemixConfig()


@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
def test_every_command_formats_its_help(command):
    assert _SUBPARSERS[command].format_help().startswith(f"usage: chordweave {command}")
