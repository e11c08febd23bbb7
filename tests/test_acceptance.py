"""Acceptance gate: one test per shipped criterion, with its stated budget.

Run `pytest -v tests/test_acceptance.py` for the per-criterion verdict
lines, or add -s to see the timing/detail line each test prints.
"""
import random
import time

import numpy as np
import pytest

from chordweave.analysis import compute_chromagram, recognize_chords
from chordweave.audio import encode_wav, to_mono
from chordweave.beats import (
    BeatGrid,
    beat_grid_to_dict,
    estimate_bpm,
    onset_envelope,
    read_beat_grid,
    write_beat_grid,
)
from chordweave.chords import (
    QUALITIES,
    Chord,
    chord_sequence_to_dict,
    format_chord,
    parse_chord_symbol,
    parse_progression,
    read_chord_sequence,
    write_chord_sequence,
)
from chordweave.chroma import ChromaMatrix, chord_to_chroma, read_matrix, render_matrix, write_matrix
from chordweave.pipeline import (
    GenerationRequest,
    RemixConfig,
    StemSet,
    estimate_grid,
    generation_request_to_dict,
    prepare_conditioning,
    read_generation_request,
    run_remix,
    write_generation_request,
)
from chordweave.synth import chord_tones, click_track, concat, find_clicks, mix, silence, sine
from chordweave.timewarp import AnchorMap, WsolaConfig, align_to_anchors

from test_audio import stft
from test_timewarp import stretch

SR = 44100


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_chord_bitmaps():
    expected = {"Eb:maj": {3, 7, 10}, "G:maj": {2, 7, 11}, "C:min": {0, 3, 7}}
    ok = True
    for symbol, pcs in expected.items():
        vec = chord_to_chroma(parse_chord_symbol(symbol))
        target = np.zeros(12)
        target[sorted(pcs)] = 1.0
        ok = ok and np.array_equal(vec, target)
    report(1, ok, "Eb:maj/G:maj/C:min chroma bitmaps bit-exact")


def test_criterion_2_progression_example():
    t0 = time.perf_counter()
    text = "G:maj7 D:min7,G:7 C:maj7 F:7 B:min7,Bb:7 A:min7,D:7"
    seq = parse_progression(text, bpm=120)
    mat = render_matrix(seq, 50.0)
    elapsed = time.perf_counter() - t0
    contiguous = all(
        abs(a.end_s - b.start_s) < 1e-9 for a, b in zip(seq.events, seq.events[1:])
    )
    ok = (
        len(seq.events) == 9
        and contiguous
        and seq.duration_s == pytest.approx(12.0)
        and mat.n_frames == 600
        and elapsed < 1.0
    )
    report(2, ok, f"9 events, 12.0 s, 600 frames in {elapsed * 1e3:.0f} ms")


def test_criterion_3_parser_round_trip():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for root in range(12):
        for name in QUALITIES:
            chord = Chord(root, QUALITIES[name])
            again = parse_chord_symbol(format_chord(chord))
            ok = ok and again.pitch_classes() == chord.pitch_classes()
            count += 1
    elapsed = time.perf_counter() - t0
    ok = ok and count == 192 and elapsed < 1.0
    report(3, ok, f"{count} chords round-tripped in {elapsed * 1e3:.0f} ms")


def test_criterion_4_recognition_oracle():
    t0 = time.perf_counter()
    symbols = [f"{Chord(r, QUALITIES[q])}" for r in range(12) for q in ("maj", "min")]
    prog = parse_progression(" ".join(symbols), bpm=120)
    audio = concat(
        [chord_tones(sorted(e.chord.pitch_classes()), e.duration_s, SR) for e in prog.events]
    )
    mat = compute_chromagram(to_mono(audio))
    seq = recognize_chords(mat, bpm=120.0)
    correct = 0
    for k in range(mat.n_frames):
        t = (k + 0.5) / mat.frame_rate_hz
        truth, got = prog.chord_at(t), seq.chord_at(t)
        if truth is not None and got is not None and got.pitch_classes() == truth.pitch_classes():
            correct += 1
    accuracy = correct / mat.n_frames

    two = parse_progression("C:maj G:maj", bpm=120)
    clip = concat(
        [chord_tones(sorted(e.chord.pitch_classes()), e.duration_s, SR) for e in two.events]
    )
    boundary_seq = recognize_chords(compute_chromagram(to_mono(clip)), bpm=120.0)
    hop_s = 2048 / SR
    boundary_err = abs(boundary_seq.events[1].start_s - 2.0) if len(boundary_seq.events) > 1 else 99.0
    elapsed = time.perf_counter() - t0
    ok = accuracy >= 0.95 and boundary_err <= 2 * hop_s and elapsed < 30.0
    report(
        4,
        ok,
        f"accuracy {accuracy * 100:.1f}% (≥95), boundary {boundary_err * 1e3:.1f} ms "
        f"(≤ {2 * hop_s * 1e3:.1f}), {elapsed:.1f} s",
    )


def test_criterion_5_tempo_oracle():
    t0 = time.perf_counter()
    worst_bpm = 0.0
    worst_down = 0.0
    for bpm in (90.0, 100.0, 120.0, 140.0):
        buf = to_mono(click_track(bpm, 10.0, SR, accent_every=4))
        est = estimate_bpm(onset_envelope(buf))
        worst_bpm = max(worst_bpm, abs(est - bpm))
        grid = estimate_grid(buf, RemixConfig())
        bar_s = 4 * 60.0 / bpm
        for d in grid.downbeats_s:
            err = abs(d - round(d / bar_s) * bar_s)
            worst_down = max(worst_down, err)
    elapsed = time.perf_counter() - t0
    ok = worst_bpm <= 1.0 and worst_down <= 0.012 and elapsed < 10.0
    report(
        5,
        ok,
        f"worst tempo err {worst_bpm:.3f} BPM (≤1), worst downbeat err "
        f"{worst_down * 1e3:.1f} ms (≤12), {elapsed:.1f} s",
    )


def test_criterion_6_tsm_contract():
    t0 = time.perf_counter()
    config = WsolaConfig()
    tone = sine(440.0, 2.0, SR)
    ref_bin = int(np.argmax(stft(to_mono(tone), 4096, 1024).mean(axis=0)))
    dur_ok = pitch_ok = True
    for ratio in (0.5, 1.0, 1.5, 2.0):
        out = stretch(tone, ratio, config)
        dur_ok = dur_ok and abs(out.n_samples - round(tone.n_samples * ratio)) <= config.hop
        peak_bin = int(np.argmax(stft(to_mono(out), 4096, 1024).mean(axis=0)))
        pitch_ok = pitch_ok and peak_bin == ref_bin

    clicks = click_track(120.0, 8.0, SR)
    amap = AnchorMap(((0.0, 0.0), (2.0, 2.2), (4.0, 4.4), (6.0, 6.6)))
    warped = align_to_anchors(to_mono(clicks), amap, config)
    found = find_clicks(warped)
    align_err = 0.0
    for src_t, tgt_t in amap.pairs[1:-1]:
        align_err = max(align_err, min(abs(f - tgt_t) for f in found))
    elapsed = time.perf_counter() - t0
    ok = dur_ok and pitch_ok and align_err <= 0.025 and elapsed < 10.0
    report(
        6,
        ok,
        f"durations within one hop: {dur_ok}, pitch bin stable: {pitch_ok}, "
        f"worst anchored click err {align_err * 1e3:.1f} ms (≤25), {elapsed:.1f} s",
    )


def test_criterion_7_end_to_end(tmp_path, stub_server):
    t0 = time.perf_counter()
    start = 0.25
    prog = parse_progression("C:maj G:maj C:maj G:maj", bpm=120)
    layers = [click_track(120.0, 8.0, SR, accent_every=4, start_s=start)]
    for ev in prog.events:
        tones = chord_tones(sorted(ev.chord.pitch_classes()), ev.duration_s, SR, amplitude=0.3)
        layers.append(concat([silence(ev.start_s + start, SR), tones]))
    instrumental = mix(layers)
    config = RemixConfig()

    # dry run twice: byte-identical request artifacts
    req_a, req_b = tmp_path / "a.json", tmp_path / "b.json"
    run_remix(instrumental, None, "jazzy", config, mode="dry_run", out_path=req_a)
    run_remix(instrumental, None, "jazzy", config, mode="dry_run", out_path=req_b)
    identical = req_a.read_bytes() == req_b.read_bytes()

    # embedded chroma equals the stage-oracle composition
    bundle = prepare_conditioning(StemSet(instrumental=instrumental), "jazzy", config)
    oracle = render_matrix(bundle.chords, config.conditioning_frame_rate_hz)
    embedded = read_generation_request(req_a).chroma
    chroma_ok = embedded == oracle

    # live against the stub: click-marked WAV at a neighbouring tempo
    url, state = stub_server
    state["body"] = encode_wav(
        click_track(126.0, instrumental.duration_s, SR, accent_every=4, start_s=start), "pcm16"
    )
    _, _, final = run_remix(
        instrumental, None, "jazzy", config, endpoint=url, mode="live", timeout_s=30.0
    )
    ceiling = 10.0 ** (config.ceiling_dbfs / 20.0)
    peak = float(np.abs(np.asarray(final.samples)).max())
    peak_ok = peak <= ceiling + 1e-9

    found = find_clicks(final)
    click_err = 0.0
    checked = 0
    for d in bundle.beat_grid.downbeats_s:
        if d >= final.duration_s - 0.05:
            continue  # the warp ends exactly on the last downbeat
        click_err = max(click_err, min(abs(f - d) for f in found))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = identical and chroma_ok and peak_ok and checked >= 2 and click_err <= 0.025 and elapsed < 60.0
    report(
        7,
        ok,
        f"dry-run byte-identical: {identical}, chroma matches stage oracles: {chroma_ok}, "
        f"{checked} downbeats hit within {click_err * 1e3:.1f} ms (≤25), "
        f"peak {peak:.3f} ≤ {ceiling:.3f}: {peak_ok}, {elapsed:.1f} s",
    )


def test_criterion_7_downbeat_clicks_keep_their_peak(stub_server):
    # Criterion 7's remix, read at each warped downbeat click: every one
    # keeps the 0.768 peak of the backend's accented click.  A warp split
    # at its anchors dimmed the third to 0.505.
    start = 0.25
    prog = parse_progression("C:maj G:maj C:maj G:maj", bpm=120)
    layers = [click_track(120.0, 8.0, SR, accent_every=4, start_s=start)]
    for ev in prog.events:
        tones = chord_tones(sorted(ev.chord.pitch_classes()), ev.duration_s, SR, amplitude=0.3)
        layers.append(concat([silence(ev.start_s + start, SR), tones]))
    instrumental = mix(layers)
    url, state = stub_server
    state["body"] = encode_wav(
        click_track(126.0, instrumental.duration_s, SR, accent_every=4, start_s=start), "pcm16"
    )
    bundle, _, final = run_remix(
        instrumental, None, "jazzy", RemixConfig(), endpoint=url, mode="live", timeout_s=30.0
    )
    x = np.abs(to_mono(final).samples[0])
    downbeats = [d for d in bundle.beat_grid.downbeats_s if d < final.duration_s - 0.05]
    peaks = [x[round((d - 0.025) * SR) : round((d + 0.025) * SR)].max() for d in downbeats]
    assert len(peaks) >= 3
    assert min(peaks) >= 0.95 * 0.768, peaks


def test_criterion_8_serialization_identity(tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    quality_names = sorted(QUALITIES)
    ok = True

    for case in range(100):
        n_bars = rng.randint(1, 8)
        bpm = rng.uniform(60.0, 180.0)
        text = " ".join(
            f"{Chord(rng.randrange(12), QUALITIES[rng.choice(quality_names)])}"
            for _ in range(n_bars)
        )
        seq = parse_progression(text, bpm=bpm)
        path = tmp_path / "seq.json"
        write_chord_sequence(seq, path)
        ok = ok and chord_sequence_to_dict(read_chord_sequence(path)) == chord_sequence_to_dict(seq)

    for case in range(100):
        frames = rng.randint(1, 40)
        rate = rng.choice([10.0, 25.0, 50.0, 86.1328125])
        values = np.array(
            [[rng.random() for _ in range(12)] for _ in range(frames)], dtype=np.float64
        )
        mat = ChromaMatrix(values, rate)
        path = tmp_path / "chroma.json"
        write_matrix(mat, path)
        ok = ok and read_matrix(path) == mat

    for case in range(100):
        bpm = rng.uniform(60.0, 200.0)
        n = rng.randint(5, 40)
        offset = rng.randrange(4)
        beats = tuple(k * 60.0 / bpm for k in range(n))
        grid = BeatGrid(beats, beats[offset::4], bpm=bpm)
        path = tmp_path / "grid.json"
        write_beat_grid(grid, path)
        back = read_beat_grid(path)
        ok = ok and beat_grid_to_dict(back) == beat_grid_to_dict(grid)

    for case in range(100):
        frames = rng.randint(1, 20)
        values = np.array(
            [[rng.random() for _ in range(12)] for _ in range(frames)], dtype=np.float64
        )
        req = GenerationRequest(
            prompt=f"prompt {case}",
            bpm=rng.uniform(60.0, 200.0),
            duration_s=rng.uniform(1.0, 30.0),
            chroma=ChromaMatrix(values, 50.0),
        )
        path = tmp_path / "req.json"
        write_generation_request(req, path)
        back = read_generation_request(path)
        ok = ok and generation_request_to_dict(back) == generation_request_to_dict(req)

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(8, ok, f"400 randomized documents round-tripped in {elapsed:.2f} s")
