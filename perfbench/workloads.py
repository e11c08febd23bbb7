"""The benchmark's workloads: inputs, one operation, its checks, its traced twin.

Each workload is a closed loop with one client: the next operation
starts when the previous one returns.  An operation calls only the
package's public API.  Its checks run outside the timed region, and a
check that fails marks the operation failed instead of stopping the run.

The traced twin of an operation makes the same calls that
`pipeline.run_remix` makes, in the same order and with the same config
values, with a span around each call, so a stage's time is measured from
outside the package.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import inputs
from loopback import LoopbackBackend

PROMPT = "laid-back jazz trio"
TIMEOUT_S = 120.0
CONDITIONING_RATE_HZ = 50.0
CHORD_ACC_RATE_HZ = 10.0
MODULES = ("audio", "beats", "analysis", "chords", "chroma", "pipeline", "timewarp")
# Halfway between the backend's beat and downbeat click peaks.  The mix
# carries the reply at generated_gain 1 and its 0.6 peak is below the
# -1 dBFS ceiling, so the mix is not rescaled and the peaks stay apart.
ACCENT_THRESHOLD = inputs.CLICK_AMPLITUDE * (1.0 + inputs.DOWNBEAT_GAIN) / 2.0
CLICK_MIN_GAP_S = 0.05


def import_package(src_dir: str) -> SimpleNamespace:
    """Import chordweave afresh from src_dir and return its modules by name.

    Earlier imports are dropped first, so each call pays the package's
    full import cost.  The package must come from src_dir, never from an
    installed copy.
    """
    for name in [m for m in sys.modules if m == "chordweave" or m.startswith("chordweave.")]:
        del sys.modules[name]
    package = importlib.import_module("chordweave")
    origin = os.path.realpath(os.path.dirname(package.__file__))
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"chordweave imported from {origin}, not from {src_dir}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"chordweave.{name}") for name in MODULES}
    )


@dataclass(frozen=True)
class Item:
    """One input of a workload's pool."""

    index: int
    content_s: float
    truth: object
    path: str = ""


@dataclass
class Outcome:
    """What one operation left behind, for its checks."""

    path: str  # the file the op wrote
    bundle: object = None  # ConditioningBundle, or the parsed ChordSequence
    request: object = None  # the GenerationRequest sent or written
    result: object = None  # the mix, or the request read back
    digest: str = ""  # SHA-256 of the file at path


def find_downbeat_clicks(mono: np.ndarray, sample_rate: int) -> np.ndarray:
    """Times of the accented (downbeat) clicks: rising crossings of
    ACCENT_THRESHOLD at least CLICK_MIN_GAP_S apart."""
    above = np.abs(mono) > ACCENT_THRESHOLD
    edges = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    if above.size and above[0]:
        edges = np.concatenate([[0], edges])
    times = []
    last = -np.inf
    gap = CLICK_MIN_GAP_S * sample_rate
    for s in edges:
        if s - last >= gap:
            times.append(s)
            last = s
    return np.asarray(times, dtype=np.float64) / sample_rate


def _nearest_error_s(points, targets) -> np.ndarray:
    """|p - nearest target| for each point."""
    points = np.asarray(points, dtype=np.float64)
    targets = np.sort(np.asarray(targets, dtype=np.float64))
    if points.size == 0 or targets.size == 0:
        return np.zeros(0)
    idx = np.clip(np.searchsorted(targets, points), 1, len(targets) - 1)
    return np.minimum(np.abs(points - targets[idx - 1]), np.abs(points - targets[idx]))


class Quality:
    """Accuracy against the synthesized ground truth, pooled over a run."""

    def __init__(self):
        self.bpm_err = []
        self.downbeat_err_ms = []
        self.click_err_ms = []
        self.chord_hits = 0
        self.chord_frames = 0

    def add_clip(self, truth: inputs.ClipTruth, bundle) -> None:
        grid = bundle.beat_grid
        self.bpm_err.append(abs(grid.bpm - truth.bpm))
        err = _nearest_error_s(grid.downbeats_s, truth.downbeats_s)
        self.downbeat_err_ms.append(1000.0 * float(err.max()) if err.size else float("inf"))
        times = (np.arange(int(round(truth.duration_s * CHORD_ACC_RATE_HZ))) + 0.5) / (
            CHORD_ACC_RATE_HZ
        )
        events = bundle.chords.events
        starts = np.array([e.start_s for e in events])
        idx = np.searchsorted(starts, times, side="right") - 1
        expected = truth.pitch_classes_at(times)
        for t, i, want in zip(times, idx, expected):
            got = frozenset()
            if i >= 0 and t < events[i].end_s:
                got = events[i].chord.pitch_classes()
            self.chord_hits += got == want
        self.chord_frames += len(times)

    def add_mix(self, mix, input_grid) -> None:
        """Remixed downbeat clicks against the input grid's downbeats."""
        mono = mix.samples.mean(axis=0)
        clicks = find_downbeat_clicks(mono, mix.sample_rate)
        downbeats = [d for d in input_grid.downbeats_s if d < mix.duration_s - 0.05]
        err = _nearest_error_s(downbeats, clicks)
        self.click_err_ms.append(1000.0 * float(err.max()) if err.size else float("inf"))

    def metrics(self) -> dict:
        def top(values):
            return float(max(values)) if values else 0.0

        return {
            "bpm_err.max": (top(self.bpm_err), "BPM"),
            "downbeat_err_ms.max": (top(self.downbeat_err_ms), "ms"),
            "chord_acc": (self.chord_hits / self.chord_frames if self.chord_frames else 0.0,
                          "ratio"),
            "remix_click_err_ms.max": (top(self.click_err_ms), "ms"),
        }


class Workload:
    """Base: subclasses define the pool, the op, its checks and its traced twin."""

    name = ""
    pool_size = 1

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cw = None
        self.config = None

    def start(self, cw: SimpleNamespace) -> None:
        self.cw = cw
        self.config = cw.pipeline.RemixConfig()

    def stop(self) -> None:
        pass

    def _path(self, stem: str) -> str:
        return os.path.join(self.workdir, stem)

    def make_inputs(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def make_warmup(self) -> Item:
        raise NotImplementedError

    def op(self, item: Item) -> Outcome:
        raise NotImplementedError

    def check(self, item: Item, out: Outcome) -> str | None:
        """None when the op's output is right, else why it is not."""
        raise NotImplementedError

    def traced_op(self, item: Item, tracer) -> Outcome:
        raise NotImplementedError

    def finish(self, quality: Quality, item: Item, out: Outcome) -> None:
        """Record accuracy for an op whose checks passed."""


class RemixLong(Workload):
    """Read a long mono PCM16 clip, remix it live against the loopback
    backend, write the mix."""

    name = "remix_long"
    pool_size = 4
    length_range_s = (150.0, 240.0)
    bpm_range = (85.0, 150.0)

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.backend = None
        self.url = ""

    def start(self, cw):
        super().start(cw)
        self.backend = LoopbackBackend()
        self.url = self.backend.start()

    def stop(self):
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def _clip(self, rng, index, duration_s, bpm) -> Item:
        samples, truth = inputs.synth_clip(rng, duration_s, bpm)
        path = self._path(f"{self.name}-{index}.wav")
        with open(path, "wb") as fh:
            fh.write(inputs.wav_bytes(samples))
        return Item(index, duration_s, truth, path)

    def make_inputs(self, seed):
        design = inputs.pool_design(seed, self.pool_size, self.length_range_s, self.bpm_range)
        return [
            self._clip(np.random.default_rng([seed, i]), i, length, bpm)
            for i, (length, bpm) in enumerate(design)
        ]

    def make_warmup(self):
        return self._clip(np.random.default_rng(0), -1, 6.0, 120.0)

    # run_remix's stages, split into their public calls, in its order.

    def _traced_conditioning(self, item: Item, tracer):
        cw, config = self.cw, self.config
        with tracer.span("audio.read_wav", bytes=os.path.getsize(item.path)):
            buffer = cw.audio.read_wav(item.path)
        with tracer.span("pipeline.ingest_stems"):
            stems = cw.pipeline.ingest_stems(buffer, None, config)
        grid = self._traced_grid(
            tracer, "input", stems.instrumental, config.min_bpm, config.max_bpm
        )
        # With no vocal stem, prepare_conditioning reads the chords off the
        # instrumental stem whatever config.chord_source says.
        with tracer.span("analysis.compute_chromagram") as counts:
            chromagram = cw.analysis.compute_chromagram(
                cw.audio.to_mono(stems.instrumental), config.chromagram
            )
            counts["frames"] = chromagram.n_frames
        with tracer.span("analysis.recognize_chords") as counts:
            chords = cw.analysis.recognize_chords(
                chromagram,
                config.recognition,
                bpm=grid.bpm,
                time_signature=cw.chords.TimeSignature(config.beats_per_bar, 4),
            )
            counts["events"] = len(chords.events)
        with tracer.span("chroma.render_matrix") as counts:
            matrix = cw.chroma.render_matrix(chords, config.conditioning_frame_rate_hz)
            counts["frames"] = matrix.n_frames
        bundle = cw.pipeline.ConditioningBundle(
            grid, chords, matrix, PROMPT, stems.instrumental.duration_s
        )
        return stems, bundle, cw.pipeline.build_request(bundle)

    def _traced_grid(self, tracer, site: str, buffer, min_bpm: float, max_bpm: float):
        """onset_envelope, estimate_bpm, track_beats, as analyze_beats and
        estimate_generated_grid chain them."""
        cw, config = self.cw, self.config
        with tracer.span(f"beats.onset_envelope.{site}") as counts:
            envelope = cw.beats.onset_envelope(
                cw.audio.to_mono(buffer), config.beat_window_size, config.beat_hop_size
            )
            counts["frames"] = envelope.n_frames
        with tracer.span(f"beats.estimate_bpm.{site}"):
            bpm = cw.beats.estimate_bpm(envelope, min_bpm, max_bpm)
        with tracer.span(f"beats.track_beats.{site}"):
            return cw.beats.track_beats(envelope, bpm, config.beats_per_bar)

    def op(self, item):
        cw = self.cw
        buffer = cw.audio.read_wav(item.path)
        bundle, req, mix = cw.pipeline.run_remix(
            buffer, None, PROMPT, self.config, endpoint=self.url, mode="live",
            timeout_s=TIMEOUT_S,
        )
        path = self._path("mix.wav")
        cw.audio.write_wav(mix, path)
        return Outcome(path, bundle, req, mix)

    def check(self, item, out):
        cw, config, mix = self.cw, self.config, out.result
        out.digest = inputs.sha256_file(out.path)
        if not np.all(np.isfinite(mix.samples)):
            return "mix holds non-finite samples"
        ceiling = 10.0 ** (config.ceiling_dbfs / 20.0)
        peak = float(np.max(np.abs(mix.samples)))
        if peak > ceiling + 1e-9:
            return f"mix peak {peak:.6f} above the ceiling {ceiling:.6f}"
        generated = cw.audio.decode_wav(self.backend.last_body)
        generated_grid = cw.pipeline.estimate_generated_grid(generated, out.request, config)
        anchors = cw.timewarp.build_anchor_map(generated_grid, out.bundle.beat_grid)
        expected = int(round(anchors.target_duration_s * mix.sample_rate))
        if mix.n_samples != expected:
            return f"mix holds {mix.n_samples} samples, the last anchor needs {expected}"
        oracle = cw.chroma.render_matrix(out.bundle.chords, config.conditioning_frame_rate_hz)
        if out.request.chroma != oracle:
            return "request chroma differs from render_matrix(bundle.chords)"
        return None

    def finish(self, quality, item, out):
        quality.add_clip(item.truth, out.bundle)
        quality.add_mix(out.result, out.bundle.beat_grid)

    def traced_op(self, item, tracer):
        cw, config = self.cw, self.config
        self.backend.take_served()
        with tracer.span("op"):
            stems, bundle, req = self._traced_conditioning(item, tracer)
            with tracer.span("pipeline.request_generation") as counts:
                generated = cw.pipeline.request_generation(
                    req, self.url, "live", None, TIMEOUT_S
                )
                served = self.backend.take_served()
                counts["response_bytes"] = sum(n for _, n in served)
                counts["serve_s"] = sum(s for s, _ in served)
            tol = config.bpm_seed_tolerance
            generated_grid = self._traced_grid(
                tracer, "generated", generated, req.bpm * (1.0 - tol), req.bpm * (1.0 + tol)
            )
            with tracer.span("pipeline.finalize_remix"):
                mix = cw.pipeline.finalize_remix(
                    generated, stems, generated_grid, bundle.beat_grid, config
                )
            path = self._path("mix-traced.wav")
            with tracer.span("audio.write_wav"):
                cw.audio.write_wav(mix, path)
        # The warp has no public entry but finalize_remix, so it is timed
        # once more on its own, outside the op span.
        with tracer.span("timewarp.build_anchor_map"):
            anchors = cw.timewarp.build_anchor_map(generated_grid, bundle.beat_grid)
        with tracer.span("timewarp.align_to_anchors") as counts:
            cw.timewarp.align_to_anchors(generated, anchors, config.wsola)
            counts.update(_warp_counts(anchors, generated, config.wsola))
        return Outcome(path, bundle, req, mix, inputs.sha256_file(path))


def _warp_counts(anchors, buffer, wsola) -> dict:
    """Segments, WSOLA grains and stretch range of an anchor-map warp.

    Mirrors the grain count of timewarp's WSOLA: a segment copied as is,
    or too short to grain, takes none.
    """
    rate = buffer.sample_rate
    grains = 0
    ratios = []
    for (s0, t0), (s1, t1) in zip(anchors.pairs, anchors.pairs[1:]):
        ratios.append((t1 - t0) / (s1 - s0))
        src = min(int(round(s1 * rate)), buffer.n_samples) - min(
            int(round(s0 * rate)), buffer.n_samples
        )
        tgt = int(round(t1 * rate)) - int(round(t0 * rate))
        if src == tgt or min(src, tgt) <= wsola.frame_length:
            continue
        grains += int(np.ceil((tgt - wsola.frame_length) / wsola.hop)) + 1
    return {
        "segments": len(ratios),
        "grains": grains,
        "stretch_min": min(ratios),
        "stretch_max": max(ratios),
    }


class ProgressionDoc(Workload):
    """Parse a typed progression, render its chroma, write the genreq
    document and read it back."""

    name = "progression_doc"
    pool_size = 32
    bars_range = (8, 128)
    bpm_range = (60.0, 180.0)

    def make_inputs(self, seed):
        design = inputs.pool_design(seed, self.pool_size, self.bars_range, self.bpm_range)
        items = []
        for i, (bars, bpm) in enumerate(design):
            truth = inputs.make_progression(np.random.default_rng([seed, i]), int(round(bars)), bpm)
            items.append(Item(i, truth.duration_s, truth))
        return items

    def make_warmup(self):
        truth = inputs.make_progression(np.random.default_rng(0), 4, 120.0)
        return Item(-1, truth.duration_s, truth)

    def op(self, item):
        cw, truth = self.cw, item.truth
        path = self._path("progression.json")
        seq = cw.chords.parse_progression(truth.text, truth.bpm)
        matrix = cw.chroma.render_matrix(seq, CONDITIONING_RATE_HZ)
        req = cw.pipeline.GenerationRequest(PROMPT, seq.bpm, seq.duration_s, matrix)
        cw.pipeline.write_generation_request(req, path)
        back = cw.pipeline.read_generation_request(path)
        return Outcome(path, seq, req, back)

    def check(self, item, out):
        seq, req, back = out.bundle, out.request, out.result
        out.digest = inputs.sha256_file(out.path)
        if back != req:
            return "read-back request differs from the written one"
        if len(seq.events) != item.truth.events:
            return f"parsed {len(seq.events)} events, the text holds {item.truth.events}"
        frames = int(round(item.truth.duration_s * CONDITIONING_RATE_HZ))
        if req.chroma.n_frames != frames:
            return f"rendered {req.chroma.n_frames} frames, the duration needs {frames}"
        return None

    def traced_op(self, item, tracer):
        cw, truth = self.cw, item.truth
        path = self._path("progression-traced.json")
        with tracer.span("op"):
            with tracer.span("chords.parse_progression") as counts:
                seq = cw.chords.parse_progression(truth.text, truth.bpm)
                counts["events"] = len(seq.events)
            with tracer.span("chroma.render_matrix") as counts:
                matrix = cw.chroma.render_matrix(seq, CONDITIONING_RATE_HZ)
                counts["frames"] = matrix.n_frames
            req = cw.pipeline.GenerationRequest(PROMPT, seq.bpm, seq.duration_s, matrix)
            with tracer.span("pipeline.write_generation_request") as counts:
                cw.pipeline.write_generation_request(req, path)
                counts["bytes"] = os.path.getsize(path)
            with tracer.span("pipeline.read_generation_request"):
                back = cw.pipeline.read_generation_request(path)
        return Outcome(path, seq, req, back, inputs.sha256_file(path))


WORKLOADS = {w.name: w for w in (RemixLong, ProgressionDoc)}
