#!/usr/bin/env python3
"""chordweave benchmark: one workload, one process, JSON result on the last line.

    python3 perfbench/run.py --workload remix_long --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory.  The run makes its inputs from --seed and sets up
(fresh package import, loopback backend start, one warm-up op) a few
times.  The timed part runs whole passes over the input pool until
--seconds have passed, checking every op's output, and sets up once more
every half second between ops.  --trace 0 reports the end-to-end metrics,
with set-up and op times given at a nominal host speed (see HostGauge);
--trace 1 pairs each untraced op with a traced twin that times every
stage of `pipeline.run_remix` from outside, over the whole pool, and
reports the per-layer metrics.  Accuracy against the inputs' ground
truth and the inputs' SHA-256 are printed on the line before the result.
"""

import os
import sys

# One BLAS thread: the client and the loopback server thread share two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Quality, import_package  # noqa: E402

# Set-ups measured before the timed ops; during them, one more whenever
# SETUP_EVERY_S have passed since the last.  Spread over the whole run,
# their median sees the same host speed as the ops do, not only the
# host's speed at the run's two ends.
SETUP_REPS = 3
SETUP_EVERY_S = 0.5

# The median HostGauge sample on the host the bounds were set on, a
# 2-vCPU KVM guest: timings are reported as they would read on a host
# where the gauge takes this long.
GAUGE_NOMINAL_S = 0.05

# Past --seconds, a traced run starts no new op once this many seconds
# have passed, even if it has not covered the whole pool yet, so that a
# traced remix_long run (about 15 s per clip) still ends well within its
# time limit on a host running at half speed.
TRACE_LIMIT_S = 100.0

# (metric, span, count key or None for busy time, unit); each is
# the median over traced ops of the per-op sum.
PER_LAYER = [
    ("timewarp.align_to_anchors.busy_s", "timewarp.align_to_anchors", None, "s"),
    ("timewarp.segments", "timewarp.align_to_anchors", "segments", "count"),
    ("timewarp.grains", "timewarp.align_to_anchors", "grains", "count"),
    ("pipeline.finalize_remix.busy_s", "pipeline.finalize_remix", None, "s"),
    ("beats.onset_envelope.input.busy_s", "beats.onset_envelope.input", None, "s"),
    ("beats.onset_envelope.input.frames", "beats.onset_envelope.input", "frames", "count"),
    ("beats.estimate_bpm.input.busy_s", "beats.estimate_bpm.input", None, "s"),
    ("beats.track_beats.input.busy_s", "beats.track_beats.input", None, "s"),
    ("beats.onset_envelope.generated.busy_s", "beats.onset_envelope.generated", None, "s"),
    ("beats.onset_envelope.generated.frames", "beats.onset_envelope.generated", "frames",
     "count"),
    ("beats.estimate_bpm.generated.busy_s", "beats.estimate_bpm.generated", None, "s"),
    ("beats.track_beats.generated.busy_s", "beats.track_beats.generated", None, "s"),
    ("analysis.compute_chromagram.busy_s", "analysis.compute_chromagram", None, "s"),
    ("analysis.compute_chromagram.frames", "analysis.compute_chromagram", "frames", "count"),
    ("analysis.recognize_chords.busy_s", "analysis.recognize_chords", None, "s"),
    ("analysis.recognize_chords.events", "analysis.recognize_chords", "events", "count"),
    ("chords.parse_progression.busy_s", "chords.parse_progression", None, "s"),
    ("chords.parse_progression.events", "chords.parse_progression", "events", "count"),
    ("chroma.render_matrix.busy_s", "chroma.render_matrix", None, "s"),
    ("chroma.render_matrix.frames", "chroma.render_matrix", "frames", "count"),
    ("pipeline.write_generation_request.busy_s", "pipeline.write_generation_request", None,
     "s"),
    ("pipeline.write_generation_request.bytes", "pipeline.write_generation_request", "bytes",
     "bytes"),
    ("pipeline.read_generation_request.busy_s", "pipeline.read_generation_request", None, "s"),
    ("pipeline.request_generation.busy_s", "pipeline.request_generation", None, "s"),
    ("pipeline.request_generation.response_bytes", "pipeline.request_generation",
     "response_bytes", "bytes"),
    ("backend.serve_s", "pipeline.request_generation", "serve_s", "s"),
    ("audio.read_wav.busy_s", "audio.read_wav", None, "s"),
    ("audio.read_wav.bytes", "audio.read_wav", "bytes", "bytes"),
    ("audio.write_wav.busy_s", "audio.write_wav", None, "s"),
]


def run_op(wl, item):
    """(op seconds, outcome or None, failure reason or None); never raises."""
    t0 = time.perf_counter()
    try:
        out = wl.op(item)
    except Exception:  # a failing op is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - t0, None, "op raised"
    elapsed = time.perf_counter() - t0
    try:
        reason = wl.check(item, out)
    except Exception:
        traceback.print_exc()
        reason = "check raised"
    return elapsed, out, reason


class HostGauge:
    """A fixed piece of work in the benchmark's own code: a JSON round
    trip, an STFT and a short synthesized clip.

    It is timed after every set-up, so its median over a run says how
    fast the shared host ran during that run.  It calls nothing in the
    package, so a change to the package leaves it alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._doc = [[float(v) for v in row] for row in rng.random((400, 12))]
        signal = rng.standard_normal(inputs.SAMPLE_RATE)
        self._frames = np.lib.stride_tricks.sliding_window_view(signal, 2048)[::256]
        self._window = np.hanning(2048)
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(3):
            json.loads(json.dumps(self._doc))
            np.abs(np.fft.rfft(self._frames * self._window, axis=1)).sum(axis=0)
        inputs.wav_bytes(inputs.synth_clip(np.random.default_rng(0), 1.5, 120.0)[0])
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self):
        """How many times slower than nominal the host ran."""
        return statistics.median(self.samples) / GAUGE_NOMINAL_S


def set_up(wl, warmup, gauge):
    """Seconds of one set-up: package import, wl.start(), one warm-up op.

    The warm-up op's checks and a gauge sample run after the clock stops.
    """
    wl.stop()
    # The last set-up's modules are garbage now; collect them here, not
    # inside some later timed region.
    gc.collect()
    t0 = time.perf_counter()
    wl.start(import_package(SRC))
    out = wl.op(warmup)
    elapsed = time.perf_counter() - t0
    reason = wl.check(warmup, out)
    if reason is not None:
        raise RuntimeError(f"warm-up op failed: {reason}")
    gauge.sample()
    return elapsed


def measure(wl, items, seconds, quality, warmup, setup_s, gauge):
    """Whole passes over the pool, untraced, until `seconds` have passed.

    Whole passes weigh every input alike, so the mix of short and long
    inputs, and with it each percentile, does not hang on where the
    clock stops.  Set-ups between ops are appended to setup_s.
    """
    op_s, content, reasons = [], [], []
    start = last_setup = time.perf_counter()
    while not op_s or time.perf_counter() - start < seconds:
        for item in items:
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setup_s.append(set_up(wl, warmup, gauge))
                last_setup = time.perf_counter()
            elapsed, out, reason = run_op(wl, item)
            if reason is None and len(op_s) < len(items):
                wl.finish(quality, item, out)
            op_s.append(elapsed)
            content.append(item.content_s)
            reasons.append(reason)
    return op_s, content, reasons


def measure_traced(wl, items, seconds, quality, tracer):
    """Untraced op, then its traced twin on the same input, over the whole
    pool (unless TRACE_LIMIT_S runs out first) and on until `seconds`
    have passed."""
    reasons, overhead = [], []
    start = time.perf_counter()
    k = 0
    while True:
        ran = time.perf_counter() - start
        if ran >= seconds and (k >= len(items) or ran >= TRACE_LIMIT_S):
            break
        item = items[k % len(items)]
        elapsed, out, reason = run_op(wl, item)
        if reason is None and k < len(items):
            wl.finish(quality, item, out)
        tracer.op_id = k
        try:
            twin = wl.traced_op(item, tracer)
        except Exception:
            traceback.print_exc()
            twin = None
        if twin is None:
            reason = reason or "traced op raised"
        elif out is None or twin.digest != out.digest:
            reason = reason or "traced output differs from the untraced output"
        else:
            overhead.append(tracer.per_op("op")[-1] - elapsed)
        reasons.append(reason)
        k += 1
    return reasons, overhead


def layer_metrics(tracer, overhead):
    def median(values):
        return float(statistics.median(values)) if values else 0.0

    metrics = {}
    for name, span, key, unit in PER_LAYER:
        metrics[name] = {"value": median(tracer.per_op(span, key)), "unit": unit}
    warps = [s["counts"] for s in tracer.spans if s["name"] == "timewarp.align_to_anchors"]
    metrics["timewarp.stretch_min"] = {
        "value": min((w["stretch_min"] for w in warps), default=0.0), "unit": "ratio"}
    metrics["timewarp.stretch_max"] = {
        "value": max((w["stretch_max"] for w in warps), default=0.0), "unit": "ratio"}
    metrics["pipeline.request_generation.failed"] = {
        "value": sum(1 for s in tracer.spans
                     if s["name"] == "pipeline.request_generation" and s.get("error")),
        "unit": "count"}
    metrics["trace.overhead_s"] = {"value": median(overhead), "unit": "s"}
    return metrics


def inputs_digest(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        if item.path:
            digest.update(inputs.sha256_file(item.path).encode())
        else:
            digest.update(f"{item.truth.text}|{item.truth.bpm!r}\n".encode())
    return digest.hexdigest()


def weighted_median(values, weights):
    """The value at which the sorted values' cumulative weight reaches half."""
    order = np.argsort(values)
    cumulative = np.cumsum(np.asarray(weights, dtype=np.float64)[order])
    return float(np.asarray(values)[order][np.searchsorted(cumulative, cumulative[-1] / 2)])


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chordweave", "__init__.py")):
        print(f"no chordweave package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    wl = WORKLOADS[args.workload](workdir)
    try:
        items = wl.make_inputs(args.seed)
        digest = inputs_digest(items)
        warmup = wl.make_warmup()
        gauge = HostGauge()
        setup_s = [set_up(wl, warmup, gauge) for _ in range(SETUP_REPS)]
        quality = Quality()
        tracer = Tracer()
        op_s, wall = [], {}
        if args.trace:
            reasons, overhead = measure_traced(wl, items, args.seconds, quality, tracer)
            metrics = layer_metrics(tracer, overhead)
            for name, (value, unit) in quality.metrics().items():
                metrics[name] = {"value": value, "unit": unit}
        else:
            op_s, content, reasons = measure(
                wl, items, args.seconds, quality, warmup, setup_s, gauge
            )
            # Each op's seconds of music per second of op time, 0 for an
            # op that failed its checks; the median weighted by music
            # seconds, so a long input counts as much as its share of the
            # music and a few ops slowed by the host do not move it.
            rates = [c / t if r is None else 0.0 for c, t, r in zip(content, op_s, reasons)]
            wall = {
                "setup_s": statistics.median(setup_s),
                "content_s_per_s": weighted_median(rates, content),
                "op_s.p50": percentile(op_s, 50),
                "op_s.p90": percentile(op_s, 90),
            }
            # The timings as they would read on a host running at the
            # nominal speed; the wall figures go on the report line.
            slowdown = gauge.slowdown()
            metrics = {
                "setup_s": {"value": wall["setup_s"] / slowdown, "unit": "s"},
                "content_s_per_s": {"value": wall["content_s_per_s"] * slowdown, "unit": "s/s"},
                "op_s.p50": {"value": wall["op_s.p50"] / slowdown, "unit": "s"},
                "op_s.p90": {"value": wall["op_s.p90"] / slowdown, "unit": "s"},
                "ok_ratio": {"value": reasons.count(None) / len(reasons), "unit": "ratio"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    finally:
        wl.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in reasons if r is not None]
    for reason in sorted(set(failures)):
        print(f"failed op: {reason} (x{failures.count(reason)})", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": digest,
        "pool": len(items),
        "ops": len(reasons),
        "setup_s": setup_s,
        "gauge_s": gauge.samples,
        "wall": wall,
        "op_s": op_s,
        "quality": {k: {"value": v, "unit": u} for k, (v, u) in quality.metrics().items()},
    }
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        report["spans"] = os.path.relpath(
            os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"), ROOT)
        tracer.dump(os.path.join(ROOT, report["spans"]))
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reasons),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
