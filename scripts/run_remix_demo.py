"""End-to-end demo: synthesize an input, remix it against the stub backend,
and report how well the remixed clicks land on the input's downbeats.

Everything runs locally; the only network traffic is the loopback POST to
the stub, which this process serves on a port the system picks while the
CLI runs as a subprocess.
"""
import argparse
import subprocess
import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import numpy as np
from make_demo_input import build_demo_input
from stub_backend import make_handler

from chordweave.audio import read_wav, write_wav
from chordweave.pipeline import RemixConfig, analyze_beats, read_generation_request
from chordweave.synth import find_clicks

SAMPLE_RATE = 44100
LEAD_IN_S = 0.25


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--prompt", default="laid-back jazz trio")
    parser.add_argument("--tempo-scale", type=float, default=1.05)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    input_wav = work / "input.wav"
    request_json = work / "request.json"
    mix_wav = work / "remix.wav"

    demo = build_demo_input("C:maj G:maj C:maj G:maj", 120.0, SAMPLE_RATE, LEAD_IN_S)
    write_wav(demo, input_wav, "float32")
    print(f"input: {input_wav} ({demo.duration_s:.2f} s)")

    subprocess.run(
        [sys.executable, "-m", "chordweave.cli", "remix", str(input_wav),
         "--prompt", args.prompt, "--dry-run", "--out", str(request_json)],
        check=True,
    )
    req = read_generation_request(request_json)
    print(f"dry run: {request_json} ({req.bpm:.1f} BPM, {req.duration_s:.2f} s, "
          f"{req.chroma.n_frames} chroma frames)")

    # The server holds its port from construction on, so no other process
    # can take it before the CLI connects.
    stub = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(args.tempo_scale, LEAD_IN_S, SAMPLE_RATE)
    )
    serving = threading.Thread(target=stub.serve_forever)
    serving.start()
    try:
        port = stub.server_address[1]
        subprocess.run(
            [sys.executable, "-m", "chordweave.cli", "remix", str(input_wav),
             "--prompt", args.prompt, "--endpoint", f"http://127.0.0.1:{port}/generate",
             "--out", str(mix_wav)],
            check=True,
        )
    finally:
        stub.shutdown()
        serving.join()
        stub.server_close()

    mixed = read_wav(mix_wav)
    grid = analyze_beats(read_wav(input_wav), RemixConfig())
    clicks = find_clicks(mixed)
    peak = float(np.abs(np.asarray(mixed.samples)).max())
    print(f"remix: {mix_wav} ({mixed.duration_s:.2f} s, peak {peak:.3f})")
    print("input downbeats vs nearest remixed click:")
    for d in grid.downbeats_s:
        if d >= mixed.duration_s - 0.05:
            print(f"  {d:7.3f} s  (at the warped end, truncated)")
            continue
        err_ms = min(abs(c - d) for c in clicks) * 1000.0
        print(f"  {d:7.3f} s  err {err_ms:5.1f} ms")


if __name__ == "__main__":
    main()
