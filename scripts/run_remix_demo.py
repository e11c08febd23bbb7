"""End-to-end demo: synthesize an input, remix it against the stub backend,
and report how well the remixed clicks land on the input's downbeats.

Everything runs locally; the only network traffic is the loopback POST to
the stub.
"""
import argparse
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from chordweave.audio import read_wav
from chordweave.pipeline import RemixConfig, analyze_beats, read_generation_request
from chordweave.synth import find_clicks

SCRIPTS = Path(__file__).resolve().parent


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for(port, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"stub backend did not come up on port {port}")


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

    subprocess.run(
        [sys.executable, str(SCRIPTS / "make_demo_input.py"), "--out", str(input_wav)],
        check=True,
    )

    subprocess.run(
        [sys.executable, "-m", "chordweave.cli", "remix", str(input_wav),
         "--prompt", args.prompt, "--dry-run", "--out", str(request_json)],
        check=True,
    )
    req = read_generation_request(request_json)
    print(f"dry run: {request_json} ({req.bpm:.1f} BPM, {req.duration_s:.2f} s, "
          f"{req.chroma.n_frames} chroma frames)")

    port = free_port()
    stub = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "stub_backend.py"), "--port", str(port),
         "--tempo-scale", str(args.tempo_scale)],
    )
    try:
        wait_for(port)
        subprocess.run(
            [sys.executable, "-m", "chordweave.cli", "remix", str(input_wav),
             "--prompt", args.prompt, "--endpoint", f"http://127.0.0.1:{port}/generate",
             "--out", str(mix_wav)],
            check=True,
        )
    finally:
        stub.terminate()
        stub.wait(timeout=10)

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
