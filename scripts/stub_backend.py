"""Stand-in generation backend for offline runs.

Accepts genreq/v2 POSTs and answers with a click-marked WAV at the
requested duration, with the tempo scaled away from the request so the
timing-alignment stage has real work to do.  It reads only "bpm" and
"duration_s".
"""
import argparse
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from chordweave.audio import encode_wav
from chordweave.synth import click_track


def make_handler(tempo_scale, start_s, sample_rate):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            try:
                req = json.loads(self.rfile.read(length))
                bpm = float(req["bpm"]) * tempo_scale
                duration_s = float(req["duration_s"])
            except (ValueError, KeyError, json.JSONDecodeError):
                self.send_error(400, "not a genreq document")
                return
            body = encode_wav(
                click_track(bpm, duration_s, sample_rate, accent_every=4, start_s=start_s),
                "pcm16",
            )
            self.send_response(200)
            self.send_header("Content-Type", "audio/wav")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            print(f"served {duration_s:.2f} s of clicks at {bpm:.1f} BPM")

        def log_message(self, *args):
            pass

    return Handler


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--tempo-scale", type=float, default=1.05,
                        help="generated tempo relative to the requested one")
    parser.add_argument("--start-s", type=float, default=0.25)
    parser.add_argument("--sample-rate", type=int, default=44100)
    args = parser.parse_args()

    server = ThreadingHTTPServer(
        ("127.0.0.1", args.port), make_handler(args.tempo_scale, args.start_s, args.sample_rate)
    )
    print(f"stub backend on http://127.0.0.1:{args.port}/ "
          f"(tempo x{args.tempo_scale:g}, lead-in {args.start_s:g} s)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
