"""Loopback generation backend for the benchmark.

One server thread on 127.0.0.1 at an ephemeral port.  It answers each
genreq/v1 POST with a mono PCM16 click track of the requested duration,
at TEMPO_SCALE times the requested tempo and with a LEAD_S lead-in, so
the alignment stage always has real work.  The WAV bytes come from the
benchmark's own writer, so every version of the package under test pays
the same backend cost.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from inputs import click_track, wav_bytes

TEMPO_SCALE = 1.05
LEAD_S = 0.25


class LoopbackBackend:
    """Start with start(), stop with close(); records per-request serve time."""

    def __init__(self):
        self._lock = threading.Lock()
        self.served: list[tuple[float, int]] = []  # (serve_s, body bytes)
        self.last_body = b""
        self._server: HTTPServer | None = None
        self._thread: threading.Thread | None = None

    def reply(self, request_body: bytes) -> bytes:
        doc = json.loads(request_body)
        bpm = float(doc["bpm"]) * TEMPO_SCALE
        duration_s = float(doc["duration_s"])
        return wav_bytes(click_track(bpm, duration_s, LEAD_S))

    def start(self) -> str:
        backend = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                t0 = time.perf_counter()
                length = int(self.headers.get("Content-Length", 0))
                try:
                    body = backend.reply(self.rfile.read(length))
                except (ValueError, KeyError, TypeError):
                    self.send_error(400, "not a genreq document")
                    return
                serve_s = time.perf_counter() - t0
                with backend._lock:
                    backend.served.append((serve_s, len(body)))
                    backend.last_body = body
                self.send_response(200)
                self.send_header("Content-Type", "audio/wav")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return f"http://127.0.0.1:{self._server.server_address[1]}/generate"

    def take_served(self) -> list[tuple[float, int]]:
        with self._lock:
            served, self.served = self.served, []
        return served

    def close(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
        self._server = self._thread = None
