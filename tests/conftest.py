"""Shared fixtures: synthetic material and a local stub generation server."""
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

from chordweave.chords import parse_progression
from chordweave.synth import chord_tones, click_track, concat, mix, silence

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def demo_input():
    """8.25 s at 44.1 kHz: accented clicks at 120 BPM from 0.25 s under C:maj G:maj C:maj G:maj.

    One triad (amplitude 0.3) a bar, each starting on its bar's first click.
    An AudioBuffer is sealed, so every test shares this one.
    """
    start, rate = 0.25, 44100
    prog = parse_progression("C:maj G:maj C:maj G:maj", bpm=120)
    layers = [click_track(120.0, 8.0, rate, accent_every=4, start_s=start)]
    for ev in prog.events:
        tones = chord_tones(sorted(ev.chord.pitch_classes()), ev.duration_s, rate, amplitude=0.3)
        layers.append(concat([silence(ev.start_s + start, rate), tones]))
    return mix(layers)


@pytest.fixture
def stub_server():
    """Local HTTP endpoint with a configurable canned response.

    Yields (url, state); tests mutate state["body"] / state["content_type"]
    before the request and read state["requests"] afterwards.  The
    Content-Length header states the body's length unless
    state["content_length"] is set: a string is sent as the header's
    value, and False sends no header (the body then ends at close).
    """
    state = {
        "body": b"",
        "content_type": "audio/wav",
        "status": 200,
        "content_length": None,
        "requests": [],
    }

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            state["requests"].append(self.rfile.read(length))
            self.send_response(state["status"])
            self.send_header("Content-Type", state["content_type"])
            length = state["content_length"]
            if length is None:
                length = str(len(state["body"]))
            if length is not False:
                self.send_header("Content-Length", length)
            self.end_headers()
            try:
                self.wfile.write(state["body"])
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client stopped reading early, as a size cap does

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # shutdown() waits out one poll interval; serve_forever's default is 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/generate", state
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive(), "the stub server's thread did not stop"
