"""Shared fixtures: synthetic material and a local stub generation server."""
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


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
