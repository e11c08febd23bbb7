"""In-memory spans for the traced pass, written out when the run ends."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Spans of (name, start, end, parent, op id) plus per-span counts.

    Spans are recorded from outside the package, around the public calls
    of each layer.  Nothing is written until dump().
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record["counts"]
        except BaseException as exc:
            record["error"] = repr(exc)
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def per_op(self, name: str, key: str | None = None) -> list[float]:
        """Per op id: the summed duration (or count `key`) of spans called name."""
        totals: dict = {}
        for s in self.spans:
            if s["name"] != name:
                continue
            value = s["end"] - s["start"] if key is None else s["counts"].get(key, 0)
            totals[s["op"]] = totals.get(s["op"], 0) + value
        return list(totals.values())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")
