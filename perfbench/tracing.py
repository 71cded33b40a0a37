"""In-memory spans for the traced replay.

A span records a name, start and end (monotonic seconds), the id of the span
that was open when it started, and the run id shared by every span of one
replay.  Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "parent": parent, "name": name, "run": self.run_id,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's.

    Children of one span run one after another, so the part of the parent
    they cover is the sum of their durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
    return dict(out)
