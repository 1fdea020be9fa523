"""Call timing and opt-in span recording for the benchmark.

Every benchmark call into a digitseq module goes through
``Recorder.span``, which adds the call's duration and counts to totals
keyed by (section, span name).  The end-to-end metrics are read from
those totals.  With tracing on, the recorder also keeps one span per
call, section and pass (name, start, end, parent, counts); the traced
run writes them as JSON lines and derives self times from them.

Spans live only in this benchmark's files, around the calls into each
layer; nothing here reaches inside the package.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Per-(section, name) busy time and counts; spans when tracing."""

    def __init__(self, tracing: bool = False):
        self.tracing = tracing
        self.spans = []
        self.totals = defaultdict(lambda: {"s": 0.0, "calls": 0})
        self._section = None
        self._open = []

    @contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block as one call of `name`.

        Yields the span's counts, so that counts known only once the
        call returns can be added before the block ends.
        """
        record = None
        if self.tracing:
            record = {"id": len(self.spans), "name": name,
                      "parent": self._open[-1] if self._open else None,
                      "start": 0.0, "end": 0.0, "counts": counts}
            self.spans.append(record)
            self._open.append(record["id"])
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            if record is not None:
                self._open.pop()
                record["start"], record["end"] = start, end
            total = self.totals[(self._section, name)]
            total["s"] += end - start
            total["calls"] += 1
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value

    @contextmanager
    def section(self, name: str):
        """Attribute the calls made inside to section `name`."""
        self._section = name
        try:
            with self.span("section." + name):
                yield
        finally:
            self._section = None

    def seconds(self, section: str, name: str = None) -> float:
        """Busy seconds of one call name in a section, or of all its calls."""
        if name is not None:
            return self.totals[(section, name)]["s"]
        return sum(t["s"] for (sec, n), t in self.totals.items()
                   if sec == section and not n.startswith("section."))

    def by_name(self, name: str) -> dict:
        """Totals of one call name summed over every section."""
        out = {"s": 0.0, "calls": 0}
        for (_, n), total in self.totals.items():
            if n == name:
                for key, value in total.items():
                    out[key] = out.get(key, 0) + value
        return out


def layer_of(name: str) -> str:
    """The module a span belongs to; the benchmark's own spans are 'bench'."""
    head = name.split(".", 1)[0]
    return "bench" if head in ("pass", "section") else head


def self_times(spans, key=layer_of) -> dict:
    """Self time (span duration minus what its children cover), summed
    per layer, or per ``key(span name)``."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[key(s["name"])] += s["end"] - s["start"] - covered[s["id"]]
    return dict(out)


def write_jsonl(path, header: dict, spans) -> None:
    """One header line, then one line per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"run": header}) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")
