"""In-memory spans recorded around calls into the program's modules."""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans are [name, start, end, parent index]; the parent of a span is
    the span open when it started (-1 at top level). Nothing is written
    until `write` is called at the end of the run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def count(self, name: str, value: float) -> None:
        """Add `value` to the counter `name`, recorded where the work happens."""
        self.counts[name] = self.counts.get(name, 0.0) + value

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def durations_ms(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of the spans called `name`, optionally only those whose
        parent span is called `parent`."""
        return [
            (end - start) * 1e3
            for span_name, start, end, up in self.spans
            if span_name == name and (parent is None or (up >= 0 and self.spans[up][0] == parent))
        ]

    def median_ms(self, name: str, parent: str | None = None) -> float:
        values = self.durations_ms(name, parent)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def uncovered_ms(self, name: str) -> list[float]:
        """Per span called `name`: its duration minus its children's.

        Children never overlap (calls are sequential), so their summed
        durations are the part of the interval they cover.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, up in self.spans:
            if up >= 0:
                covered[up] += end - start
        return [
            (end - start - covered[i]) * 1e3
            for i, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name
        ]

    def write(self, path: str, env: dict) -> None:
        """The run's environment and counters, then one JSON object per
        span, with start and end in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "counts": self.counts}) + "\n")
            for i, (name, start, end, up) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_s": start - t0,
                                     "end_s": end - t0, "parent": up}) + "\n")
