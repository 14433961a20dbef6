"""In-memory spans recorded around the benchmark's calls into qlrlab.

Every timed call goes through :meth:`Tracer.span`, which always measures
wall and CPU time so the end-to-end metrics come from the same timers in
traced and untraced runs. Only a traced run keeps the span records
(name, layer, start, end, parent span, run id); they stay in memory until
:meth:`Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    """Timing of one call: ``perf_counter`` at ``start``, wall seconds in
    ``dur`` and CPU seconds in ``cpu``."""

    __slots__ = ("start", "dur", "cpu")

    def __init__(self):
        self.start = 0.0
        self.dur = 0.0
        self.cpu = 0.0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = 0
        self.records: list[dict] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        timing = Span()
        if not self.enabled:
            cpu0 = time.process_time()
            start = timing.start = time.perf_counter()
            yield timing
            timing.dur = time.perf_counter() - start
            timing.cpu = time.process_time() - cpu0
            return
        book0 = time.perf_counter()
        index = len(self.records)
        record = {
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.records.append(record)
        self._stack.append(index)
        cpu0 = time.process_time()
        start = timing.start = time.perf_counter()
        self.overhead_s += start - book0
        try:
            yield timing
        finally:
            end = time.perf_counter()
            timing.dur = end - start
            timing.cpu = time.process_time() - cpu0
            self._stack.pop()
            record.update(start=start, end=end, cpu=timing.cpu)
            self.overhead_s += time.perf_counter() - end

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def self_time_by_layer(self) -> dict[str, float]:
        """Span duration minus the part its child spans cover, per layer."""
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record, children in zip(self.records, child_time):
            own = record["end"] - record["start"] - children
            totals[record["layer"]] = totals.get(record["layer"], 0.0) + own
        return totals

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for index, record in enumerate(self.records):
                handle.write(json.dumps({"id": index, **record}, sort_keys=True) + "\n")
