"""In-memory spans around the benchmark's calls into meastree.

A span records its name (``<module>.<function>``), start, end, parent
span and circuit id. Spans stay in memory and are written out when the
run ends. Times and parents live in ``array`` columns, which the garbage
collector never scans, so a long traced run does not slow collection.
When the tracer is disabled, ``call`` adds one Python frame and records
only the call's wall time, in ``laps``: an untraced run adds a circuit's
stage times from these.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.circuit = ""
        self.names: list[str] = []
        self.circuits: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # -1 for a span without parent
        self.values: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self.laps: list[float] = []  # durations of untraced calls, cleared by the caller

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.circuits.append(self.circuit)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.laps.append(time.perf_counter() - start)
            return out
        index = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    def last_duration(self) -> float:
        return self.ends[-1] - self.starts[-1]

    def note(self, name: str, value: float) -> None:
        """Record one sample of a per-layer quantity (a count or a derived time)."""
        if self.enabled:
            self.values.setdefault(name, []).append(float(value))

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        inner = [0.0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                inner[parent] += d
        out: dict[str, list[float]] = {}
        for name, d, i in zip(self.names, durations, inner):
            out.setdefault(name, []).append(d - i)
        return out

    def summary(self, largest=()) -> dict[str, float]:
        """Median self time per span name (suffix ``_s``) and median per noted
        value, or the largest sample for the names in ``largest``."""
        out = {f"{name}_s": statistics.median(v) for name, v in self.self_times().items()}
        for name, v in self.values.items():
            out[name] = max(v) if name in largest else statistics.median(v)
        return out

    def write(self, path) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p if p >= 0 else None, "circuit": c}
            for n, s, e, p, c in zip(self.names, self.starts, self.ends, self.parents, self.circuits)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "values": self.values}, fh)
