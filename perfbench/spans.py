"""Span recorder for the traced benchmark run.

Spans are opened around the benchmark's own calls into the program, kept
in memory, and written as JSON Lines when the run ends.  The parent of a
span is whatever span is open in the current context, tracked with a
``contextvars.ContextVar``; timestamps come from ``perf_counter_ns``.
"""

from __future__ import annotations

import contextvars
import json
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass
class Span:
    id: int
    parent: int | None
    case: int
    name: str
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans for the cases it is given; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "open_span", default=None
        )
        self._case = 0

    def start_case(self, case: int) -> None:
        """Spans opened from now on belong to request ``case``."""
        self._case = case

    @contextmanager
    def span(self, name: str):
        parent = self._open.get()
        rec = Span(
            len(self.spans),
            None if parent is None else parent.id,
            self._case,
            name,
            perf_counter_ns(),
        )
        self.spans.append(rec)
        token = self._open.set(rec)
        try:
            yield rec
        finally:
            rec.end_ns = perf_counter_ns()
            self._open.reset(token)

    def self_ns(self) -> dict[int, int]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0
            end = s.start_ns
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
                lo = max(c.start_ns, end)
                if c.end_ns > lo:
                    covered += c.end_ns - lo
                    end = c.end_ns
            out[s.id] = s.duration_ns - covered
        return out

    def summary(self, names, p50_names=(), scale=None) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_ms`` (mean self time per call)
        for every name, and ``<name>.p50_ms`` (median span duration) for
        those in p50_names.  Names with no span read 0.  ``scale`` maps a
        case to the factor its spans' times are multiplied by."""
        self_ns = self.self_ns()
        if scale:
            self_ns = {s.id: self_ns[s.id] * scale[s.case] for s in self.spans}
        calls = {n: 0 for n in names}
        busy = {n: 0 for n in names}
        durations: dict[str, list[int]] = {n: [] for n in p50_names}
        for s in self.spans:
            if s.name in calls:
                calls[s.name] += 1
                busy[s.name] += self_ns[s.id]
            if s.name in durations:
                durations[s.name].append(s.duration_ns * (scale[s.case] if scale else 1))
        out: dict[str, float] = {}
        for n in names:
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.self_ms"] = busy[n] / calls[n] / 1e6 if calls[n] else 0.0
        for n, ds in durations.items():
            out[f"{n}.p50_ms"] = statistics.median(ds) / 1e6 if ds else 0.0
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


class NullRecorder:
    """Stand-in used when tracing is off: records nothing."""

    def start_case(self, case: int) -> None:
        pass

    def span(self, name: str):
        return nullcontext()
