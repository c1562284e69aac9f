"""Spans and counters recorded around calls into ssf_lab's layers.

``instrument`` (in workloads.py) replaces chosen public functions of the
program, once per process, by wrappers that open a span around each call, so
spans follow the calls the program itself makes.  Spans are kept in memory and
written out when the run ends.  Counters are always on: they cost a dictionary
update per call, and the benchmark compares them between passes to show that
they repeat exactly.  Span timing is only taken when tracing is enabled.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.record = None

    def __enter__(self):
        tr = self.tracer
        tr.count(self.name.split(".", 1)[0] + ".calls")
        if tr.enabled:
            self.record = {
                "id": len(tr.spans),
                "name": self.name,
                "parent": tr._stack[-1] if tr._stack else None,
                "run": tr.run_id,
                "start": time.perf_counter(),
                "end": None,
                "error": None,
            }
            tr.spans.append(self.record)
            tr._stack.append(self.record["id"])
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        if exc_type is not None:
            tr.count(self.name.split(".", 1)[0] + ".errors")
        if self.record is not None:
            self.record["end"] = time.perf_counter()
            if exc_type is not None:
                self.record["error"] = exc_type.__name__
            tr._stack.pop()
        return False


class Tracer:
    """Collects spans (name, start, end, parent, run id), integer counters
    that must repeat between passes, and float measures that need not."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.measures: dict[str, float] = defaultdict(float)
        self.run_id: str | None = None
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        """Context manager around one call; ``name`` is ``<layer>.<what>``."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def measure(self, name: str, x: float) -> None:
        self.measures[name] += x

    def begin_run(self, run_id: str, enabled: bool) -> None:
        """Start a pass: reset counters and measures, keep earlier spans for the dump."""
        self.run_id = run_id
        self.enabled = enabled
        self.counts = defaultdict(int)
        self.measures = defaultdict(float)

    def run_spans(self, run_id: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run_id]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    """``fn`` with a span named ``name`` around each call.

    ``before(*args)`` runs before the span opens and ``after(result)`` after
    it closes; both may record counters.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


def replace_everywhere(package: str, original, replacement) -> int:
    """Rebind every module-level name of ``package`` that holds ``original``
    (including names imported with ``from .x import f``); returns how many."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum over spans of each name of (duration - time covered by children)."""
    child_total = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - child_total[s["id"]]
    return dict(out)


def top_level_seconds(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
