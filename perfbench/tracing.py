"""In-memory spans around calls into longword, recorded from the benchmark.

A span is (name, start, end, parent, run id, counts), plus the process's
peak RSS in KiB when the span opened and closed.  Spans are kept in
a list while the run lasts and written out once, at the end, as JSON
lines.  Only the benchmark's own code opens spans, always from the
thread that runs the workload; calls the library makes internally are
seen only where the benchmark wraps a module attribute for the length of
one call (see ``Tracer.wrap``).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import resource
import statistics
import time
from typing import Callable, Iterator

perf_counter = time.perf_counter


class Tracer:
    """Span recorder; a disabled tracer calls through and records nothing."""

    def __init__(self, run_id: str = "", enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name: str, **counts) -> Iterator[dict]:
        """Open a span; the yielded dict holds exact counts for it."""
        if not self.enabled:
            yield counts
            return
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "counts": counts,
            "maxrss_kib": [peak_rss_kib(), 0],
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = perf_counter()
        try:
            yield counts
        finally:
            record["end"] = perf_counter()
            record["maxrss_kib"][1] = peak_rss_kib()
            self._stack.pop()

    @contextlib.contextmanager
    def wrap(self, module, modules: tuple[str, ...], prefix: str) -> Iterator[None]:
        """Trace calls that module makes to functions defined in modules.

        Every function attribute of module whose __module__ is one of
        modules is replaced by a traced wrapper named prefix + its name,
        and restored on exit.
        """
        if not self.enabled:
            yield
            return
        originals = {
            key: value
            for key, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ in modules
        }

        def traced(key: str, fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                return self.call(prefix + key, fn, *args, **kwargs)

            return wrapper

        try:
            for key, fn in originals.items():
                setattr(module, key, traced(key, fn))
            yield
        finally:
            for key, fn in originals.items():
                setattr(module, key, fn)

    def select(self, name: str, **counts) -> list[dict]:
        """Closed spans with this name whose counts include the given items."""
        return [
            s
            for s in self.spans
            if s["name"] == name
            and all(s["counts"].get(k) == v for k, v in counts.items())
        ]

    def durations(self, name: str, **counts) -> list[float]:
        return [s["end"] - s["start"] for s in self.select(name, **counts)]

    def self_time(self, span: dict) -> float:
        """Duration minus the time its direct children cover.

        Children run on the same thread as their parent, one after the
        other, so their durations never overlap and simply add up.
        """
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == span["id"]
        )
        return span["end"] - span["start"] - covered

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def peak_rss_kib() -> int:
    """Peak resident set size of this process so far, in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method; one value is itself."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
