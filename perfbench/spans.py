"""In-memory spans recorded around public calls, and the per-layer figures
derived from them.

A span is (name, start, end, parent, prime): times from perf_counter (the
system-wide monotonic clock on Linux, so spans from pool workers share the
parent's time base), the index of the enclosing span or -1, and the prime
being processed or None.  Spans stay in memory and are written once, when a
run ends.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class Tracer:
    """Records nested spans in call order; not thread-safe."""

    def __init__(self):
        self.spans: list = []
        self.prime = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span called `name` and return its result."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.prime)

    def open(self, name: str) -> int:
        """Start a span that close() ends; for spans around several calls."""
        sid = len(self.spans)
        self.spans.append((name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.prime))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")
        name, start, _, parent, prime = self.spans[sid]
        self.spans[sid] = (name, start, perf_counter(), parent, prime)

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere (a pool worker) under `parent`."""
        base = len(self.spans)
        for name, start, end, par, prime in spans:
            self.spans.append((name, start, end,
                               parent if par < 0 else par + base, prime))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent may overlap when they ran in different worker
    processes, so the covered part is the union of their intervals.
    """
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least
    ten samples beyond it; the maximum when there are fewer than 11 samples."""
    return n - 11 if n >= 11 else n - 1


def layer_stats(spans: list) -> dict:
    """Per span name: busy total, self total, sample count, median and tail."""
    selfs = self_times(spans)
    durations: dict[str, list] = {}
    self_total: dict[str, float] = {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        durations.setdefault(name, []).append(end - start)
        self_total[name] = self_total.get(name, 0.0) + own
    out = {}
    for name, ds in durations.items():
        ds.sort()
        out[name] = {"s": sum(ds), "self_s": self_total[name], "n": len(ds),
                     "ms_p50": statistics.median(ds) * 1e3,
                     "ms_tail": ds[tail_index(len(ds))] * 1e3}
    return out


# Spans that group layer calls rather than being a layer themselves.
STRUCTURAL = ("job", "scan.blocks", "prime")


def unattributed_frac(stats: dict) -> float:
    """Share of all self time that no layer span covers."""
    total = sum(s["self_s"] for s in stats.values())
    return sum(stats[n]["self_s"] for n in STRUCTURAL if n in stats) / total
