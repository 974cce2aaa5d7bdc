"""In-memory spans around calls into each layer, written when the run ends.

A span is ``(name, start, end, parent, tenant, epoch)`` on the wall clock,
plus the calling thread's CPU seconds at both ends.  A layer's self time is its
spans' duration minus the part their child spans cover; on the CPU clock it
is what the layer computed, on the wall clock it also holds what the layer
waited for (``fsync``).  The spans are recorded from the benchmark's side of
every boundary; nothing inside ``src/repro`` knows it is being traced.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, tenant, epoch,
        #  cpu at start, cpu at end]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, tenant: str = "", epoch: Optional[int] = None):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, tenant, epoch,
                  time.thread_time(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[7] = time.thread_time()
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self, cpu: bool = True) -> Dict[str, float]:
        """Self time per span name, in CPU seconds or in wall seconds."""
        first, last = (6, 7) if cpu else (1, 2)
        own = [span[last] - span[first] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[last] - span[first]
        totals: Dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            totals[span[0]] += seconds
        return dict(totals)

    def counts(self) -> Dict[str, int]:
        return Counter(span[0] for span in self.spans)

    def chrome(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto): complete events, one row per tenant."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = sorted({span[4] for span in self.spans})
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": rows.index(tenant),
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"tenant": tenant, "epoch": epoch, "parent": parent},
            }
            for name, start, end, parent, tenant, epoch, _, _ in self.spans
        ]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": i,
             "args": {"name": row or "service"}}
            for i, row in enumerate(rows)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(path: str, tracer: Tracer, scale: float) -> None:
    """Write the Chrome trace plus the per-layer self-time table.
    ``scale`` calibrates the seconds of the traced pass."""
    cpu = tracer.self_seconds()
    wall = tracer.self_seconds(cpu=False)
    counts = tracer.counts()
    doc = tracer.chrome()
    doc["selfTime"] = [
        {"layer": name, "spans": counts[name],
         "self_cpu_ms": cpu[name] * scale * 1e3,
         "self_wall_ms": wall[name] * scale * 1e3,
         "cpu_share": cpu[name] / sum(cpu.values())}
        for name in sorted(cpu, key=cpu.get, reverse=True)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
