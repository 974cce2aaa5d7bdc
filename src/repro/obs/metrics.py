"""Process-local metrics registry (DESIGN.md §9).

The observability spine every layer reports into: counters, gauges,
histograms (with nearest-rank quantiles), ordered series (per-epoch
curves), span timers, and structured rejection diagnostics.  One
:class:`MetricsRegistry` instance belongs to one driver run (an audit, a
serve); layers receive it by parameter and never reach for a global.

Neutrality is a hard requirement: instrumentation must not perturb
verdicts, rejection reasons, or deterministic statistics.  Everything
here is therefore *observe-only* -- no instrumented code path ever reads
a metric back to make a decision -- and the disabled form
(:data:`NULL_METRICS`) is a no-op object that instrumented code can call
unconditionally.  ``tests/integration/test_metrics_neutrality.py``
asserts the equivalence differentially.

Snapshots merge deterministically: counters add, gauges take the
maximum, histogram value multisets union, and series points key by
index -- all order-free operations, so merging per-worker snapshots
yields the same registry no matter which worker finished first.

Ownership model: one registry has one *writer* at a time -- drivers
record from the scheduling thread, workers record into worker-local
registries and hand snapshots back (see DESIGN.md §5).  The registry
is nevertheless safe against the two cross-thread operations the
fleet service actually performs: :meth:`MetricsRegistry.merge` and
:meth:`MetricsRegistry.snapshot` take an internal lock (so a status
endpoint can snapshot while the pump merges), and metric *creation* is
locked so two threads racing on the first use of a name cannot orphan
an increment.  Per-increment writes stay single-writer by design.

Multi-instance use (several auditors in one process, the fleet
service's tenants) namespaces instead of sharing:
:class:`NamespacedMetrics` prefixes every metric name with
``<namespace>.`` over a shared inner registry, and
``merge(snapshot, prefix="tenant.wiki.")`` folds a tenant's snapshot
into a fleet registry under its own key space -- two tenants can no
longer silently sum each other's counters.

The JSON document produced by :meth:`MetricsRegistry.to_json` is a
stable interface (schema id :data:`SCHEMA`); :func:`validate_metrics_doc`
is the schema check CI runs against emitted files.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]

SCHEMA = "repro.metrics/1"


class Counter:
    """Monotonically increasing count (merge: sum)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """Last-set level (merge: max, the only order-free combination)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def set_max(self, value: Number) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Value multiset with nearest-rank quantiles (merge: union)."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[Number] = []

    def observe(self, value: Number) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> Number:
        return sum(self.values)

    def quantile(self, q: float) -> Optional[Number]:
        """Nearest-rank quantile over the observed values (None if empty)."""
        if not self.values:
            return None
        ordered = sorted(self.values)
        rank = max(1, -(-int(q * 100) * len(ordered) // 100))  # ceil(q*n)
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> Dict[str, Optional[Number]]:
        if not self.values:
            return {"count": 0, "sum": 0, "min": None, "max": None,
                    "p50": None, "p95": None}
        ordered = sorted(self.values)
        return {
            "count": len(ordered),
            "sum": sum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
        }


class Series:
    """Ordered (index, value) points -- per-epoch curves.  Points key by
    index, so merging snapshots is order-free (a re-recorded index
    overwrites, which never happens in well-behaved drivers)."""

    __slots__ = ("points",)

    def __init__(self) -> None:
        self.points: Dict[int, Number] = {}

    def point(self, index: int, value: Number) -> None:
        self.points[int(index)] = value

    def ordered(self) -> List[Tuple[int, Number]]:
        return sorted(self.points.items())


class _Span:
    """Context manager recording elapsed seconds into a histogram."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """A namespace of metrics plus structured rejection diagnostics."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, Series] = {}
        self.diagnostics: List[Dict[str, object]] = []
        # Reentrant: merge() creates metrics while holding it.
        self._lock = threading.RLock()

    # -- metric accessors (create on first use) -----------------------------
    #
    # The fast path (metric exists) is a lock-free dict read; only the
    # creation miss takes the lock, so two threads racing on a name's
    # first use both end up holding the same object.

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram())

    def series(self, name: str) -> Series:
        try:
            return self._series[name]
        except KeyError:
            with self._lock:
                return self._series.setdefault(name, Series())

    def span(self, name: str) -> _Span:
        """Time a block: ``with metrics.span("pipeline.stage.reexec.seconds")``."""
        return _Span(self.histogram(name))

    def diagnostic(self, stage: str, reason: str, detail: str = "",
                   **ids: object) -> None:
        """Structured rejection diagnostic: which stage, which reason, and
        any offending identifiers the caller can name."""
        entry: Dict[str, object] = {"stage": stage, "reason": reason,
                                    "detail": detail}
        entry.update(ids)
        self.diagnostics.append(entry)

    # -- snapshots and merge -------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-able document of everything recorded (the wire format of
        the worker -> parent hand-off and of ``--metrics-out``)."""
        with self._lock:
            return {
                "schema": SCHEMA,
                "counters": {k: v.value for k, v in sorted(self._counters.items())},
                "gauges": {k: v.value for k, v in sorted(self._gauges.items())},
                "histograms": {
                    k: dict(v.summary(), values=list(v.values))
                    for k, v in sorted(self._histograms.items())
                },
                "series": {
                    k: [[i, val] for i, val in v.ordered()]
                    for k, v in sorted(self._series.items())
                },
                "diagnostics": list(self.diagnostics),
            }

    def merge(
        self, snapshot: Optional[Dict[str, object]], prefix: str = ""
    ) -> None:
        """Fold a snapshot (e.g. a worker's) into this registry.

        ``prefix`` (e.g. ``"tenant.wiki."``) rewrites every metric name
        into its own key space -- the fleet-merge path that keeps
        per-tenant registries from silently summing into each other.
        Diagnostics gain a ``namespace`` field instead of a renamed key.
        The whole fold holds the registry lock, so concurrent merges
        from different threads interleave without losing increments.
        """
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counter(prefix + name).inc(value)
            for name, value in snapshot.get("gauges", {}).items():
                self.gauge(prefix + name).set_max(value)
            for name, doc in snapshot.get("histograms", {}).items():
                self.histogram(prefix + name).values.extend(doc.get("values", ()))
            for name, points in snapshot.get("series", {}).items():
                series = self.series(prefix + name)
                for index, value in points:
                    series.point(index, value)
            if prefix:
                self.diagnostics.extend(
                    dict(entry, namespace=prefix.rstrip("."))
                    for entry in snapshot.get("diagnostics", ())
                )
            else:
                self.diagnostics.extend(snapshot.get("diagnostics", ()))

    # -- JSON ----------------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, doc: str) -> "MetricsRegistry":
        registry = cls()
        registry.merge(json.loads(doc))
        return registry


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: Number = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0

    def set(self, value: Number) -> None:
        pass

    def set_max(self, value: Number) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: Number) -> None:
        pass


class _NullSeries:
    __slots__ = ()

    def point(self, index: int, value: Number) -> None:
        pass


class NullMetrics(MetricsRegistry):
    """The disabled registry: every operation is a no-op.

    Instrumented code holds a reference and calls it unconditionally;
    the cost of disabled metrics is one attribute lookup and one no-op
    call per instrumentation point.
    """

    enabled = False

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()
    _SERIES = _NullSeries()
    _SPAN = _NullSpan()

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return self._COUNTER  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return self._GAUGE  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:  # type: ignore[override]
        return self._HISTOGRAM  # type: ignore[return-value]

    def series(self, name: str) -> Series:  # type: ignore[override]
        return self._SERIES  # type: ignore[return-value]

    def span(self, name: str) -> _Span:  # type: ignore[override]
        return self._SPAN  # type: ignore[return-value]

    def diagnostic(self, stage: str, reason: str, detail: str = "",
                   **ids: object) -> None:
        pass

    def merge(self, snapshot: Optional[Dict[str, object]],
              prefix: str = "") -> None:
        pass


NULL_METRICS = NullMetrics()


class NamespacedMetrics(MetricsRegistry):
    """A registry view that prefixes every metric name with
    ``<namespace>.`` and records into a shared inner registry.

    This is how several auditors coexist in one process without key
    collisions: each gets ``NamespacedMetrics("tenant.wiki", fleet)``
    and its ``pipeline.verdicts`` lands as
    ``tenant.wiki.pipeline.verdicts`` in the fleet registry.
    Diagnostics gain a ``namespace`` field.  Snapshots operate on the
    *inner* registry's full contents (no scoped sub-snapshot) --
    callers that need a per-tenant document should keep a private
    ``MetricsRegistry`` and fold it with
    ``fleet.merge(snap, prefix=...)`` instead.

    Wrapping :data:`NULL_METRICS` (or any disabled registry) returns the
    inner object unchanged, preserving the zero-cost disabled path.
    """

    def __new__(cls, namespace: str, inner: Optional[MetricsRegistry] = None):
        inner = ensure_metrics(inner)
        if not inner.enabled:
            return inner  # type: ignore[return-value]
        return super().__new__(cls)

    def __init__(self, namespace: str,
                 inner: Optional[MetricsRegistry] = None) -> None:
        inner = ensure_metrics(inner)
        if self is inner:  # __new__ short-circuited to the disabled inner
            return
        super().__init__()
        self._namespace = namespace.rstrip(".")
        self._prefix = self._namespace + "." if self._namespace else ""
        self._inner = inner
        self.diagnostics = inner.diagnostics

    @property
    def namespace(self) -> str:
        return self._namespace

    def counter(self, name: str) -> Counter:
        return self._inner.counter(self._prefix + name)

    def gauge(self, name: str) -> Gauge:
        return self._inner.gauge(self._prefix + name)

    def histogram(self, name: str) -> Histogram:
        return self._inner.histogram(self._prefix + name)

    def series(self, name: str) -> Series:
        return self._inner.series(self._prefix + name)

    def diagnostic(self, stage: str, reason: str, detail: str = "",
                   **ids: object) -> None:
        if "namespace" not in ids and self._namespace:
            ids["namespace"] = self._namespace
        self._inner.diagnostic(stage, reason, detail, **ids)

    def snapshot(self) -> Dict[str, object]:
        return self._inner.snapshot()

    def merge(self, snapshot: Optional[Dict[str, object]],
              prefix: str = "") -> None:
        self._inner.merge(snapshot, prefix=prefix or self._prefix)


def ensure_metrics(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Normalise an optional metrics parameter to a callable registry."""
    return NULL_METRICS if metrics is None else metrics


# -- schema validation -----------------------------------------------------


def validate_metrics_doc(doc: object) -> None:
    """Validate a parsed ``--metrics-out`` document against the schema
    documented in DESIGN.md §9.  Raises ``ValueError`` on any deviation;
    the CI observability job and the unit suite both run this."""
    if not isinstance(doc, dict):
        raise ValueError("metrics document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    for section in ("counters", "gauges", "histograms", "series"):
        if not isinstance(doc.get(section), dict):
            raise ValueError(f"{section!r} must be an object")
    if not isinstance(doc.get("diagnostics"), list):
        raise ValueError("'diagnostics' must be an array")
    num = (int, float)
    for name, value in doc["counters"].items():
        if not isinstance(value, num) or isinstance(value, bool):
            raise ValueError(f"counter {name!r} must be a number")
    for name, value in doc["gauges"].items():
        if not isinstance(value, num) or isinstance(value, bool):
            raise ValueError(f"gauge {name!r} must be a number")
    for name, hist in doc["histograms"].items():
        if not isinstance(hist, dict):
            raise ValueError(f"histogram {name!r} must be an object")
        for key in ("count", "sum", "min", "max", "p50", "p95", "values"):
            if key not in hist:
                raise ValueError(f"histogram {name!r} missing {key!r}")
        if not isinstance(hist["values"], list):
            raise ValueError(f"histogram {name!r} values must be an array")
        if hist["count"] != len(hist["values"]):
            raise ValueError(f"histogram {name!r} count disagrees with values")
    for name, points in doc["series"].items():
        if not isinstance(points, list) or any(
            not (isinstance(p, list) and len(p) == 2 and isinstance(p[0], int))
            for p in points
        ):
            raise ValueError(f"series {name!r} must be [[index, value], ...]")
    for entry in doc["diagnostics"]:
        if not isinstance(entry, dict) or "stage" not in entry or "reason" not in entry:
            raise ValueError("diagnostics entries need 'stage' and 'reason'")
