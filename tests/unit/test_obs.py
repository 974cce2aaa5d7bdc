"""Unit suite for the observability spine (repro.obs, DESIGN.md §9):
histogram quantiles, deterministic snapshot merges, JSON round-trips,
null-registry no-ops, and the --metrics-out schema validator."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    SCHEMA,
    ensure_metrics,
    validate_metrics_doc,
)

pytestmark = pytest.mark.tier1


# -- metric kinds -------------------------------------------------------------


def test_counter_accumulates():
    m = MetricsRegistry()
    m.counter("c").inc()
    m.counter("c").inc(4)
    assert m.counter("c").value == 5


def test_gauge_set_and_set_max():
    m = MetricsRegistry()
    m.gauge("g").set(7)
    m.gauge("g").set_max(3)
    assert m.gauge("g").value == 7
    m.gauge("g").set_max(11)
    assert m.gauge("g").value == 11


def test_histogram_nearest_rank_quantiles_exact():
    h = MetricsRegistry().histogram("h")
    for v in range(1, 101):  # 1..100
        h.observe(v)
    # Nearest-rank on 100 values: p50 is the 50th, p95 the 95th.
    assert h.quantile(0.50) == 50
    assert h.quantile(0.95) == 95
    assert h.quantile(1.00) == 100


def test_histogram_quantiles_small_sets():
    h = MetricsRegistry().histogram("h")
    assert h.quantile(0.5) is None  # empty
    h.observe(42)
    assert h.quantile(0.5) == 42
    assert h.quantile(0.95) == 42
    h.observe(7)
    summary = h.summary()
    assert summary["count"] == 2
    assert summary["min"] == 7
    assert summary["max"] == 42
    assert summary["p50"] == 7  # nearest-rank: ceil(0.5*2)=1st of [7,42]


def test_histogram_summary_empty():
    h = MetricsRegistry().histogram("h")
    assert h.summary() == {
        "count": 0, "sum": 0, "min": None, "max": None, "p50": None, "p95": None,
    }


def test_series_points_key_by_index():
    m = MetricsRegistry()
    m.series("s").point(3, 0.5)
    m.series("s").point(1, 0.25)
    assert m.series("s").ordered() == [(1, 0.25), (3, 0.5)]


def test_span_observes_elapsed():
    m = MetricsRegistry()
    with m.span("stage.seconds"):
        pass
    h = m.histogram("stage.seconds")
    assert h.count == 1
    assert h.values[0] >= 0.0


def test_diagnostics_are_structured():
    m = MetricsRegistry()
    m.diagnostic(stage="reexec", reason="divergence", detail="r3/h0", rid="r3")
    assert m.diagnostics == [
        {"stage": "reexec", "reason": "divergence", "detail": "r3/h0", "rid": "r3"}
    ]


# -- merge determinism ---------------------------------------------------------


def _worker_snapshot(seed: int):
    w = MetricsRegistry()
    w.counter("worker.groups").inc(seed)
    w.gauge("peak").set(seed * 10)
    w.histogram("h").observe(seed)
    w.series("s").point(seed, seed * 1.5)
    return w.snapshot()


def test_merge_is_order_free():
    snapshots = [_worker_snapshot(i) for i in (1, 2, 3)]
    forward = MetricsRegistry()
    for snap in snapshots:
        forward.merge(snap)
    backward = MetricsRegistry()
    for snap in reversed(snapshots):
        backward.merge(snap)
    a, b = forward.snapshot(), backward.snapshot()
    # Histogram multisets are order-sensitive lists; compare as multisets,
    # everything else must be byte-identical.
    assert sorted(a["histograms"]["h"]["values"]) == sorted(
        b["histograms"]["h"]["values"]
    )
    a["histograms"]["h"]["values"] = b["histograms"]["h"]["values"] = []
    assert a == b
    assert forward.counter("worker.groups").value == 6
    assert forward.gauge("peak").value == 30  # merge: max
    assert forward.series("s").ordered() == [(1, 1.5), (2, 3.0), (3, 4.5)]


def test_merge_none_and_empty_are_noops():
    m = MetricsRegistry()
    m.counter("c").inc()
    m.merge(None)
    m.merge({})
    assert m.counter("c").value == 1


# -- JSON round-trip ----------------------------------------------------------


def test_snapshot_json_round_trip():
    m = MetricsRegistry()
    m.counter("c").inc(3)
    m.gauge("g").set(2.5)
    m.histogram("h").observe(1)
    m.histogram("h").observe(2)
    m.series("s").point(0, 9)
    m.diagnostic(stage="preprocess", reason="missing-tag")
    doc = m.to_json()
    restored = MetricsRegistry.from_json(doc)
    assert restored.snapshot() == m.snapshot()
    validate_metrics_doc(json.loads(doc))


def test_snapshot_carries_schema_id():
    assert MetricsRegistry().snapshot()["schema"] == SCHEMA


# -- the null registry --------------------------------------------------------


def test_null_metrics_is_inert():
    n = NULL_METRICS
    assert isinstance(n, NullMetrics)
    assert not n.enabled
    n.counter("c").inc(5)
    n.gauge("g").set(1)
    n.gauge("g").set_max(2)
    n.histogram("h").observe(3)
    n.series("s").point(0, 1)
    with n.span("x"):
        pass
    n.diagnostic(stage="s", reason="r")
    n.merge({"counters": {"c": 9}})
    snap = n.snapshot()
    assert snap["counters"] == {}
    assert snap["histograms"] == {}
    assert snap["diagnostics"] == []


def test_ensure_metrics():
    assert ensure_metrics(None) is NULL_METRICS
    live = MetricsRegistry()
    assert ensure_metrics(live) is live


# -- schema validation ----------------------------------------------------------


def test_validate_rejects_bad_documents():
    good = MetricsRegistry()
    good.counter("c").inc()
    good.histogram("h").observe(1)
    base = good.snapshot()
    validate_metrics_doc(base)

    with pytest.raises(ValueError):
        validate_metrics_doc([])
    with pytest.raises(ValueError):
        validate_metrics_doc({**base, "schema": "repro.metrics/0"})
    with pytest.raises(ValueError):
        validate_metrics_doc({**base, "counters": {"c": True}})  # bool != number
    with pytest.raises(ValueError):
        validate_metrics_doc({**base, "gauges": [1]})
    broken = json.loads(json.dumps(base))
    broken["histograms"]["h"]["count"] = 99  # disagrees with values
    with pytest.raises(ValueError):
        validate_metrics_doc(broken)
    broken = json.loads(json.dumps(base))
    del broken["histograms"]["h"]["p95"]
    with pytest.raises(ValueError):
        validate_metrics_doc(broken)
    with pytest.raises(ValueError):
        validate_metrics_doc({**base, "series": {"s": [[0.5, 1]]}})
    with pytest.raises(ValueError):
        validate_metrics_doc({**base, "diagnostics": [{"stage": "x"}]})


# -- merge under concurrency (the fleet-snapshot contract) --------------------


def test_merge_applies_prefix_to_every_kind():
    src = MetricsRegistry()
    src.counter("c").inc(3)
    src.gauge("g").set(7)
    src.histogram("h").observe(1)
    src.histogram("h").observe(2)
    src.series("s").point(0, 0.5)
    src.diagnostic(stage="x", reason="r")
    fleet = MetricsRegistry()
    fleet.merge(src.snapshot(), prefix="tenant.wiki.")
    snap = fleet.snapshot()
    assert snap["counters"]["tenant.wiki.c"] == 3
    assert snap["gauges"]["tenant.wiki.g"] == 7
    assert snap["histograms"]["tenant.wiki.h"]["count"] == 2
    assert snap["series"]["tenant.wiki.s"] == [[0, 0.5]]
    assert snap["diagnostics"][0]["namespace"] == "tenant.wiki"
    validate_metrics_doc(snap)


def test_merge_same_prefix_twice_accumulates_counters():
    src = MetricsRegistry()
    src.counter("c").inc(2)
    fleet = MetricsRegistry()
    fleet.merge(src.snapshot(), prefix="t.")
    fleet.merge(src.snapshot(), prefix="t.")
    assert fleet.snapshot()["counters"]["t.c"] == 4


def test_concurrent_writers_and_merges_lose_nothing():
    """Satellite: N threads hammer private registries while a fleet
    thread repeatedly merges their snapshots -- every increment must
    land exactly once in the final merge and no snapshot may crash
    mid-mutation (the RLock contract)."""
    import threading

    WRITERS, INCS = 4, 500
    privates = [MetricsRegistry() for _ in range(WRITERS)]
    fleet = MetricsRegistry()
    stop = threading.Event()
    errors = []

    def write(reg, who):
        try:
            for i in range(INCS):
                reg.counter("events").inc()
                reg.gauge("peak").set_max(i)
                reg.histogram("lat").observe(i % 7)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def scrape():
        try:
            while not stop.is_set():
                for k, reg in enumerate(privates):
                    # Interleaved snapshot+merge; results are thrown
                    # away -- this thread exists to race the writers.
                    fleet_probe = MetricsRegistry()
                    fleet_probe.merge(reg.snapshot(), prefix=f"t{k}.")
                    validate_metrics_doc(fleet_probe.snapshot())
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=write, args=(reg, k))
        for k, reg in enumerate(privates)
    ]
    scraper = threading.Thread(target=scrape)
    scraper.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    scraper.join()
    assert errors == []
    for k, reg in enumerate(privates):
        fleet.merge(reg.snapshot(), prefix=f"t{k}.")
    snap = fleet.snapshot()
    for k in range(WRITERS):
        assert snap["counters"][f"t{k}.events"] == INCS
        assert snap["gauges"][f"t{k}.peak"] == INCS - 1
        assert snap["histograms"][f"t{k}.lat"]["count"] == INCS
    validate_metrics_doc(snap)
