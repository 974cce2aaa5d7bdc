"""Fuzz-campaign throughput and REJECT-detection latency baseline.

The adversarial-advice fuzzer is only useful as a standing regression
gate if a meaningful campaign fits in CI time, so this benchmark tracks
its two operational numbers via :mod:`repro.obs` instrumentation:
mutation throughput (mutations audited per second) and REJECT-detection
latency (how long one tampered audit takes to reject, p50/p95).
"""

from __future__ import annotations

from repro.fuzz import APPS, run_fuzz
from repro.harness import print_series
from repro.obs import MetricsRegistry

COLUMNS = ["metric", "value"]


def _campaign(max_examples):
    metrics = MetricsRegistry()
    report = run_fuzz(
        prop="soundness",
        apps=APPS,
        seed=0,
        max_examples=max_examples,
        metrics=metrics,
    )
    return report, metrics


def test_fuzz_soundness_throughput(scale):
    report, metrics = _campaign(1000 if scale.full else 300)
    assert report.clean, report.as_json()

    mutations = metrics.counter("fuzz.mutations").value
    rejects = metrics.counter("fuzz.rejects").value
    audit_summary = metrics.histogram("fuzz.audit_seconds").summary()
    reject_summary = metrics.histogram("fuzz.reject_seconds").summary()

    # Every applied mutation was audited and timed; every reject was a
    # genuine audited mutation.
    assert mutations == report.stats.applied == audit_summary["count"]
    assert rejects == reject_summary["count"] == sum(
        report.stats.rejects.values()
    )
    assert metrics.counter("fuzz.escapes").value == 0
    # Guaranteed mutations dominate the surface: the campaign must spend
    # most of its applied budget on audits that reject.
    assert rejects >= mutations * 0.5

    mutations_per_second = (
        mutations / audit_summary["sum"] if audit_summary["sum"] else 0.0
    )
    rows = [
        {"metric": "examples", "value": report.stats.examples},
        {"metric": "mutations_audited", "value": mutations},
        {"metric": "rejects", "value": rejects},
        {"metric": "mutations_per_second", "value": round(mutations_per_second, 1)},
        {"metric": "reject_latency_p50_ms", "value": round(reject_summary["p50"] * 1e3, 3)},
        {"metric": "reject_latency_p95_ms", "value": round(reject_summary["p95"] * 1e3, 3)},
    ]
    print_series("Adversarial-advice fuzzer (soundness campaign)", rows, COLUMNS)
