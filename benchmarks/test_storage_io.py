"""The continuous audit's O(epoch) memory claim (DESIGN.md §8).

One wiki run is audited from a file store two ways: monolithically
(decode everything, audit once) and continuously (``iter_epochs_stored``:
one epoch resident at a time).  The asserted quantity is the tracemalloc
peak of the audit phase (deterministic, interpreter baseline excluded).
The streamed peak must be bounded by the epoch size, not the trace: it
must undercut the monolithic peak and shrink as epochs shrink.
"""

from __future__ import annotations

from repro.harness import print_series
from repro.harness.experiment import ExperimentConfig, streaming_memory

COLUMNS = [
    "seal_every",
    "epochs",
    "streamed_peak_kb",
    "monolithic_peak_kb",
    "verdicts_ok",
]


def test_streaming_audit_memory(scale, tmp_path):
    cfg = ExperimentConfig(
        "wiki", mix="mixed", n_requests=scale.n_requests, concurrency=15, seed=0
    )
    sweep = [
        streaming_memory(cfg, seal_every, str(tmp_path / f"seal-{seal_every}"))
        for seal_every in (5, 20)
    ]
    rows = [
        {
            "seal_every": m.seal_every,
            "epochs": m.epochs,
            "streamed_peak_kb": m.streamed_peak_bytes // 1024,
            "monolithic_peak_kb": m.monolithic_peak_bytes // 1024,
            "verdicts_ok": m.verdicts_match,
        }
        for m in sweep
    ]
    print_series(
        f"Continuous audit memory, --store file ({2 * cfg.n_requests} "
        "trace events, wiki)",
        rows, COLUMNS,
    )
    for m in sweep:
        assert m.streamed_accepted and m.monolithic_accepted
        # O(epoch), not O(trace): the streamed audit never holds the
        # decoded whole, so its peak must undercut the monolithic audit's.
        assert m.streamed_peak_bytes < m.monolithic_peak_bytes, (
            f"seal_every={m.seal_every}: streamed peak "
            f"{m.streamed_peak_bytes} >= monolithic {m.monolithic_peak_bytes}"
        )
    # And the bound tracks the epoch size: finer epochs, smaller peak.
    finest, coarsest = sweep[0], sweep[-1]
    assert finest.epochs > coarsest.epochs
    assert finest.streamed_peak_bytes < coarsest.streamed_peak_bytes, (
        f"peak did not shrink with epoch size: "
        f"{finest.streamed_peak_bytes} (seal_every={finest.seal_every}) vs "
        f"{coarsest.streamed_peak_bytes} (seal_every={coarsest.seal_every})"
    )
