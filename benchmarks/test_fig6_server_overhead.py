"""Figure 6: Karousos server vs unmodified server, processing time.

The paper reports, for the post-warmup 480 of 600 requests, the total
processing time while sweeping the number of concurrent requests:

* MOTD, 90% writes -- the worst case for Karousos (paper: 5.4-6.3x);
* stack dump, 90% reads -- overhead grows with concurrency because
  activation-order tracking dominates (paper: 1.7-3.5x);
* Wiki.js, mixed -- overhead 1.2-2.8x, milder concurrency growth.

We re-measure the same sweep and assert the shape: Karousos always costs
more than the unmodified server, and the MOTD write-heavy overhead exceeds
the MOTD read-heavy overhead (writes log one-or-two values, reads zero-or-
one; section 6.1).
"""

from __future__ import annotations

from benchmarks.panels import PANEL_A, configs, median_overhead, server_row
from repro.harness import print_series
from repro.harness.experiment import ExperimentConfig


def _sweep(clock, scale, app, mix):
    return [server_row(clock, cfg, scale.repeats) for cfg in configs(scale, app, mix)]


def test_fig6_motd_write_heavy(clock, scale):
    rows = _sweep(clock, scale, "motd", "write-heavy")
    print_series("Figure 6 (MOTD, 90% writes): server processing time", rows, PANEL_A)
    assert median_overhead(rows) > 1.0, "advice collection costs"


def test_fig6_stacks_read_heavy(clock, scale):
    rows = _sweep(clock, scale, "stacks", "read-heavy")
    print_series("Figure 6 (stacks, 90% reads): server processing time", rows, PANEL_A)
    assert median_overhead(rows) > 1.0


def test_fig6_wiki(clock, scale):
    rows = _sweep(clock, scale, "wiki", "mixed")
    print_series("Figure 6 (Wiki.js, mixed): server processing time", rows, PANEL_A)
    assert median_overhead(rows) > 1.0


def test_fig6_claim_writes_cost_more_than_reads(clock, scale):
    """Section 6.1: 'The more writes, the worse Karousos's overhead' --
    an R-concurrent write logs one or two values, a read zero or one.

    This contrast is a small constant factor, so it gets a larger fixed
    workload and more repeats than the sweeps to stay out of the noise.
    """
    n = max(400, scale.n_requests)
    repeats = max(7, scale.repeats)
    write_heavy, read_heavy = (
        server_row(
            clock,
            ExperimentConfig("motd", mix=mix, n_requests=n, concurrency=30),
            repeats,
        )["overhead_x"]
        for mix in ("write-heavy", "read-heavy")
    )
    print(f"\nMOTD overhead: write-heavy {write_heavy:.2f}x vs "
          f"read-heavy {read_heavy:.2f}x")
    assert write_heavy > read_heavy
