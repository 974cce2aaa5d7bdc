#!/usr/bin/env python3
"""End-to-end comparison on the wiki application (paper Figures 6-8).

Serves the wiki workload at increasing concurrency and compares, for each
level: server overhead (Karousos vs unmodified), verification time
(Karousos vs Orochi-JS vs sequential re-execution), and advice size.

The experiment drivers in :mod:`repro.harness.experiment` serve and audit;
they hand back zero-argument callables and never read a clock.  This
example times each callable once on the wall clock; the figure benchmarks
(``benchmarks/``) time the same callables on a calibrated clock.

Run:  python examples/wiki_end_to_end.py
"""

import time

from repro.harness import print_series
from repro.harness.experiment import (
    ExperimentConfig,
    advice_sizes,
    serve_after_warmup,
    verification_arms,
)
from repro.server import KarousosPolicy, UnmodifiedPolicy


def timed(step):
    """Wall seconds of one call of ``step``, and its result."""
    started = time.perf_counter()
    result = step()
    return time.perf_counter() - started, result


def main():
    rows = []
    for concurrency in (1, 10, 30):
        cfg = ExperimentConfig(
            "wiki", n_requests=200, concurrency=concurrency, seed=0
        )
        unmodified, _ = timed(serve_after_warmup(cfg, UnmodifiedPolicy()))
        karousos, _ = timed(serve_after_warmup(cfg, KarousosPolicy()))
        arms = verification_arms(cfg)
        k_seconds, k_result = timed(arms.karousos)
        o_seconds, o_result = timed(arms.orochi)
        seq_seconds, _ = timed(arms.sequential)
        sizes = advice_sizes(cfg)
        rows.append(
            {
                "concurrency": concurrency,
                "server_overhead_x": karousos / unmodified,
                "verify_karousos_s": k_seconds,
                "verify_orochi_s": o_seconds,
                "verify_sequential_s": seq_seconds,
                "groups_K/O": f"{k_result.stats['groups']}/{o_result.stats['groups']}",
                "advice_K_KiB": sizes.karousos_bytes / 1024,
                "advice_O_KiB": sizes.orochi_bytes / 1024,
            }
        )
    print_series(
        "Wiki end to end (200 requests, mixed workload)",
        rows,
        [
            "concurrency",
            "server_overhead_x",
            "verify_karousos_s",
            "verify_orochi_s",
            "verify_sequential_s",
            "groups_K/O",
            "advice_K_KiB",
            "advice_O_KiB",
        ],
    )
    print(
        "\nShape notes (cf. paper section 6): auditability costs the server a"
        "\nconstant factor; the Karousos verifier batches re-execution and"
        "\nships less advice than Orochi-JS thanks to R-ordered (unlogged)"
        "\naccesses such as the read-mostly site config."
    )


if __name__ == "__main__":
    main()
