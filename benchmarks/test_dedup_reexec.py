"""Deduplicated re-execution speedup on a skewed workload (DESIGN.md §11).

The verdict cache's performance claim: on a workload whose activations
repeat -- the Zipf-shaped read traffic real deployments see -- a
warm-cache audit's re-execution stage beats the cache-off audit by >= 2x,
because digest-hit groups replay a stored effect instead of re-running
handler code.  App compute is scaled up (``KAROUSOS_WORK_SCALE``) so the
measurement reflects the paper's regime, where handler CPU dominates the
reexec stage; the digest/rehydrate overhead the cache adds is charged
against it honestly (same stage, same timer), and the speedup must never
cost a verdict: the warm audit's outcome is byte-equal to the cold one's.
"""

from __future__ import annotations

import random
from typing import List

from repro.apps import wiki_app
from repro.core.ids import make_rid
from repro.harness import print_series
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.trace.trace import Request
from repro.verifier import Auditor
from repro.verifier.dedup import Deduplicator

COLUMNS = ["arm", "reexec_seconds", "speedup", "hits", "misses"]

# Handler compute multiplier: large enough that handler CPU dominates the
# reexec stage (the paper's regime -- its apps run 1.6k-19k LOC per
# request; at x1 the stand-in compute is so cheap that digest+rehydrate
# overhead swamps the savings), small enough that the cold arms stay
# CI-friendly.
WORK_SCALE = 128.0

SEED = 2024


def skewed_workload(n: int, pages: int = 6, seed: int = SEED) -> List[Request]:
    """A Zipf-like wiki mix: a small write prefix creates the page pool,
    then render traffic over it with 1/rank popularity -- most requests
    hammer the same couple of hot pages, so their audit-time activations
    are digest-identical."""
    rng = random.Random(seed)
    out = []
    titles = []
    for i in range(pages):
        title = f"Hot_{i}"
        titles.append(title)
        out.append(
            Request.make(
                make_rid(i), "create_page",
                title=title, content=f"Contents of {title}.",
            )
        )
    weights = [1.0 / rank for rank in range(1, pages + 1)]
    for i in range(pages, n):
        title = rng.choices(titles, weights=weights)[0]
        out.append(Request.make(make_rid(i), "render", title=title))
    return out


def _strip(stats):
    return {k: v for k, v in stats.items() if k != "elapsed_seconds"}


def _audit(run, dedup=None, metrics=None):
    auditor = Auditor(
        wiki_app(), run.trace, run.advice, dedup=dedup, metrics=metrics
    )
    result = auditor.run()
    assert result.accepted, result.reason
    return result, auditor.stage_seconds["reexec"]


def _measure(scale, work_scale):
    n = max(80, scale.n_requests // 3)
    with work_scale(WORK_SCALE):
        run = run_server(
            wiki_app(),
            skewed_workload(n),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=RandomScheduler(SEED),
            concurrency=8,
        )
        off, t_off = _audit(run)
        # Prime one in-memory cache on a first audit; the warm audit
        # reuses the same Deduplicator.
        dedup = Deduplicator()
        _audit(run, dedup=dedup)
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        warm, t_warm = _audit(run, dedup=dedup, metrics=metrics)
        counters = metrics.snapshot()["counters"]
    return n, off, t_off, warm, t_warm, counters


def test_warm_cache_reexec_speedup(scale, work_scale):
    n, off, t_off, warm, t_warm, counters = _measure(scale, work_scale)
    hits = counters["reexec.dedup_groups"]
    misses = counters["reexec.cache_misses"]

    # The speedup never costs a verdict: byte-identical outcome.
    assert (warm.accepted, warm.reason, warm.detail) == (
        off.accepted, off.reason, off.detail,
    )
    assert _strip(warm.stats) == _strip(off.stats)

    # The skew materialises: most groups hit the primed cache.
    assert hits > 0
    assert hits >= misses

    speedup = t_off / t_warm if t_warm > 0 else float("inf")
    rows = [
        {"arm": "cache-off", "reexec_seconds": t_off, "speedup": 1.0,
         "hits": 0, "misses": hits + misses},
        {"arm": "warm-cache", "reexec_seconds": t_warm, "speedup": speedup,
         "hits": hits, "misses": misses},
    ]
    print_series(
        f"Deduplicated reexec, skewed wiki workload (n={n}, "
        f"work x{WORK_SCALE:g})",
        rows, COLUMNS,
    )

    # The acceptance bar: >= 2x on the reexec stage with a warm cache.
    assert speedup >= 2.0, (t_off, t_warm)
