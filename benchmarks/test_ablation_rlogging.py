"""Ablation: R-concurrency-gated variable logging vs log-everything.

Karousos's server logs a variable access only when it is R-concurrent
with its dictating/preceding write (section 4.2, Figure 13); the
log-everything alternative (Orochi's approach) logs every access.  The
gap is the entire point of the R-ordered definition: accesses fed by an
ancestor handler's write (or by the init write, for read-mostly
variables) cost nothing.
"""

from __future__ import annotations

from repro.harness import print_series
from repro.harness.experiment import ExperimentConfig, serve
from repro.server import KarousosPolicy, OrochiPolicy

COLUMNS = [
    "concurrency",
    "karousos_entries",
    "log_all_entries",
    "saved_fraction",
]


def _entries(cfg, policy):
    _, advice = serve(cfg, policy)
    return advice.variable_log_entry_count()


def test_rlogging_saves_entries_on_wiki(scale):
    rows = []
    for conc in scale.concurrency_sweep:
        cfg = ExperimentConfig("wiki", n_requests=scale.n_requests, concurrency=conc)
        karousos = _entries(cfg, KarousosPolicy())
        log_all = _entries(cfg, OrochiPolicy())
        rows.append(
            {
                "concurrency": conc,
                "karousos_entries": karousos,
                "log_all_entries": log_all,
                "saved_fraction": 1 - karousos / log_all,
            }
        )
    print_series("Ablation: R-gated logging vs log-everything (wiki)", rows, COLUMNS)
    assert all(r["karousos_entries"] < r["log_all_entries"] for r in rows)
    # The read-mostly config variable alone guarantees real savings.
    assert all(r["saved_fraction"] > 0.10 for r in rows)


def test_rlogging_no_savings_when_everything_is_concurrent(scale):
    """Control (section 6.2): in MOTD every access is R-concurrent (all
    handlers are request activations, siblings under I), so Karousos logs
    essentially what log-everything logs -- only the handful of accesses
    that observed the init write are saved."""
    cfg = ExperimentConfig(
        "motd",
        mix="mixed",
        n_requests=scale.n_requests,
        concurrency=scale.concurrency_sweep[-1],
    )
    karousos, log_all = _entries(cfg, KarousosPolicy()), _entries(cfg, OrochiPolicy())
    print(f"\nMOTD variable-log entries: karousos={karousos} log-all={log_all}")
    assert karousos >= 0.95 * log_all
