"""Figure 8: size of the advice the server ships to the verifier.

Paper claims re-measured here:

* MOTD: advice size does not vary with concurrency and is identical under
  Karousos and Orochi-JS -- all hashmap accesses are R-concurrent, so both
  log everything; ~95% of the advice is the hashmap's variable log.
* Wiki.js: advice grows with concurrency (more accesses logged, and the
  logged connection-pool object itself grows); Karousos's advice is
  smaller than Orochi-JS's because R-ordered accesses (notably the
  read-mostly site config) go unlogged; the variable-log share of total
  advice grows with concurrency (paper: 65% -> 95%).
"""

from __future__ import annotations

from benchmarks.panels import PANEL_C, advice_row, configs
from repro.harness import print_series

COLUMNS = PANEL_C + ["var_log_share"]


def _sweep(scale, app, mix):
    return [advice_row(cfg) for cfg in configs(scale, app, mix)]


def test_fig8_motd(scale):
    rows = _sweep(scale, "motd", "write-heavy")
    print_series("Figure 8 (MOTD): advice size", rows, COLUMNS)
    # Identical logging under both systems (all accesses R-concurrent).
    assert all(0.98 <= r["k_over_o"] <= 1.02 for r in rows)
    # Flat in concurrency (within 5%).
    sizes = [r["karousos_KiB"] for r in rows]
    assert max(sizes) <= 1.05 * min(sizes)
    # The variable log dominates the advice.
    assert all(r["var_log_share"] > 0.5 for r in rows)


def test_fig8_wiki(scale):
    rows = _sweep(scale, "wiki", "mixed")
    print_series("Figure 8 (Wiki.js): advice size", rows, COLUMNS)
    # Karousos logs strictly less than Orochi-JS.
    assert all(r["k_over_o"] < 1.0 for r in rows)
    # Advice grows with concurrency.
    assert rows[-1]["karousos_KiB"] > rows[0]["karousos_KiB"]
    # The variable-log share grows with concurrency.
    assert rows[-1]["var_log_share"] > rows[0]["var_log_share"]
