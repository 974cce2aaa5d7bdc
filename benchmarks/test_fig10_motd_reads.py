"""Figure 10: Karousos performance for MOTD with the read-heavy (90%
reads) workload -- appendix panels.

Paper: server overhead 2.5-2.7x (the mildest MOTD case); the verifier is
~30% *faster* than sequential re-execution; advice identical to Orochi-JS.
"""

from benchmarks.panels import assert_common_shape, print_panels, run_panels


def test_fig10_motd_read_heavy(clock, scale):
    panels = run_panels(clock, scale, "motd", "read-heavy")
    print_panels("Figure 10", "MOTD, 90% reads", panels)
    assert_common_shape(panels)
    _a, b_rows, _c = panels
    # Batching pays off on the read-heavy mix: Karousos at least matches
    # sequential re-execution (paper: 30% faster).
    assert min(r["karousos_s"] / r["sequential_s"] for r in b_rows) < 1.1
