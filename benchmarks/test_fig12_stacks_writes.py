"""Figure 12: Karousos performance for the stack-dump app with the
write-heavy (90% writes) workload -- appendix panels.

Paper: this is the mildest stacks case for server overhead (1.2-2x):
write transactions bottleneck both servers, so advice collection is a
smaller share of processing time than in read-heavy mixes.
"""

from benchmarks.panels import assert_common_shape, print_panels, run_panels


def test_fig12_stacks_write_heavy(clock, scale):
    panels = run_panels(clock, scale, "stacks", "write-heavy")
    print_panels("Figure 12", "stacks, 90% writes", panels)
    assert_common_shape(panels)
    _a, b_rows, _c = panels
    assert any(r["karousos_groups"] < r["orochi_groups"] for r in b_rows)
