"""Figure 11: Karousos performance for the stack-dump app with the mixed
(50/50) workload -- appendix panels.

Paper: server overhead 1.4-3.6x; Karousos outperforms Orochi-JS in all
stacks workloads (tree-based grouping batches reordered sibling handlers
that sequence-based grouping splits).
"""

from benchmarks.panels import assert_common_shape, print_panels, run_panels


def test_fig11_stacks_mixed(clock, scale):
    panels = run_panels(clock, scale, "stacks", "mixed")
    print_panels("Figure 11", "stacks, mixed", panels)
    assert_common_shape(panels)
    _a, b_rows, _c = panels
    # Strictly better grouping than Orochi-JS somewhere in the sweep.
    assert any(r["karousos_groups"] < r["orochi_groups"] for r in b_rows)
