"""The dense-int execution graph against a tuple-keyed reference.

:class:`~repro.verifier.execgraph.ExecutionGraph` stores program order
implicitly and finds cycles with one Kahn pass; the audit's verdict
goldens pin its node and edge counts.  Every graph here is built twice --
through it and through :class:`~repro.core.graph.Digraph` over the node
tuples of :mod:`repro.verifier.nodes`, the way the audit built G before
-- and the two must agree on nodes, edges, reachability and acyclicity.
"""

from hypothesis import given, settings, strategies as st

from repro.core.graph import Digraph
from repro.core.ids import HandlerId
from repro.verifier.execgraph import ExecutionGraph
from repro.verifier.nodes import node_end, node_op, node_req, node_resp


def id_of(g, node):
    kind = node[0]
    if kind == "req":
        return g.req(node[1])
    if kind == "resp":
        return g.resp(node[1])
    if kind == "end":
        base, count = g.block(node[1], node[2])
        return base + count + 1
    return g.op(*node[1:])


def build(layout, extra=(), po_copies=()):
    """``layout[r]`` lists the opcounts of request ``r``'s handlers;
    ``extra`` indexes edges into the node universe (which includes one op
    past every block, a node of its own), ``po_copies`` re-adds
    program-order edges explicitly."""
    ours, ref = ExecutionGraph(), Digraph()
    universe, program = [], []
    for r, counts in enumerate(layout):
        rid = f"r{r}"
        ours.add_request(rid)
        program.append((node_req(rid), node_resp(rid)))
        universe += [node_req(rid), node_resp(rid)]
        for h, count in enumerate(counts):
            hid = HandlerId.intern(f"h{h}")
            ours.add_block(rid, hid, count)
            chain = [node_op(rid, hid, k) for k in range(count + 1)]
            chain.append(node_end(rid, hid))
            program += zip(chain, chain[1:])
            universe += chain + [node_op(rid, hid, count + 1)]
    for src, dst in program:
        ref.add_edge(src, dst)
    edges = [(universe[a % len(universe)], universe[b % len(universe)])
             for a, b in extra]
    edges += [program[i % len(program)] for i in po_copies]
    for src, dst in edges:
        ours.add_edge(id_of(ours, src), id_of(ours, dst))
        ref.add_edge(src, dst)
    return ours, ref, universe


def assert_real_cycle(ref, cycle):
    assert cycle
    for i, node in enumerate(cycle):
        assert ref.has_edge(node, cycle[(i + 1) % len(cycle)]), (node, cycle)


layouts = st.lists(
    st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=3
)
index_pairs = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=12
)


@settings(max_examples=200, deadline=None)
@given(layouts, index_pairs, st.lists(st.integers(0, 10**6), max_size=4))
def test_matches_tuple_keyed_digraph(layout, extra, po_copies):
    ours, ref, universe = build(layout, extra, po_copies)
    assert ours.node_count == ref.node_count
    assert ours.edge_count == ref.edge_count
    for a in universe:
        assert (a in ours) == (a in ref), a
        for b in universe:
            assert ours.has_edge(a, b) == ref.has_edge(a, b), (a, b)
    for a in universe[:6]:
        if a in ref:
            assert ours.reachable_from(a) == ref.reachable_from(a), a
    assert ours.is_acyclic() == ref.is_acyclic()
    cycle = ours.find_cycle()
    if ref.is_acyclic():
        assert cycle is None
    else:
        assert_real_cycle(ref, cycle)


def test_program_order_is_implicit_and_coalesces():
    ours, ref, _ = build([[2]])
    assert (ours.node_count, ours.edge_count) == (ref.node_count, ref.edge_count) == (6, 4)
    hid = HandlerId.intern("h0")
    ours.add_edge(ours.op("r0", hid, 0), ours.op("r0", hid, 1))
    ours.add_edge(ours.req("r0"), ours.resp("r0"))
    assert ours.edge_count == 4
    assert ours.is_acyclic()


def test_out_of_block_op_is_a_node_of_its_own():
    ours, ref, _ = build([[1]], extra=[(0, 5)])  # req r0 -> op 2 of a 1-op block
    hid = HandlerId.intern("h0")
    assert node_op("r0", hid, 2) in ours
    assert ours.node_count == ref.node_count == 6
    assert ours.op("r0", hid, True) == ours.op("r0", hid, 1)


def test_back_edge_witness_names_nodes():
    ours, _, _ = build([[3]])
    hid = HandlerId.intern("h0")
    ours.add_edge(ours.op("r0", hid, 3), ours.op("r0", hid, 1))
    assert sorted(ours.find_cycle(), key=repr) == sorted(
        [node_op("r0", hid, k) for k in (1, 2, 3)], key=repr
    )


def test_deep_chain_no_recursion_error():
    n = 200_000
    g = ExecutionGraph()
    hid = HandlerId.intern("h")
    base = g.add_block("r", hid, n)
    assert g.is_acyclic()
    g.add_edge(base + n, base + n - 1)
    assert len(g.find_cycle()) == 2
