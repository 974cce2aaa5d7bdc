"""Unit tests for postprocessing (Figure 21 internal-state edges)."""


from repro.core.ids import HandlerId
from repro.server.variables import INIT_REF
from repro.verifier.execgraph import ExecutionGraph
from repro.verifier.nodes import node_op
from repro.verifier.postprocess import add_internal_state_edges
from repro.verifier.state import VarState

ROOT = HandlerId("h", None, 0)


class _FakeState:
    def __init__(self):
        self.graph = ExecutionGraph()


class _FakeReExec:
    def __init__(self, *vars_):
        self.vars = {v.var_id: v for v in vars_}


def test_wr_ww_rw_edges_from_history():
    v = VarState("x", 0, {})
    # w1 (r1) overwritten by w2 (r2); read (r3) observes w1.
    v.on_write("r1", ROOT, 1, "a")
    v.read_observers[("r1", ROOT, 1)] = {("r3", ROOT, 1)}
    v.write_observer[("r1", ROOT, 1)] = ("r2", ROOT, 1)
    state = _FakeState()
    add_internal_state_edges(state, _FakeReExec(v))
    g = state.graph
    assert g.has_edge(node_op("r1", ROOT, 1), node_op("r3", ROOT, 1)), "WR"
    assert g.has_edge(node_op("r3", ROOT, 1), node_op("r2", ROOT, 1)), "RW"
    assert g.has_edge(node_op("r1", ROOT, 1), node_op("r2", ROOT, 1)), "WW"


def test_init_write_contributes_only_rw_edges():
    v = VarState("x", 0, {})
    # Readers of the initial value must precede the first overwrite, but
    # the init write itself is not a graph node.
    v.read_observers[INIT_REF] = {("r1", ROOT, 1)}
    v.write_observer[INIT_REF] = ("r2", ROOT, 1)
    state = _FakeState()
    add_internal_state_edges(state, _FakeReExec(v))
    g = state.graph
    assert g.has_edge(node_op("r1", ROOT, 1), node_op("r2", ROOT, 1)), "RW from init reader"
    assert g.node_count == 2, "no node for the init pseudo-write"


def test_disconnected_write_cycle_becomes_graph_cycle():
    """The Figure-5 class of attack: a circular write chain that the
    paper's initializer walk would never visit must still create a cycle
    (DESIGN.md, soundness strengthening #1)."""
    v = VarState("x", 0, {})
    a, b = ("r1", ROOT, 2), ("r2", ROOT, 2)
    v.write_observer[a] = b
    v.write_observer[b] = a
    state = _FakeState()
    add_internal_state_edges(state, _FakeReExec(v))
    assert not state.graph.is_acyclic()


def test_plain_variables_contribute_nothing():
    from repro.verifier.state import PlainVarState

    state = _FakeState()
    add_internal_state_edges(state, _FakeReExec(PlainVarState("p", 0)))
    assert state.graph.node_count == 0
