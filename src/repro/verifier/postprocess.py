"""Audit postprocessing (paper section 4.3, Figure 21 AddInternalStateEdges).

After re-execution, each loggable variable's reconstructed history -- the
chain of writes starting at its initializer, with per-write read observers
-- is embedded into the execution graph G:

* WR edges: write -> each read that observed it;
* RW (anti-dependency) edges: each of a write's readers -> the write that
  overwrote it;
* WW edges: write -> overwriting write.

The initialisation pseudo-write is not a graph node (it precedes
everything by construction), so WR/WW edges from it are skipped but RW
edges from its readers to the first real write are kept -- a read of the
initial value must precede the first overwrite.

Finally the whole graph must be acyclic; a cycle means the alleged
execution is physically impossible (Figure 5's attack lands here).
"""

from __future__ import annotations

from repro.errors import AuditRejected
from repro.server.variables import INIT_RID
from repro.verifier.preprocess import AuditState
from repro.verifier.reexec import ReExecutor
from repro.verifier.state import VarState


def _is_init(key) -> bool:
    return key[0] == INIT_RID


def add_internal_state_edges(state: AuditState, re_exec: ReExecutor) -> None:
    """Embed each variable's reconstructed history into G.

    The paper's pseudocode walks the chain from ``initializer`` via
    ``write_observer``; we instead emit edges for *every* observer entry.
    For honest advice the two are identical (each write's predecessor
    relation forms one chain from the init write), but a dishonest server
    can supply a circular write chain that is disconnected from the
    initializer -- the walk would never see it, the full sweep turns it
    into a graph cycle and the audit rejects.
    """
    g = state.graph
    op, add_edge = g.op, g.add_edge
    for var in re_exec.vars.values():
        if not isinstance(var, VarState):
            continue
        keys = set(var.read_observers) | set(var.write_observer)
        for key in keys:
            successor = var.write_observer.get(key)
            write = None if _is_init(key) else op(*key)
            if write is None and successor is None:
                continue
            readers = [op(*r) for r in var.read_observers.get(key, ())]
            if write is not None:
                for reader in readers:
                    add_edge(write, reader)
            if successor is not None:
                successor = op(*successor)
                for reader in readers:
                    add_edge(reader, successor)
                if write is not None:
                    add_edge(write, successor)


def postprocess(state: AuditState, re_exec: ReExecutor) -> None:
    add_internal_state_edges(state, re_exec)
    cycle = state.graph.find_cycle()
    if cycle is not None:
        raise AuditRejected(
            "cyclic-execution",
            f"execution graph has a cycle of {len(cycle)} nodes: "
            f"{cycle[:4]}...",
            site={"cycle": cycle},
        )
