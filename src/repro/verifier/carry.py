"""Carry-in state for epoch audits (continuous auditing, DESIGN.md §6).

A monolithic audit starts from genesis: the verifier runs the app's init
itself, so every variable's initial value and the empty KV store are
trusted.  Continuous auditing cuts the serving history into epochs and
audits each one separately; epoch N > 0 no longer starts from genesis but
from the *verified* end-of-epoch-(N-1) state.

:class:`CarryIn` packages that state:

* ``vars`` -- loggable/plain variable id -> value at the previous epoch's
  quiescent cut, as reconstructed by the verifier's own re-execution
  (never taken from the server);
* ``kv`` -- committed KV store contents at the cut, replayed by the
  verifier from the previous epoch's validated write order.

Trust argument: both maps are outputs of an *accepted* audit of epoch
N-1, chained by digest (:mod:`repro.continuous.checkpoint`), so feeding
them as epoch N's initializer state is exactly as trusted as the
verifier's own genesis init.  Within the verifier they are treated like
init-written values: simulate-and-check still applies to every logged
access, so a server that lies about a cross-epoch value is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class CarryIn:
    """Verified initializer state handed from one epoch audit to the next."""

    vars: Dict[str, object] = field(default_factory=dict)
    kv: Dict[str, object] = field(default_factory=dict)
