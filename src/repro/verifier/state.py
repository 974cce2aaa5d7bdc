"""Verifier-side variable state (paper section 4.2-4.3, Figures 20-21).

For each loggable variable the verifier keeps:

* ``var_dict`` -- the *variable's dictionary*: every value written during
  re-execution, indexed by (rid, hid) and opnum, so unlogged reads can be
  fed by climbing the handler tree (FindNearestRPrecedingWrite);
* ``read_observers`` -- per write, the reads that observed it (from the
  variable log for logged reads, from re-execution for unlogged ones);
* ``write_observer`` -- per write, the single write that overwrote it;
* ``initializer`` -- the first write in the reconstructed history chain.

The variable's *initial value* is modelled as a write by the
initialisation pseudo-handler I at :data:`~repro.server.variables.INIT_REF`
(the verifier runs init itself, so this value is trusted).  If the server's
variable log contains a backfilled entry for the init write, its value is
checked against the verifier's own -- rejecting forged initial values.

Beyond the paper's pseudocode, every log entry consumed during
re-execution is tracked; :meth:`VarState.unconsumed_entries` lets the audit
reject logs containing entries that no re-executed operation produced
(closing the forged-dangling-write-entry channel; see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.advice.records import OpKey, VariableLogEntry
from repro.core.ids import HandlerId
from repro.core.multivalue import same_value
from repro.errors import AuditRejected
from repro.server.variables import INIT_HID, INIT_REF, INIT_RID


class VarState:
    """Re-execution state of one loggable variable."""

    __slots__ = (
        "var_id",
        "log",
        "var_dict",
        "read_observers",
        "write_observer",
        "initializer",
        "consumed",
        "journal",
    )

    def __init__(
        self,
        var_id: str,
        initial_value: object,
        log: Dict[OpKey, VariableLogEntry],
    ):
        self.var_id = var_id
        self.log = log
        # (rid, hid) -> ordered list of (opnum, value) writes re-executed.
        self.var_dict: Dict[Tuple[str, HandlerId], List[Tuple[int, object]]] = {}
        self.read_observers: Dict[OpKey, Set[OpKey]] = {}
        self.write_observer: Dict[OpKey, OpKey] = {}
        self.initializer: Optional[OpKey] = INIT_REF
        self.consumed: Set[OpKey] = set()
        # Optional event journal for the parallel audit pipeline: the only
        # write-history bookkeeping whose outcome depends on *cross-group*
        # ordering is recorded here (overwrite claims and their fallbacks),
        # so a worker that re-executed a group in isolation can hand the
        # events to the parent for replay in canonical group order (see
        # repro.verifier.parallel).
        self.journal: Optional[List[Tuple]] = None
        # Seed the dictionary with the trusted initial value (a write by I).
        self.var_dict[(INIT_RID, INIT_HID)] = [(0, initial_value)]
        # Simulate-and-check for the init write: a backfilled log entry for
        # it must carry the true initial value.
        entry = log.get(INIT_REF)
        if entry is not None:
            if entry.access != "write" or not same_value(entry.value, initial_value):
                raise AuditRejected(
                    "forged-initial-value",
                    f"variable {var_id!r} init entry does not match program",
                    site={
                        "var": var_id,
                        "expected": initial_value,
                        "claimed": entry.value,
                    },
                )
            self.consumed.add(INIT_REF)

    # -- dictionary interrogation ------------------------------------------

    def find_nearest_r_preceding_write(
        self, rid: str, hid: HandlerId, opnum: int
    ) -> Optional[Tuple[OpKey, object]]:
        """The latest write that R-precedes (rid, hid, opnum), per the
        variable dictionary: this handler's last earlier write, else the
        nearest ancestor's last write, else the init write (section 4.2)."""
        own = self.var_dict.get((rid, hid))
        if own:
            best = None
            for w_opnum, value in own:
                if w_opnum < opnum:
                    best = (w_opnum, value)
            if best is not None:
                return ((rid, hid, best[0]), best[1])
        node = hid.parent
        while node is not None:
            writes = self.var_dict.get((rid, node))
            if writes:
                w_opnum, value = writes[-1]
                return ((rid, node, w_opnum), value)
            node = node.parent
        init_writes = self.var_dict.get((INIT_RID, INIT_HID))
        if init_writes:
            w_opnum, value = init_writes[-1]
            return ((INIT_RID, INIT_HID, w_opnum), value)
        return None

    # -- Figure 20: OnRead ----------------------------------------------------

    def on_read(self, rid: str, hid: HandlerId, opnum: int) -> object:
        key: OpKey = (rid, hid, opnum)
        entry = self.log.get(key)
        if entry is not None:
            # Logged read: the server must have logged the dictating write
            # too; feed its value.
            if entry.access != "read" or entry.prec is None:
                raise AuditRejected(
                    "variable-log-invalid",
                    f"{self.var_id!r}: read entry at {key} malformed",
                    site={"var": self.var_id, "rid": rid, "handler": hid,
                          "opnum": opnum},
                )
            dictating = self.log.get(entry.prec)
            if dictating is None:
                if entry.prec == INIT_REF:
                    # The dictating write is the initializer itself but was
                    # not logged: this is a cross-epoch read in a continuous
                    # audit, where advice slicing rewrote the prec of an
                    # earlier epoch's final write to INIT_REF.  Feed the
                    # trusted initial value (the carried-in checkpoint state)
                    # -- simulate-and-check downstream still validates every
                    # value derived from it.
                    self.consumed.add(key)
                    self.read_observers.setdefault(INIT_REF, set()).add(key)
                    return self.var_dict[(INIT_RID, INIT_HID)][0][1]
                raise AuditRejected(
                    "variable-log-invalid",
                    f"{self.var_id!r}: dictating write missing for read {key}",
                    site={"var": self.var_id, "rid": rid, "handler": hid,
                          "opnum": opnum, "prec": entry.prec},
                )
            if dictating.access != "write":
                raise AuditRejected(
                    "variable-log-invalid",
                    f"{self.var_id!r}: dictating write missing for read {key}",
                    site={"var": self.var_id, "rid": rid, "handler": hid,
                          "opnum": opnum, "prec": entry.prec},
                )
            self.consumed.add(key)
            self.read_observers.setdefault(entry.prec, set()).add(key)
            return dictating.value
        found = self.find_nearest_r_preceding_write(rid, hid, opnum)
        if found is None:
            raise AuditRejected(
                "unfed-read",
                f"{self.var_id!r}: no R-preceding write for unlogged read {key}",
                site={"var": self.var_id, "rid": rid, "handler": hid,
                      "opnum": opnum},
            )
        write_key, value = found
        self.read_observers.setdefault(write_key, set()).add(key)
        return value

    # -- Figure 21: OnWrite ------------------------------------------------------

    def on_write(self, rid: str, hid: HandlerId, opnum: int, value: object) -> None:
        key: OpKey = (rid, hid, opnum)
        self.var_dict.setdefault((rid, hid), []).append((opnum, value))
        entry = self.log.get(key)
        if entry is not None:
            # Simulate-and-check: the logged value must match re-execution.
            if entry.access != "write":
                raise AuditRejected(
                    "variable-log-invalid",
                    f"{self.var_id!r}: write at {key} logged as read",
                    site={"var": self.var_id, "rid": rid, "handler": hid,
                          "opnum": opnum},
                )
            if not same_value(entry.value, value):
                raise AuditRejected(
                    "write-mismatch",
                    f"{self.var_id!r}: logged value differs from re-execution at {key}",
                    site={
                        "var": self.var_id,
                        "rid": rid,
                        "handler": hid,
                        "opnum": opnum,
                        "expected": value,
                        "claimed": entry.value,
                    },
                )
            self.consumed.add(key)
            if entry.prec is not None:
                if entry.prec in self.write_observer:
                    raise AuditRejected(
                        "double-overwrite",
                        f"{self.var_id!r}: two writes overwrite {entry.prec}",
                        site={"var": self.var_id, "rid": rid, "handler": hid,
                              "opnum": opnum, "prec": entry.prec},
                    )
                self.write_observer[entry.prec] = key
                if self.journal is not None:
                    self.journal.append(("claim", self.var_id, entry.prec, key))
                return
            # Backfilled entry (prec unknown to the server at logging time):
            # recover the predecessor from re-execution, as for unlogged
            # writes, so the history chain stays connected.
        found = self.find_nearest_r_preceding_write(rid, hid, opnum)
        if found is not None:
            self.write_observer.setdefault(found[0], key)
            if self.journal is not None:
                self.journal.append(("fallback", self.var_id, found[0], key))
        else:
            self.initializer = key
            if self.journal is not None:
                self.journal.append(("initializer", self.var_id, key))

    # -- final accounting ------------------------------------------------------------

    def unconsumed_entries(self) -> List[OpKey]:
        """Log entries that no re-executed operation produced.

        Entries that are only *referenced* (as a read's dictating write)
        count as consumed when their own coordinates re-execute; a write
        entry whose coordinates never re-executed as a write of this
        variable is a fabrication and must reject the audit.
        """
        return [k for k in self.log if k not in self.consumed]


class PlainVarState:
    """A non-loggable variable: per-request plain cells (section 5).

    The developer asserted all accesses are R-ordered, so the verifier
    tracks no versions and performs no checks -- mis-annotation costs
    Completeness, never Soundness.
    """

    __slots__ = ("var_id", "initial", "values")

    def __init__(self, var_id: str, initial: object):
        self.var_id = var_id
        self.initial = initial
        self.values: Dict[str, object] = {}

    def read(self, rid: str) -> object:
        return self.values.get(rid, self.initial)

    def write(self, rid: str, value: object) -> None:
        self.values[rid] = value
