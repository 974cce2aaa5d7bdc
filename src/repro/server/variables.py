"""Server-side loggable variables (paper section 4.2, Figure 13).

A :class:`LoggableCell` holds a variable's current value plus the
coordinates of its most recent write -- both the runtime label (for the
fast R-concurrency test, section 5) and the structural handler id (what
goes into the advice).  On each access the cell decides *dynamically*
whether to log:

* a READ is logged iff it is R-concurrent with its dictating write;
* a WRITE is logged iff it is R-concurrent with the preceding write;
* in both cases, the dictating/preceding write is backfilled into the log
  first if it was not logged already (Figure 13 lines 14-15 / 21-22).

The variable's initial value is treated as a write by the initialisation
pseudo-handler I, which R-precedes everything -- so reads of untouched
variables never need logging, and when the first R-concurrent write
overwrites the initial value, the init write is backfilled under
:data:`INIT_REF` coordinates.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.advice.records import OpKey, VariableLogEntry
from repro.core.ids import HandlerId, Label
from repro.core.rorder import labels_r_concurrent

INIT_RID = "__init__"
INIT_HID = HandlerId.intern("__init__")
INIT_REF: OpKey = (INIT_RID, INIT_HID, 0)


class LoggableCell:
    """One annotated variable: value, last-writer metadata, and its log."""

    __slots__ = (
        "var_id",
        "value",
        "last_rid",
        "last_label",
        "last_hid",
        "last_opnum",
        "log",
    )

    def __init__(self, var_id: str, initial: object):
        self.var_id = var_id
        self.value = initial
        # The initial value is a write by I: rid/label None marks the
        # initialisation pseudo-handler for the label-based R test.
        self.last_rid = INIT_RID
        self.last_label: Optional[Label] = None
        self.last_hid = INIT_HID
        self.last_opnum = 0
        self.log: Dict[OpKey, VariableLogEntry] = {}

    # -- internals -----------------------------------------------------------

    def _last_key(self) -> OpKey:
        return (self.last_rid, self.last_hid, self.last_opnum)

    def _concurrent_with_last_write(self, rid: str, label: Label, opnum: int) -> bool:
        return labels_r_concurrent(
            rid, label, opnum, self.last_rid, self.last_label, self.last_opnum
        )

    def _backfill_last_write(self) -> None:
        key = self._last_key()
        if key not in self.log:
            self.log[key] = VariableLogEntry("write", value=self.value, prec=None)

    # -- Figure 13 ---------------------------------------------------------------

    def on_read(self, rid: str, label: Label, hid: HandlerId, opnum: int) -> object:
        if self._concurrent_with_last_write(rid, label, opnum):
            self._backfill_last_write()
            self.log[(rid, hid, opnum)] = VariableLogEntry(
                "read", prec=self._last_key()
            )
        return self.value

    def on_write(
        self, rid: str, label: Label, hid: HandlerId, opnum: int, value: object
    ) -> None:
        if self._concurrent_with_last_write(rid, label, opnum):
            self._backfill_last_write()
            self.log[(rid, hid, opnum)] = VariableLogEntry(
                "write", value=value, prec=self._last_key()
            )
        self.value = value
        self.last_rid = rid
        self.last_label = label
        self.last_hid = hid
        self.last_opnum = opnum

    # -- Orochi-JS variant (log every access) --------------------------------------

    def on_read_log_all(self, rid: str, label: Label, hid: HandlerId, opnum: int) -> object:
        self._backfill_last_write()
        self.log[(rid, hid, opnum)] = VariableLogEntry("read", prec=self._last_key())
        return self.value

    def on_write_log_all(
        self, rid: str, label: Label, hid: HandlerId, opnum: int, value: object
    ) -> None:
        self._backfill_last_write()
        self.log[(rid, hid, opnum)] = VariableLogEntry(
            "write", value=value, prec=self._last_key()
        )
        self.value = value
        self.last_rid = rid
        self.last_label = label
        self.last_hid = hid
        self.last_opnum = opnum
