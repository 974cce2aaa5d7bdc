"""Tenants: configuration, epoch ingestion, and the per-tenant audit
stream (DESIGN.md §13).

A *tenant* is one app plus one epoch source -- a storage directory some
sealer writes ``epoch-<k>`` record streams into.  The service gives
each tenant:

* an :class:`EpochSource` that tails the store for newly sealed epochs
  in index order (a torn / still-being-written stream is simply not
  ready yet: the read is retried on the next poll, never trusted --
  and after ``torn_limit`` consecutive failures on the same epoch the
  stream is classified corrupt, so batch mode can reject the tenant
  instead of waiting forever);
* a :class:`TenantStream` -- a :class:`~repro.continuous.ContinuousAuditor`
  wired to the tenant's state directory.  The service drives it through
  the auditor's own stream hooks (``queue_room``, ``offer``,
  ``start_job``, ``finish_job``) and executes each prepared plan in the
  *shared* pool instead of on a loop of its own.  Queue, journal,
  checkpoint chaining, crash resume and the rejection cascade are the
  solo driver's code, so per-tenant verdicts are byte-identical to a
  solo run of the same epoch stream, whatever the other tenants do.

Backpressure: the service never calls the solo ``submit``, which would
audit synchronously and block its scheduling loop on one tenant; it
pulls from a tenant's source only as far as ``queue_room`` allows.  The
source's watermark only moves past an epoch once it is enqueued, and
the resume watermark (``_next_index``) only advances on ACCEPT.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List

from repro.apps import APP_NAMES
from repro.continuous.auditor import ContinuousAuditor
from repro.continuous.checkpoint import CheckpointError, CheckpointStore
from repro.continuous.codec import (
    epoch_stream_name,
    list_epoch_streams,
    read_epoch_stream,
)
from repro.continuous.epoch import Epoch
from repro.continuous.journal import AuditJournal
from repro.errors import AdviceFormatError, KarousosError
from repro.storage.backend import StorageBackend, backend_for
from repro.storage.records import RecordFormatError
from repro.verifier.dag.journal import NodeJournal

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass
class TenantConfig:
    """One ``--tenant`` specification."""

    app: str
    store: str
    name: str = ""
    quota: int = 0  # reexec-node tokens per fair round; 0 = unlimited
    max_pending: int = 4
    scheme: str = "file"
    state: str = ""  # state dir override (default: <state-root>/<name>)

    def __post_init__(self) -> None:
        if self.app not in APP_NAMES:
            raise ValueError(
                f"unknown tenant app {self.app!r} "
                f"(known: {', '.join(APP_NAMES)})"
            )
        if not self.name:
            self.name = self.app
        if not _NAME_RE.match(self.name):
            raise ValueError(f"bad tenant name {self.name!r}")


def parse_tenant_spec(spec: str) -> TenantConfig:
    """Parse ``app=wiki,store=DIR[,quota=N][,name=X][,max_pending=N]
    [,scheme=file|gzip][,state=DIR]``."""
    fields = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad tenant field {part!r} (want key=value)")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"app", "store", "quota", "name", "max_pending",
                             "scheme", "state"}
    if unknown:
        raise ValueError(f"unknown tenant fields: {sorted(unknown)}")
    for required in ("app", "store"):
        if not fields.get(required):
            raise ValueError(f"tenant spec needs {required}=")
    return TenantConfig(
        app=fields["app"],
        store=fields["store"],
        name=fields.get("name", ""),
        quota=int(fields.get("quota", 0)),
        max_pending=int(fields.get("max_pending", 4)),
        scheme=fields.get("scheme", "file"),
        state=fields.get("state", ""),
    )


class EpochSource:
    """Tails a storage backend for sealed epochs, strictly in index
    order.  ``epoch-<k>`` is only consumed once it decodes completely;
    a torn or in-progress stream leaves the watermark in place so the
    next poll retries it.

    A sealer mid-write and a permanently corrupt (or tampered) stream
    look identical on any single read, so the source counts
    *consecutive* failed decodes of the same index (``torn_streak``).
    Once the streak reaches ``torn_limit`` the source classifies the
    stream as :attr:`corrupt` -- the daemon keeps retrying (a late
    sealer clears the classification), but ``--once`` mode uses it to
    stop waiting and fail the tenant instead of silently skipping the
    epoch.  ``torn_limit=0`` disables the classification (retry
    forever)."""

    def __init__(
        self,
        backend: StorageBackend,
        start_index: int = 0,
        torn_limit: int = 0,
    ):
        self.backend = backend
        self.next_index = max(0, int(start_index))
        self.torn_limit = max(0, int(torn_limit))
        self.torn_reads = 0
        self.torn_streak = 0
        self.ingested = 0
        self.last_error = ""
        self._torn_index = -1

    def _available(self) -> set:
        return set(list_epoch_streams(self.backend))

    def has_pending(self) -> bool:
        try:
            return epoch_stream_name(self.next_index) in self._available()
        except AdviceFormatError:
            return True  # a misnamed stream: poll() classifies it

    @property
    def corrupt(self) -> bool:
        """The pending epoch failed ``torn_limit`` consecutive decodes:
        no sealer is going to finish it."""
        return self.torn_limit > 0 and self.torn_streak >= self.torn_limit

    def _record_torn(self, exc: Exception) -> None:
        self.torn_reads += 1
        if self._torn_index != self.next_index:
            self._torn_index = self.next_index
            self.torn_streak = 0
        self.torn_streak += 1
        self.last_error = f"{type(exc).__name__}: {exc}"

    def poll(self, limit: int) -> List[Epoch]:
        out: List[Epoch] = []
        if limit <= 0:
            return out
        try:
            available = self._available()
        except AdviceFormatError as exc:
            self._record_torn(exc)
            return out
        while len(out) < limit:
            name = epoch_stream_name(self.next_index)
            if name not in available:
                break
            try:
                with self.backend.reader(name) as reader:
                    epoch = read_epoch_stream(reader, name)
            except KarousosError as exc:  # torn, malformed or mid-write
                self._record_torn(exc)
                break
            if self._torn_index == self.next_index:
                # The sealer finished after all: clear the streak.
                self.torn_streak = 0
                self._torn_index = -1
                self.last_error = ""
            out.append(epoch)
            self.next_index += 1
            self.ingested += 1
        return out


class TenantStream(ContinuousAuditor):
    """A tenant's continuous audit: a :class:`ContinuousAuditor` over the
    tenant's state directory, whose stream hooks the shared pool drives.

    State layout under ``state_dir``: ``audit/`` holds the checkpoint
    and audit-journal record streams (the same shape a solo
    ``repro audit --store`` run leaves behind), ``nodejournal/`` holds
    the per-epoch node journal for node-granular resume of the epoch
    that was in flight when the daemon stopped.

    Stored state that does not load (a whole record that is not a
    well-formed checkpoint or journal event) leaves the stream inert:
    :attr:`state_error` says why, nothing of it is trusted or written
    to, and the service reports the tenant ``input_corrupt`` while its
    neighbours audit on.
    """

    def __init__(
        self,
        config: TenantConfig,
        app,
        state_dir: str,
        metrics=None,
        dedup=None,
    ):
        self.config = config
        self.name = config.name
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self._state_backend = backend_for(
            "file", os.path.join(state_dir, "audit"), metrics=metrics
        )
        node_journal = NodeJournal(backend_for(
            "file", os.path.join(state_dir, "nodejournal"), metrics=metrics
        ))
        self.state_error = ""
        try:
            checkpoints = CheckpointStore(backend=self._state_backend)
            journal = AuditJournal(backend=self._state_backend)
        except (CheckpointError, RecordFormatError) as exc:
            self.state_error = f"{type(exc).__name__}: {exc}"
            checkpoints, journal = CheckpointStore(), AuditJournal()
        super().__init__(
            app,
            max_pending=config.max_pending,
            checkpoints=checkpoints,
            journal=journal,
            metrics=metrics,
            dedup=dedup,
            node_journal=node_journal,
        )

    def close(self) -> None:
        self.checkpoints.close()
        self.journal.close()


__all__ = ["EpochSource", "TenantConfig", "TenantStream", "parse_tenant_spec"]
