"""A transactional key-value store with selectable isolation levels.

The concurrency model matches how the paper's applications use MySQL:

* transactions are interactive (operations arrive one at a time, possibly
  from different handler activations of the same request);
* conflicting lock acquisitions fail immediately with
  :class:`~repro.errors.TransactionRetry` rather than blocking, so
  applications surface retry errors to clients instead of deadlocking
  (the stack-dump app's behaviour, section 6);
* every row carries its last writer's token, which is how the Karousos
  server learns the dictating PUT of each GET (section 5).

Isolation levels (section 4.4 model):

* ``SERIALIZABLE`` -- strict two-phase locking with shared read locks and
  exclusive write locks, all held to transaction end.
* ``READ_COMMITTED`` -- exclusive write locks only; reads see the latest
  *committed* version (no read locks, non-repeatable reads possible).
* ``READ_UNCOMMITTED`` -- reads additionally see other transactions'
  uncommitted writes (dirty reads possible).

For soundness testing of the isolation verifier, the store can be
constructed with ``actual_level`` weaker than the level the server will
*claim*: the store then genuinely exhibits the weaker behaviour, producing
histories that Adya's checks must reject at the claimed level.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import TransactionAborted, TransactionRetry
from repro.obs import MetricsRegistry, ensure_metrics
from repro.store.binlog import Binlog


class IsolationLevel(enum.Enum):
    SERIALIZABLE = "serializable"
    # Extension beyond the paper (its stated future work, section 1):
    # snapshot isolation with first-committer-wins.
    SNAPSHOT = "snapshot"
    READ_COMMITTED = "read-committed"
    READ_UNCOMMITTED = "read-uncommitted"


class TxStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _Row:
    """Committed state of one key."""

    value: object
    writer_token: object


@dataclass
class Transaction:
    """Handle for an open transaction.  Owned by the store; callers only
    pass it back into store methods."""

    serial: int
    owner: object = None
    status: TxStatus = TxStatus.ACTIVE
    # Buffered writes: key -> (value, writer_token); last write per key wins.
    writes: Dict[str, Tuple[object, object]] = field(default_factory=dict)
    read_keys: Set[str] = field(default_factory=set)
    # Order in which this tx first wrote each key, for deterministic commit.
    write_order: List[str] = field(default_factory=list)
    # Snapshot isolation bookkeeping: the commit sequence number visible at
    # begin, and this transaction's own commit sequence number.
    start_seq: int = 0
    commit_seq: Optional[int] = None

    @property
    def is_active(self) -> bool:
        return self.status is TxStatus.ACTIVE


class KVStore:
    """In-process transactional KV store with immediate-fail locking."""

    def __init__(
        self,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        actual_level: Optional[IsolationLevel] = None,
        binlog_backend: Optional[object] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.isolation = isolation
        # Observe-only (DESIGN.md §9): duplicates of ``self.stats`` plus
        # lock-conflict and version-chain detail; never read back by any
        # store decision.
        self.metrics = ensure_metrics(metrics)
        # The level the store *really* enforces; defaults to the declared
        # one.  A weaker actual level models a misbehaving/misconfigured
        # database for soundness tests.
        self.actual = actual_level or isolation
        self._rows: Dict[str, _Row] = {}
        # Full committed version history per key: (commit_seq, value, token)
        # in install order.  Used by snapshot reads and exposed for tests.
        self._versions: Dict[str, List[Tuple[int, object, object]]] = {}
        self._commit_seq = 0
        self._read_locks: Dict[str, Set[int]] = {}
        self._write_locks: Dict[str, int] = {}
        self._active: Dict[int, Transaction] = {}  # begun, not yet ended
        self._serials = itertools.count(1)
        # ``binlog_backend`` (a repro.storage StorageBackend) makes the
        # binlog durable: entries stream to storage as they install.
        self.binlog = Binlog(backend=binlog_backend, metrics=self.metrics)
        # Dirty (uncommitted) versions visible under READ_UNCOMMITTED:
        # key -> (value, writer_token, tx serial), most recent write wins.
        self._dirty: Dict[str, Tuple[object, object, int]] = {}
        self.stats = {"gets": 0, "puts": 0, "commits": 0, "aborts": 0, "retries": 0}

    # -- lifecycle ---------------------------------------------------------

    def begin(self, owner: object = None) -> Transaction:
        tx = Transaction(
            serial=next(self._serials), owner=owner, start_seq=self._commit_seq
        )
        self._active[tx.serial] = tx
        return tx

    def _require_active(self, tx: Transaction) -> None:
        if not tx.is_active:
            raise TransactionAborted(f"transaction {tx.serial} is {tx.status.value}")

    # -- locking helpers ----------------------------------------------------

    def _acquire_read(self, tx: Transaction, key: str) -> None:
        holder = self._write_locks.get(key)
        if holder is not None and holder != tx.serial:
            self._fail(tx, key)
        self._read_locks.setdefault(key, set()).add(tx.serial)

    def _acquire_write(self, tx: Transaction, key: str) -> None:
        holder = self._write_locks.get(key)
        if holder is not None and holder != tx.serial:
            self._fail(tx, key)
        readers = self._read_locks.get(key, set()) - {tx.serial}
        if readers and self.actual is IsolationLevel.SERIALIZABLE:
            self._fail(tx, key)
        self._write_locks[key] = tx.serial

    def _fail(self, tx: Transaction, key: str) -> None:
        """Immediate-fail locking: abort the acquiring tx and raise.

        The store never blocks, so the observable contention signal is
        the conflict count, not a wait time."""
        self.stats["retries"] += 1
        self.metrics.counter("store.retries").inc()
        self.metrics.counter("store.lock_conflicts").inc()
        self.abort(tx)
        raise TransactionRetry(key)

    def _release_locks(self, tx: Transaction) -> None:
        for key, readers in list(self._read_locks.items()):
            readers.discard(tx.serial)
            if not readers:
                del self._read_locks[key]
        for key, holder in list(self._write_locks.items()):
            if holder == tx.serial:
                del self._write_locks[key]

    # -- operations ----------------------------------------------------------

    def get(self, tx: Transaction, key: str) -> Tuple[object, object]:
        """Read ``key``; returns ``(value, writer_token)``.

        The writer token identifies the dictating PUT: the caller-supplied
        token of the write this read observed (``None`` for a never-written
        key).  A transaction always observes its own latest write.
        """
        self._require_active(tx)
        self.stats["gets"] += 1
        self.metrics.counter("store.gets").inc()
        if key in tx.writes:
            value, token = tx.writes[key]
            return value, token
        if self.actual is IsolationLevel.SERIALIZABLE:
            self._acquire_read(tx, key)
        tx.read_keys.add(key)
        if self.actual is IsolationLevel.SNAPSHOT:
            # Snapshot read: the last version committed before this tx began.
            for seq, value, token in reversed(self._versions.get(key, ())):
                if seq <= tx.start_seq:
                    return value, token
            return None, None
        if self.actual is IsolationLevel.READ_UNCOMMITTED:
            dirty = self._dirty.get(key)
            if dirty is not None and dirty[2] != tx.serial:
                return dirty[0], dirty[1]
        row = self._rows.get(key)
        if row is None:
            return None, None
        return row.value, row.writer_token

    def put(self, tx: Transaction, key: str, value: object, writer_token: object = None) -> None:
        """Write ``key``; buffered until commit, dirty-visible meanwhile."""
        self._require_active(tx)
        self.stats["puts"] += 1
        self.metrics.counter("store.puts").inc()
        if self.actual is not IsolationLevel.SNAPSHOT:
            # Snapshot isolation detects write conflicts at commit time
            # (first-committer-wins); the locking levels fail fast here.
            self._acquire_write(tx, key)
        if key not in tx.writes:
            tx.write_order.append(key)
        tx.writes[key] = (value, writer_token)
        self._dirty[key] = (value, writer_token, tx.serial)

    def commit(self, tx: Transaction) -> None:
        """Install the transaction's final write per key, in first-write
        order, appending each installed version to the binlog.

        Under snapshot isolation, commit enforces first-committer-wins:
        if any written key gained a committed version after this
        transaction's snapshot, the transaction aborts with a retry error.
        """
        self._require_active(tx)
        if self.actual is IsolationLevel.SNAPSHOT:
            for key in tx.write_order:
                versions = self._versions.get(key, ())
                if versions and versions[-1][0] > tx.start_seq:
                    self._fail(tx, key)
        self.stats["commits"] += 1
        self.metrics.counter("store.commits").inc()
        self._commit_seq += 1
        tx.commit_seq = self._commit_seq
        for key in tx.write_order:
            value, token = tx.writes[key]
            self._rows[key] = _Row(value, token)
            chain = self._versions.setdefault(key, [])
            chain.append((self._commit_seq, value, token))
            self.metrics.histogram("store.version_chain").observe(len(chain))
            self.binlog.append(key, token)
            if self._dirty.get(key, (None, None, None))[2] == tx.serial:
                del self._dirty[key]
        tx.status = TxStatus.COMMITTED
        del self._active[tx.serial]
        self._release_locks(tx)

    def abort(self, tx: Transaction) -> None:
        if not tx.is_active:
            return
        self.stats["aborts"] += 1
        self.metrics.counter("store.aborts").inc()
        for key in tx.write_order:
            if self._dirty.get(key, (None, None, None))[2] == tx.serial:
                del self._dirty[key]
        tx.status = TxStatus.ABORTED
        del self._active[tx.serial]
        self._release_locks(tx)

    # -- inspection -----------------------------------------------------------

    def committed_value(self, key: str) -> object:
        row = self._rows.get(key)
        return None if row is None else row.value

    def committed_writer(self, key: str) -> object:
        row = self._rows.get(key)
        return None if row is None else row.writer_token

    def keys(self) -> List[str]:
        return list(self._rows.keys())

    def active_transactions(self) -> List[Transaction]:
        return list(self._active.values())

    def version_history(self, key: str) -> List[Tuple[int, object, object]]:
        """Committed versions of ``key`` as (commit_seq, value, token)."""
        return list(self._versions.get(key, ()))

    def tx_window(self, tx: Transaction) -> Tuple[int, Optional[int]]:
        """(start_seq, commit_seq) -- the advice's transaction window for
        snapshot-isolation verification (commit_seq is None unless the
        transaction committed)."""
        return (tx.start_seq, tx.commit_seq)
