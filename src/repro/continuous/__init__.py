"""Continuous auditing: epoch-sealed streaming verification (DESIGN.md §6).

The monolithic audit (``repro.verifier``) verifies a complete served
trace after the fact.  This package turns it into a *continuous* pipeline:
the live stream is cut at transaction-quiescent points into sealed
:class:`Epoch` objects, each epoch is audited against the previous
epoch's verified :class:`Checkpoint` (digest-chained end-of-epoch state),
and progress is journalled so a crashed audit resumes from the last
verified checkpoint instead of restarting.
"""

from repro.continuous.auditor import ContinuousAuditor, EpochVerdict
from repro.continuous.checkpoint import (
    GENESIS_DIGEST,
    Checkpoint,
    CheckpointChainError,
    CheckpointError,
    CheckpointStore,
    checkpoint_from_audit,
    compute_digest,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.continuous.codec import (
    iter_epochs_stored,
    read_epoch_stream,
    write_epoch_stored,
)
from repro.continuous.epoch import Epoch
from repro.continuous.journal import AuditJournal
from repro.continuous.sealer import EpochSealer

__all__ = [
    "AuditJournal",
    "Checkpoint",
    "CheckpointChainError",
    "CheckpointError",
    "CheckpointStore",
    "ContinuousAuditor",
    "Epoch",
    "EpochSealer",
    "EpochVerdict",
    "GENESIS_DIGEST",
    "checkpoint_from_audit",
    "compute_digest",
    "decode_checkpoint",
    "encode_checkpoint",
    "iter_epochs_stored",
    "read_epoch_stream",
    "write_epoch_stored",
]
