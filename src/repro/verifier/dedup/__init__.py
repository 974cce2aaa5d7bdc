"""Deduplicated re-execution: content-addressed verdict cache (DESIGN.md §11).

The reexec stage dominates audit wall-clock, and in the
millions-of-users regime most requests re-execute the same handlers over
the same read-set values.  This package makes that redundancy explicit:

* :mod:`repro.verifier.dedup.digest` -- the ``repro.digest/1`` activation
  digest: a canonical SHA-256 over everything a group's *isolated*
  re-execution can observe (handler code identity, the trace slice, the
  advice slice with external read values resolved inline, and the
  carry-in state), with request ids normalised away so the digest is
  stable across runs and machines;
* :mod:`repro.verifier.dedup.cache` -- the in-memory verdict cache:
  per-digest verdict + output digest + post-state effects, for the
  lifetime of the process;
* :mod:`repro.verifier.dedup.executor` -- the :class:`Deduplicator`:
  the digest / match / rehydrate / store hooks the audit engine's
  ``dedup`` and ``merge`` nodes call.

The trust model (a cache hit can never flip a verdict) lives with the
executor; see DESIGN.md §11.
"""

from repro.verifier.dedup.cache import VerdictCache
from repro.verifier.dedup.digest import DIGEST_SPEC, GroupDigest, app_fingerprint, group_digest
from repro.verifier.dedup.executor import Deduplicator

__all__ = [
    "DIGEST_SPEC",
    "Deduplicator",
    "GroupDigest",
    "VerdictCache",
    "app_fingerprint",
    "group_digest",
]
