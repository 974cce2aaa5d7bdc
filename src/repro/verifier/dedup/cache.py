"""The verdict cache (DESIGN.md §11).

One in-memory map from activation digest to verdict entry, living as
long as the process: no backend, no stream, no load path.  An entry
carries the activation digest (the key), the verdict, the member count,
the saved handler count and the output digest, and its effect: first as
``source`` (the stored group's member rids, their tokens and a snapshot
of its delta), then, from its first validated hit on, as the normalised
effect document and the effect digest.  Normalising and the hit-time
revalidation (output digest vs the *current* trace, effect digest vs the
stored effects) live with the
:class:`~repro.verifier.dedup.executor.Deduplicator`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.storage.records import canonical_json
from repro.verifier.dedup.digest import DIGEST_SPEC, sha256_text

VERDICT_ACCEPT = "accept"


def effect_sum(effect: Dict[str, object]) -> str:
    return sha256_text(canonical_json(effect))


def make_entry(
    key: str,
    members: int,
    handlers: int,
    output_digest: str,
    source: Tuple[List[str], Dict[str, str], object],
) -> Dict[str, object]:
    """A cache entry whose effect is still its ``source``: the stored
    group's member rids, their tokens and a snapshot of its delta."""
    return {
        "spec": DIGEST_SPEC,
        "key": key,
        "verdict": VERDICT_ACCEPT,
        "members": members,
        "handlers": handlers,
        "output_digest": output_digest,
        "source": source,
    }


class VerdictCache:
    """Digest-keyed verdict entries for the lifetime of the process.

    One cache may back many :class:`Deduplicator` objects (the fleet
    service shares one across tenants); the first entry stored under a
    key is the one kept.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, object]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._entries.get(key)

    def put(self, entry: Dict[str, object]) -> None:
        self._entries.setdefault(entry["key"], entry)

    def discard(self, key: str) -> None:
        self._entries.pop(key, None)

    def close(self) -> None:
        """A no-op: nothing is persisted, so nothing needs sealing."""


__all__ = ["VERDICT_ACCEPT", "VerdictCache", "effect_sum", "make_entry"]
