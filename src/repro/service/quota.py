"""Per-tenant execution quotas (DESIGN.md §13).

The super-producer threat (Jiang et al., PAPERS.md): one hot tenant
stream with huge epochs can monopolise a shared auditing pipeline and
starve every other tenant.  The fleet pool therefore charges each
*scheduled re-execution node* against its tenant's token bucket --
re-execution is where audit time actually goes; the cheap deterministic
stages (decode, preprocess, isolation, merge, checkpoint) stay free so
quotas never distort verdicts, only pacing.

A bucket holds ``quota`` tokens per round.  The pool refills *every*
bucket at once, only when no ready tenant can spend (the round
boundary), so relative service rates converge to the quota ratios:
tenant A with quota 4 and tenant B with quota 1 see a 4:1 split of
re-execution slots while both have work, and an idle tenant's unused
tokens do not bank across rounds (no burst debt).
"""

from __future__ import annotations

from typing import Optional


class TokenBucket:
    """Round-based execution allowance; ``quota`` None or <= 0 means
    unlimited (the bucket always grants)."""

    __slots__ = ("quota", "tokens", "spent", "refills")

    def __init__(self, quota: Optional[int] = None):
        self.quota = int(quota) if quota and int(quota) > 0 else 0
        self.tokens = self.quota
        self.spent = 0
        self.refills = 0

    @property
    def unlimited(self) -> bool:
        return self.quota == 0

    def try_take(self) -> bool:
        """Spend one token; False when the bucket is dry this round."""
        if self.unlimited:
            self.spent += 1
            return True
        if self.tokens <= 0:
            return False
        self.tokens -= 1
        self.spent += 1
        return True

    def refill(self) -> None:
        """Start a new round (no carry-over of unused tokens)."""
        if not self.unlimited:
            self.tokens = self.quota
            self.refills += 1

    def __repr__(self) -> str:
        if self.unlimited:
            return "<TokenBucket unlimited>"
        return f"<TokenBucket {self.tokens}/{self.quota}>"


__all__ = ["TokenBucket"]
