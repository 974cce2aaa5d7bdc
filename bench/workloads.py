"""The benchmark's workloads: what is served, sealed and audited.

A workload is a set of tenants (app + request mix + size) plus the knobs
that decide which layer dominates: epoch size, handler compute scale,
dedup.  Requests come from ``--seed`` alone; the program under test only
ever sees the generated requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.core.ids import make_rid
from repro.trace.trace import Request


@dataclass(frozen=True)
class Tenant:
    name: str
    app: str
    mix: str  # a key of GENERATORS
    n: int
    seal_every: int
    quota: int = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tenants: Tuple[Tenant, ...]
    concurrency: int = 8
    work_scale: float = 1.0
    dedup: bool = False
    # Open-loop offered load, requests per calibrated second over all
    # tenants: about half of the closed-loop fleet capacity measured when
    # the benchmark was defined.  Frozen; never recomputed at run time.
    offered_rps: float = 100.0

    @property
    def n(self) -> int:
        return sum(t.n for t in self.tenants)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wiki-mixed",
            why=(
                "Paper's headline app at its 25/15/60 mix, small epochs, no dedup: "
                "codec, plan compile and bookkeeping dominate, handler compute is small"
            ),
            tenants=(Tenant("wiki", "wiki", "wiki-mixed", 360, 2),),
            offered_rps=150.0,
        ),
        Workload(
            name="wiki-zipf-heavy",
            why=(
                "Zipf renders over 6 hot pages at work-scale 6 with dedup on: handler "
                "compute dominates, so reexec and dedup move it and codec or plan work does not"
            ),
            tenants=(Tenant("wiki", "wiki", "wiki-zipf", 100, 2),),
            concurrency=4,
            work_scale=6.0,
            dedup=True,
            offered_rps=60.0,
        ),
        Workload(
            name="fleet-3tenant",
            why=(
                "Three tenants (feed and motd write-heavy, wiki mixed) under quota 2: store "
                "writes, variable logs, pick policy, token buckets and multi-source ingest do real work"
            ),
            tenants=(
                Tenant("feed", "feed", "feed-writes", 160, 2),
                Tenant("motd", "motd", "motd-writes", 540, 4),
                Tenant("wiki", "wiki", "wiki-mixed", 100, 2),
            ),
            offered_rps=350.0,
        ),
    )
}


def quick(workload: Workload) -> Workload:
    """The same workload at a tenth of the size, for smoke runs."""
    return replace(
        workload,
        tenants=tuple(replace(t, n=max(24, t.n // 10)) for t in workload.tenants),
        work_scale=min(workload.work_scale, 4.0),
    )


def _even_mix(rng: random.Random, n: int, weights: Dict[str, float],
              block: int = 20) -> List[str]:
    """``n`` kinds in the proportions of ``weights``, spread evenly (each
    next kind is the one furthest behind its share) and then shuffled
    within blocks of ``block``: every seed meets the mix exactly and at the
    same pace, so state grows alike under all of them."""
    total = sum(weights.values())
    given = dict.fromkeys(weights, 0)
    kinds: List[str] = []
    for i in range(1, n + 1):
        kind = max(weights, key=lambda k: weights[k] / total * i - given[k])
        given[kind] += 1
        kinds.append(kind)
    out: List[str] = []
    for start in range(0, n, block):
        chunk = kinds[start:start + block]
        rng.shuffle(chunk)
        out += chunk
    return out


# The request shapes are those of ``repro.workload``; the mixes are the
# paper's.  Unlike ``workload_for``, each mix is met exactly and evenly,
# and the seed draws only the local order and the targets: the driver
# compares runs made with different seeds, and a binomial mix at these
# sizes moves the handler count by over 2 % and the state directory by a
# tenth from seed to seed, more than the bounds can carry.


def wiki_mixed(n: int, seed: int) -> List[Request]:
    """25 % create-page / 15 % create-comment / 60 % render."""
    rng = random.Random(seed)
    kinds = _even_mix(
        rng, n, {"create_page": 0.25, "create_comment": 0.15, "render": 0.60}
    )
    first = kinds.index("create_page")  # a page must exist before any use
    kinds[0], kinds[first] = kinds[first], kinds[0]
    titles: List[str] = []
    out = []
    for i, kind in enumerate(kinds):
        if kind == "create_page":
            title = f"Page_{len(titles)}"
            titles.append(title)
            fields = {"title": title,
                      "content": f"Contents of {title}.\nSection {len(titles) % 4}."}
        elif kind == "create_comment":
            fields = {"title": rng.choice(titles),
                      "text": f"comment #{rng.randrange(1000)}"}
        else:
            fields = {"title": rng.choice(titles)}
        out.append(Request.make(make_rid(i), kind, **fields))
    return out


def zipf_renders(n: int, seed: int, pages: int = 6) -> List[Request]:
    """A write prefix creating ``pages`` pages, then renders with 1/rank
    popularity: most requests hit the same couple of hot pages (the
    traffic of ``benchmarks/test_dedup_reexec.py``)."""
    rng = random.Random(seed)
    titles = [f"Hot_{i}" for i in range(pages)]
    out = [
        Request.make(make_rid(i), "create_page", title=title,
                     content=f"Contents of {title}.")
        for i, title in enumerate(titles)
    ]
    renders = _even_mix(
        rng, n - pages, {title: 1.0 / rank for rank, title in enumerate(titles, 1)}
    )
    for i, title in enumerate(renders, pages):
        out.append(Request.make(make_rid(i), "render", title=title))
    return out


_USERS = ("alice", "bob", "carol", "dave", "erin")


def feed_writes(n: int, seed: int) -> List[Request]:
    """Three follows first, then 15 % follows and, of the rest, 90 % posts
    and 10 % feed reads."""
    rng = random.Random(seed)
    kinds = ["follow"] * 3 + _even_mix(
        rng, n - 3, {"follow": 0.15, "post": 0.85 * 0.9, "read_feed": 0.85 * 0.1}
    )
    out = []
    for i, kind in enumerate(kinds):
        user = rng.choice(_USERS)
        if kind == "follow":
            fields = {"target": rng.choice([u for u in _USERS if u != user])}
        elif kind == "post":
            fields = {"text": f"post #{rng.randrange(1000)} from {user}"}
        else:
            fields = {}
        out.append(Request.make(make_rid(i), kind, user=user, **fields))
    return out


_DAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun", "all")


def motd_writes(n: int, seed: int) -> List[Request]:
    """90 % set / 10 % get over a small day domain."""
    rng = random.Random(seed)
    out = []
    for i, kind in enumerate(_even_mix(rng, n, {"set": 0.9, "get": 0.1})):
        fields = {"day": rng.choice(_DAYS)}
        if kind == "set":
            fields["msg"] = f"message of the day #{rng.randrange(1000)}"
        out.append(Request.make(make_rid(i), kind, **fields))
    return out


GENERATORS = {
    "wiki-mixed": wiki_mixed,
    "wiki-zipf": zipf_renders,
    "feed-writes": feed_writes,
    "motd-writes": motd_writes,
}


def requests_for(tenant: Tenant, seed: int) -> List[Request]:
    return GENERATORS[tenant.mix](tenant.n, seed)
