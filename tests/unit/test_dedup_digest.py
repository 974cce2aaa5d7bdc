"""Unit tests for the ``repro.digest/1`` activation digest (DESIGN.md §11).

The digest's contract: equal inputs-that-matter -> equal digest (across
processes, runs, and request-id renames); any change to handler code,
read values, advice slice, or carry-in state -> different digest.
"""

import json

import pytest

from repro.apps import motd_app, stackdump_app, wiki_app
from repro.kem.scheduler import RandomScheduler
from repro.obs import MetricsRegistry
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.trace.trace import Request
from repro.verifier import Auditor
from repro.verifier.dedup import Deduplicator, VerdictCache, app_fingerprint, group_digest
from repro.verifier.dedup.digest import (
    DIGEST_SPEC,
    denormalize_value,
    member_token,
    sha256_text,
    text_normaliser,
)
from repro.verifier.preprocess import preprocess
from repro.workload import motd_workload, stacks_workload

pytestmark = pytest.mark.tier1


def _serve_motd(seed=61):
    return run_server(
        motd_app(),
        motd_workload(12, mix="mixed", seed=seed),
        KarousosPolicy(),
        scheduler=RandomScheduler(1),
        concurrency=4,
    )


def _digests(app, run):
    state = preprocess(app, run.trace, run.advice)
    out = {}
    for tag, rids in run.advice.groups().items():
        digest = group_digest(state, rids)
        out[tag] = digest.key if digest is not None else None
    return out


class TestDeterminism:
    def test_spec_version_pinned(self):
        assert DIGEST_SPEC == "repro.digest/1"

    def test_same_state_same_digests(self):
        run = _serve_motd()
        app = motd_app()
        first = _digests(app, run)
        second = _digests(app, run)
        assert first == second
        assert any(v is not None for v in first.values())

    def test_fresh_preprocess_same_digests(self):
        """Two independent preprocess passes over the same pair digest
        identically -- nothing run-local (object ids, dict order) leaks."""
        run = _serve_motd()
        assert _digests(motd_app(), run) == _digests(motd_app(), run)

    def test_identical_reserve_identical_digests(self):
        """Re-serving the same workload under the same scheduler seed is
        the cross-run persistence scenario: every digest must line up even
        though every Python object identity differs."""
        first, second = _serve_motd(seed=62), _serve_motd(seed=62)
        assert _digests(motd_app(), first) == _digests(motd_app(), second)

    def test_different_workload_different_digests(self):
        first, second = _serve_motd(seed=63), _serve_motd(seed=64)
        a, b = _digests(motd_app(), first), _digests(motd_app(), second)
        assert set(a.values()) != set(b.values())


def value_hash(value, tokens):
    return sha256_text(text_normaliser(tokens)(value))


class TestValueNormalization:
    TOKENS = {"r000003": member_token(0), "r000007": member_token(1)}
    DETOKENS = {v: k for k, v in TOKENS.items()}

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            3.5,
            "plain",
            "r000003",
            ["r000003", {"by": "r000007"}],
            {"r000003": ["nested", ("tuple", "r000007")]},
            (1, 2, "r000003"),
        ],
        ids=repr,
    )
    def test_roundtrip(self, value):
        encoded = json.loads(text_normaliser(self.TOKENS)(value))
        assert denormalize_value(encoded, self.DETOKENS) == value

    def test_rid_rename_invariance(self):
        """The same payload under renamed member rids (same positions)
        hashes identically -- the property that makes digests match
        across runs that assign different request ids."""
        a_tokens = {"r000001": member_token(0), "r000002": member_token(1)}
        b_tokens = {"r000055": member_token(0), "r000090": member_token(1)}
        a = {"author": "r000001", "seen": ["r000002", "x"]}
        b = {"author": "r000055", "seen": ["r000090", "x"]}
        assert value_hash(a, a_tokens) == value_hash(b, b_tokens)

    def test_member_position_matters(self):
        tokens_fwd = {"r1": member_token(0), "r2": member_token(1)}
        tokens_rev = {"r1": member_token(1), "r2": member_token(0)}
        assert value_hash(["r1", "r2"], tokens_fwd) != value_hash(
            ["r1", "r2"], tokens_rev
        )

    def test_foreign_rid_left_alone(self):
        assert text_normaliser(self.TOKENS)("r999999") == text_normaliser({})("r999999")


class TestLiteralTokens:
    """Advice values and request inputs are untrusted: a string spelling a
    member token must not digest like the member rid it spells."""

    def test_literal_token_does_not_alias_a_member_rid(self):
        member = value_hash({"owner": "r000007"}, {"r000007": member_token(0)})
        try:
            literal = value_hash({"owner": "\x00grp0\x00"}, {"r000009": member_token(0)})
        except Exception:
            literal = None  # uncacheable
        assert literal != member
        assert literal is None

    @pytest.mark.parametrize("value", ["a\x00b", {"k\x00": 1}, [("\x00",)]], ids=repr)
    def test_any_nul_string_is_uncacheable(self, value):
        with pytest.raises(Exception):
            text_normaliser({})(value)

    def test_served_literal_token_reexecutes(self):
        """A client sets the message of the day to a literal token: every
        group whose inputs or advice hold it is uncacheable, so it
        re-executes and nothing about it is cached -- and the audit still
        accepts."""

        def audit(msg):
            requests = motd_workload(10, mix="write-heavy", seed=5)
            requests[0] = Request.make(requests[0].rid, "set", day="mon", msg=msg)
            run = run_server(
                motd_app(), requests, KarousosPolicy(),
                scheduler=RandomScheduler(1), concurrency=4,
            )
            metrics = MetricsRegistry()
            dedup = Deduplicator(VerdictCache())
            result = Auditor(
                motd_app(), run.trace, run.advice, metrics=metrics, dedup=dedup
            ).run()
            assert result.accepted, result.reason
            counters = metrics.snapshot()["counters"]
            return counters.get("reexec.uncacheable_groups", 0), dedup.cache

        plain_uncacheable, _ = audit("hello")
        uncacheable, cache = audit(member_token(0))
        assert uncacheable > plain_uncacheable
        assert not any("grp0" in json.dumps(entry) for entry in cache._entries.values())


class TestAppFingerprint:
    def test_stable_across_constructions(self):
        assert app_fingerprint(wiki_app()) == app_fingerprint(wiki_app())
        assert app_fingerprint(motd_app()) == app_fingerprint(motd_app())

    def test_distinguishes_apps(self):
        fps = {
            app_fingerprint(wiki_app()),
            app_fingerprint(motd_app()),
            app_fingerprint(stackdump_app()),
        }
        assert len(fps) == 3

    def test_memoized_per_instance(self):
        app = wiki_app()
        assert app_fingerprint(app) == app_fingerprint(app)


class TestStoreBackedDigests:
    def test_stacks_cross_serve_determinism(self):
        def serve():
            return run_server(
                stackdump_app(),
                stacks_workload(12, mix="mixed", seed=65),
                KarousosPolicy(),
                store=KVStore(IsolationLevel.SERIALIZABLE),
                scheduler=RandomScheduler(1),
                concurrency=4,
            )

        assert _digests(stackdump_app(), serve()) == _digests(
            stackdump_app(), serve()
        )
