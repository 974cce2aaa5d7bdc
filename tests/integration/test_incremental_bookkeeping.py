"""Per-epoch bookkeeping is O(what the epoch wrote) and changes no byte
(DESIGN.md §6).

Checkpoint digests and stored checkpoint records are assembled from
per-entry fragments a child inherits from its parent, and an epoch's
content digest is taken while its stored frames are read.  Both are
stored evidence, so these tests pin them three ways: against the
whole-document reference formulas below (the definitions, spelled the
way they were before fragments existed), against the from-scratch path
(an empty cache, a reopened store), and against the committed golden
digests.
"""

import hashlib
import json

import pytest

from repro.continuous import ContinuousAuditor
from repro.continuous import checkpoint as checkpoint_mod
from repro.continuous.checkpoint import (
    GENESIS_DIGEST,
    Checkpoint,
    CheckpointStore,
    compute_digest,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.continuous.codec import (
    STREAM_KIND,
    epoch_stream_name,
    read_epoch_stream,
    write_epoch_stored,
)
from repro.continuous.journal import AuditJournal
from repro.core.ids import HandlerId, TxId
from repro.storage import backend_for
from repro.verifier import Auditor
from repro.verifier.dag import NodeJournal
from repro.verifier.dag.plan import epoch_digest
from tests.encode_oracle import encode_value
from tests.verdict_goldens import APPS, golden, streams

pytestmark = pytest.mark.tier1


# -- the definitions, as whole documents ---------------------------------------


def _sort_encoded(doc):
    if isinstance(doc, dict):
        if doc.get("t") == "d":
            pairs = [[_sort_encoded(k), _sort_encoded(v)] for k, v in doc["v"]]
            pairs.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
            return {"t": "d", "v": pairs}
        if "v" in doc:
            return {**doc, "v": _sort_encoded(doc["v"])}
        return doc
    if isinstance(doc, list):
        return [_sort_encoded(x) for x in doc]
    return doc


def reference_digest(index, parent_digest, vars, kv):
    doc = {
        "index": index,
        "parent": parent_digest,
        "vars": sorted(
            ([k, _sort_encoded(encode_value(v))] for k, v in vars.items()),
            key=lambda pair: pair[0],
        ),
        "kv": sorted(
            ([k, _sort_encoded(encode_value(v))] for k, v in kv.items()),
            key=lambda pair: pair[0],
        ),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reference_encoding(cp):
    doc = {
        "epoch": cp.epoch,
        "parent": cp.parent_digest,
        "vars": [[k, encode_value(v)] for k, v in sorted(cp.vars.items())],
        "kv": [[k, encode_value(v)] for k, v in sorted(cp.kv.items())],
        "digest": cp.digest,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


AWKWARD = {
    "unsorted": {"b": 1, "a": {"z": None, "y": (1, 2)}},
    "keys": {2: "int", "2": "str", (1, "x"): "tuple", None: 0, 1.5: []},
    "text": 'quote " backslash \\ snowman ☃ nul \x00',
    "numbers": [0, -1, 1.0, 1e100, True, False, None],
    "tx": TxId(HandlerId("h", HandlerId("root"), 2), 7),
    "empty": {},
}


def test_fragments_assemble_the_reference_documents():
    vars, kv = dict(AWKWARD), {"k": AWKWARD, "": [], "é": 1}
    cp = Checkpoint.make(3, "p" * 64, vars, kv)
    assert cp.digest == reference_digest(3, "p" * 64, vars, kv)
    assert compute_digest(3, "p" * 64, vars, kv) == cp.digest
    assert encode_checkpoint(cp) == reference_encoding(cp)
    # Without the cache (a decoded checkpoint) it is the same record, and
    # a carried dict still iterates in the order it was written in.
    decoded = decode_checkpoint(encode_checkpoint(cp))
    assert decoded == cp and decoded.verify()
    assert encode_checkpoint(decoded) == reference_encoding(cp)
    assert list(decoded.vars["unsorted"]) == ["b", "a"]


def test_equal_but_not_identical_value_recomputes_its_fragment():
    """``1 == True == 1.0`` and each encodes differently: a fragment is
    inherited for the same object only."""
    shared = ["carried", "list"]
    parent = Checkpoint.make(0, GENESIS_DIGEST, {"x": 1, "keep": shared}, {"k": 1})
    digests = []
    for index, value in enumerate((True, 1.0, 1), start=1):
        vars, kv = {"x": value, "keep": shared}, {"k": value}
        child = Checkpoint.make(index, parent.digest, vars, kv, inherit=parent)
        assert child.digest == reference_digest(index, parent.digest, vars, kv)
        assert encode_checkpoint(child) == reference_encoding(child)
        restored = decode_checkpoint(encode_checkpoint(child))
        assert type(restored.vars["x"]) is type(value)
        assert type(restored.kv["k"]) is type(value)
        digests.append(compute_digest(0, GENESIS_DIGEST, vars, kv))
        parent = child
    assert len(set(digests)) == 3


def test_parent_cache_is_dropped_once_its_child_exists():
    parent = Checkpoint.make(0, GENESIS_DIGEST, {"x": 1}, {"k": [1]})
    assert parent._fragments is not None
    child = Checkpoint.make(1, parent.digest, parent.vars, parent.kv, inherit=parent)
    assert parent._fragments is None and child._fragments is not None
    assert encode_checkpoint(parent) == reference_encoding(parent)
    # A second child of the same parent has nothing to inherit and says
    # the same thing.
    again = Checkpoint.make(1, parent.digest, parent.vars, parent.kv, inherit=parent)
    assert again == child


# -- golden streams ---------------------------------------------------------------


def _durable_auditor(app, root):
    state = backend_for("file", str(root / "audit"))
    return ContinuousAuditor(
        APPS[app](),
        checkpoints=CheckpointStore(backend=state),
        journal=AuditJournal(backend=state),
        node_journal=NodeJournal(backend_for("file", str(root / "nodes"))),
    )


def _close(auditor):
    auditor.checkpoints.close()
    auditor.journal.close()


@pytest.mark.parametrize("app", sorted(APPS))
def test_incremental_digest_is_the_from_scratch_digest(app, tmp_path):
    """Every epoch of the sealed golden stream, through the durable
    path (node journal + store, both assembled from fragments), with a
    restart in the middle so one epoch's parent comes back from disk
    without a cache."""
    epochs = streams(app)["honest"]
    want = [digest for _, _, _, digest in golden(app)["stream"]["honest"]]
    first = _durable_auditor(app, tmp_path)
    got = [v.checkpoint_digest for v in first.run(epochs[:2])]
    _close(first)
    resumed = _durable_auditor(app, tmp_path)
    assert resumed.checkpoints.get(1)._fragments is None
    verdicts = resumed.run(epochs)
    assert resumed.skipped_resumed == 2
    got += [v.checkpoint_digest for v in verdicts]
    _close(resumed)
    assert got == want

    reopened = CheckpointStore(backend=backend_for("file", str(tmp_path / "audit")))
    reopened.verify_chain()
    for index, digest in enumerate(want):
        live, stored = resumed.checkpoints.get(index), reopened.get(index)
        assert stored == live and stored._fragments is None
        assert digest == compute_digest(
            live.epoch, live.parent_digest, live.vars, live.kv
        ) == reference_digest(
            stored.epoch, stored.parent_digest, stored.vars, stored.kv
        )
        assert encode_checkpoint(stored) == reference_encoding(live)


@pytest.mark.parametrize("app", sorted(APPS))
def test_an_epoch_encodes_only_the_entries_it_wrote(app, tmp_path, monkeypatch):
    """The O(delta) guard: auditing epoch k builds one fragment per entry
    holding a different object than in checkpoint k-1, and none for what
    was carried -- journal copy and stored record included."""
    built = []
    real = checkpoint_mod._fragment

    def counting(key, value):
        built.append(key)
        return real(key, value)

    monkeypatch.setattr(checkpoint_mod, "_fragment", counting)
    auditor = _durable_auditor(app, tmp_path)
    carried = 0
    for epoch in streams(app)["honest"]:
        del built[:]
        auditor.submit(epoch)
        assert auditor.drain()[-1].accepted
        cp = auditor.checkpoints.get(epoch.index)
        parent = auditor.checkpoints.get(epoch.index - 1)
        fresh = [
            key
            for now, before in (
                (cp.vars, parent.vars if parent else {}),
                (cp.kv, parent.kv if parent else {}),
            )
            for key in now
            if key not in before or now[key] is not before[key]
        ]
        assert sorted(built) == sorted(fresh), epoch.index
        carried += len(cp.vars) + len(cp.kv) - len(fresh)
    _close(auditor)
    # motd's stream rewrites both of its variables in every epoch; the
    # other three carry most of their state from epoch to epoch.
    assert carried > 0 or app == "motd", "nothing was carried: nothing was tested"


@pytest.mark.parametrize("app", sorted(APPS))
def test_reopening_a_delta_chain_encodes_what_each_record_wrote(
    app, tmp_path, monkeypatch
):
    """The O(delta) guard on reopen: loading one writer session's stream
    (the whole state, then a delta per epoch) and verifying its chain
    builds one fragment per entry of the full record, plus one per entry
    each delta wrote -- the entries every delta carried reuse the
    previous link's fragment, and no stored checkpoint keeps a cache."""
    auditor = _durable_auditor(app, tmp_path)
    epochs = streams(app)["honest"]
    assert all(v.accepted for v in auditor.run(epochs))
    _close(auditor)
    state = backend_for("file", str(tmp_path / "audit"))
    with state.reader(checkpoint_mod.STREAM_NAME) as reader:
        records = list(reader)
    assert [rtype for rtype, _ in records] == [checkpoint_mod.RT_CHECKPOINT] + [
        checkpoint_mod.RT_DELTA
    ] * (len(epochs) - 1)
    written = sum(
        len(doc["vars"]) + len(doc["kv"])
        for doc in (json.loads(payload) for _, payload in records)
    )

    built = []
    real = checkpoint_mod._fragment

    def counting(key, value):
        built.append(key)
        return real(key, value)

    monkeypatch.setattr(checkpoint_mod, "_fragment", counting)
    reopened = CheckpointStore(backend=state)
    reopened.verify_chain()
    assert len(built) == written
    full = auditor.checkpoints.get(0)
    assert written < len(epochs) * (len(full.vars) + len(full.kv)) or app == "motd"
    for index in range(len(epochs)):
        stored = reopened.get(index)
        assert stored._fragments is None
        assert stored == auditor.checkpoints.get(index)


# -- the epoch digest, taken where the frames are read --------------------------------


def _restamp(backend, name, mutate):
    """Rewrite stream ``name`` with ``mutate`` applied to the payload of
    its first content frame; the writer stamps a fresh, valid CRC."""
    with backend.reader(name) as reader:
        frames = list(reader)
    rtype, payload = frames[1]  # frames[0] is the epoch meta record
    frames[1] = (rtype, mutate(payload))
    with backend.create(name, STREAM_KIND) as writer:
        for rtype, payload in frames:
            writer.append(rtype, payload)


@pytest.mark.parametrize("scheme", ["file", "gzip"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_read_time_digest_is_the_epoch_digest(app, scheme, tmp_path):
    backend = backend_for(scheme, str(tmp_path))
    for epoch in streams(app)["honest"]:
        assert epoch.content_digest is None  # sealed in memory: never at rest
        name = write_epoch_stored(backend, epoch)
        with backend.reader(name) as reader:
            stored = read_epoch_stream(reader)
        assert stored.content_digest == epoch_digest(epoch.trace, epoch.advice)
        assert stored.content_digest == epoch_digest(stored.trace, stored.advice)

    name = epoch_stream_name(0)
    _restamp(backend, name, lambda p: p.replace(b'"rid":"r', b'"rid":"s', 1))
    with backend.reader(name) as reader:
        changed = read_epoch_stream(reader)
    assert changed.content_digest != stored.content_digest
    assert changed.content_digest != epoch_digest(
        streams(app)["honest"][0].trace, streams(app)["honest"][0].advice
    )
    assert changed.content_digest == epoch_digest(changed.trace, changed.advice)


def test_resume_guard_refuses_a_journal_written_for_other_stored_inputs(tmp_path):
    """The plan digest now rests on the read-time epoch digest; it must
    still tell two stored epochs apart: the journal replays for the same
    epoch and is discarded for a changed one."""
    backend = backend_for("file", str(tmp_path / "epochs"))
    name = write_epoch_stored(backend, streams("wiki")["honest"][0])
    with backend.reader(name) as reader:
        epoch = read_epoch_stream(reader)
    nodes = backend_for("file", str(tmp_path / "nodes"))
    first = Auditor.for_epoch(APPS["wiki"](), epoch, node_journal=NodeJournal(nodes))
    assert first.run().accepted
    assert first.plan.epoch.digest == epoch.content_digest

    groups = len(epoch.advice.groups())
    same = Auditor.for_epoch(APPS["wiki"](), epoch, node_journal=NodeJournal(nodes))
    assert same.run().accepted
    assert (same.resumed_nodes, same.executed_nodes) == (groups, 0)

    _restamp(backend, name, lambda p: p.replace(b'"rid":"r', b'"rid":"s', 1))
    with backend.reader(name) as reader:
        other = read_epoch_stream(reader)
    changed = Auditor.for_epoch(APPS["wiki"](), other, node_journal=NodeJournal(nodes))
    changed.run()
    assert changed.resumed_nodes == 0
    assert NodeJournal(nodes).header_plan() == changed.plan.digest != first.plan.digest
