"""The node journal's binary records (DESIGN.md §5).

Each record is its chain digest, ``sha256(previous digest || rtype ||
body)``, then its body: a header names the plan, a delta is a node ID
and the pickled delta.  A damaged, reordered or foreign journal is
discarded and every group re-executes; no delta is unpickled before the
whole chain verifies; and a journal reused across epochs dismisses its
own previous stream without reading it.
"""

import importlib

import pytest

from repro.apps import motd_app, wiki_app
from repro.continuous import ContinuousAuditor
from repro.kem.scheduler import RandomScheduler
from repro.obs import MetricsRegistry
from repro.server import KarousosPolicy, run_server
from repro.storage import FileBackend, MemoryBackend
from repro.verifier import Auditor
from repro.verifier.dag import NodeJournal, NodeJournalError
from repro.verifier.dag.journal import RT_DELTA, RT_HEADER, STREAM_KIND, STREAM_NAME
from repro.workload import motd_workload
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1


def _serve(n, seed):
    return run_server(
        motd_app(), motd_workload(n, mix="mixed", seed=seed), KarousosPolicy(),
        scheduler=RandomScheduler(2), concurrency=4,
    )


@pytest.fixture(scope="module")
def served():
    return _serve(12, 41)


@pytest.fixture(scope="module")
def other():
    return _serve(8, 99)


def _audit(run, backend, **options):
    auditor = Auditor(
        motd_app(), run.trace, run.advice, singleton_groups=True,
        node_journal=NodeJournal(backend), **options,
    )
    return auditor, auditor.run()


def _journaled(run):
    """A backend holding ``run``'s whole journal, and its records."""
    backend = MemoryBackend()
    _audit(run, backend)
    return backend, backend.load_tolerant(STREAM_NAME, STREAM_KIND)


def _rewrite(backend, records):
    """Replace the stream with ``records``, each in a whole, CRC-valid
    frame: only the chain can tell."""
    with backend.create(STREAM_NAME, STREAM_KIND) as writer:
        for rtype, payload in records:
            writer.append(rtype, payload)


def _flip_body_byte(records, _):
    rtype, payload = records[2]
    body = bytearray(payload)
    body[-1] ^= 0x01  # inside the pickled delta, past the digest and node ID
    return records[:2] + [(rtype, bytes(body))] + records[3:]


def _swap(records, _):
    return [records[0], records[2], records[1]] + records[3:]


def _splice(records, foreign):
    return records[:2] + [foreign[1]] + records[3:]


TAMPERS = {"flipped body byte": _flip_body_byte, "swapped records": _swap,
           "record from another journal": _splice}


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_a_tampered_journal_is_discarded_and_every_group_reexecutes(served, other, name):
    backend, records = _journaled(served)
    _, foreign = _journaled(other)
    assert [rtype for rtype, _ in records[:3]] == [RT_HEADER, RT_DELTA, RT_DELTA]
    _rewrite(backend, TAMPERS[name](records, foreign))
    with pytest.raises(NodeJournalError, match="chain broken"):
        NodeJournal(backend).load()
    auditor, result = _audit(served, backend)
    assert result.accepted
    assert (auditor.resumed_nodes, auditor.executed_nodes) == (0, len(records) - 1)


def test_a_header_naming_another_plan_is_discarded(served):
    """A whole, valid chain of this plan's deltas under another plan's
    header: dismissed from the header, every group re-executes."""
    backend, records = _journaled(served)
    deltas = NodeJournal(backend).load().deltas
    journal = NodeJournal(backend)
    journal.start("another plan")
    for node_id, payload in deltas.items():
        journal.record_delta(node_id, payload)
    journal.close()
    assert NodeJournal(backend).load().deltas == deltas
    auditor, result = _audit(served, backend)
    assert result.accepted
    assert (auditor.resumed_nodes, auditor.executed_nodes) == (0, len(deltas))


def _watch_decodes(monkeypatch):
    """Record, for each delta decode, whether a whole load had verified."""
    audit_module = importlib.import_module("repro.verifier.audit")  # not the audit function
    verified, decodes = [], []
    load, decode = NodeJournal.load, audit_module.decode_delta

    def loading(self):
        state = load(self)
        verified.append(True)
        return state

    def decoding(payload):
        decodes.append(bool(verified))
        return decode(payload)

    monkeypatch.setattr(NodeJournal, "load", loading)
    monkeypatch.setattr(audit_module, "decode_delta", decoding)
    return decodes


def test_no_delta_is_unpickled_before_the_chain_verifies(served, monkeypatch):
    backend, records = _journaled(served)
    decodes = _watch_decodes(monkeypatch)
    auditor, result = _audit(served, backend)
    assert result.accepted and auditor.resumed_nodes == len(records) - 1
    assert decodes == [True] * (len(records) - 1)


def test_a_chain_that_breaks_at_its_last_record_unpickles_nothing(served, monkeypatch):
    backend, records = _journaled(served)
    rtype, payload = records[-1]
    _rewrite(backend, records[:-1] + [(rtype, payload[:-1] + bytes([payload[-1] ^ 1]))])
    decodes = _watch_decodes(monkeypatch)
    auditor, result = _audit(served, backend)
    assert result.accepted and auditor.resumed_nodes == 0
    assert decodes == []


def test_a_journal_reused_across_epochs_reads_none_of_its_own_records(tmp_path):
    """Each epoch's plan differs from the last: the journal this instance
    wrote is dismissed from memory, and restarted."""
    epochs = vg.streams("wiki")["honest"]
    reads = MetricsRegistry()
    journal = NodeJournal(FileBackend(str(tmp_path), metrics=reads))
    verdicts = ContinuousAuditor(wiki_app(), node_journal=journal).run(epochs)
    assert all(v.accepted for v in verdicts) and len(verdicts) > 2
    counters = reads.snapshot()["counters"]
    assert counters.get("storage.file.records_read", 0) == 0
    assert counters["storage.file.records_written"] > len(epochs)
    # The last epoch's journal is whole and names the last plan.
    state = NodeJournal(FileBackend(str(tmp_path))).load()
    assert state.plan_digest == journal.header_plan() and state.deltas


def test_a_fresh_instance_still_reads_the_header_it_did_not_write(served):
    backend, _ = _journaled(served)
    reads = MetricsRegistry()
    backend.metrics = reads
    plan = NodeJournal(backend).header_plan()
    assert plan and reads.snapshot()["counters"]["storage.memory.records_read"] == 1
