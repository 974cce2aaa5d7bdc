"""The storage layer (DESIGN.md §8): record framing, pluggable backends,
corruption/truncation detection, torn-tail recovery, journal durability,
and property-style fuzz of the value/trace/advice/epoch codecs."""

import gzip
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advice.records import Advice, VariableLogEntry
from repro.continuous.codec import (
    iter_epochs_stored,
    read_epoch_stream,
    write_epoch_stored,
)
from repro.continuous import ContinuousAuditor
from repro.continuous.checkpoint import Checkpoint, CheckpointStore
from repro.continuous.epoch import Epoch
from repro.continuous.journal import AuditJournal
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError
from repro.storage import (
    SCHEMES,
    FileBackend,
    GzipBackend,
    MemoryBackend,
    RecordFormatError,
    RecordTruncatedError,
    backend_for,
    decode_value,
    encode_record,
    encode_stream_header,
    unpack_json,
    value_text,
)
from repro.storage.records import clean_prefix, iter_frames, read_header
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent
from repro.verifier.dag import NodeJournal

pytestmark = pytest.mark.tier1


# -- frame format --------------------------------------------------------------


def _stream(kind, records):
    buf = bytearray(encode_stream_header(kind))
    for rtype, payload in records:
        buf += encode_record(rtype, payload)
    return bytes(buf)


def _read(buf):
    """A whole stream read strictly: its kind and every record."""
    fh = io.BytesIO(buf)
    kind = read_header(fh, "stream")
    return kind, [(rtype, payload) for rtype, payload, _, _ in iter_frames(fh)]


def test_header_roundtrip():
    buf = encode_stream_header("trace")
    fh = io.BytesIO(buf)
    kind, start = read_header(fh, "stream"), fh.tell()
    assert kind == "trace" and start == len(buf)


def test_bad_magic_rejected():
    with pytest.raises(RecordFormatError):
        read_header(io.BytesIO(b"NOPE" + b"\x05trace"), "stream")


def test_records_roundtrip():
    records = [(1, b""), (7, b"x" * 1000), (250, "café".encode())]
    kind, got = _read(_stream("k", records))
    assert kind == "k" and got == records


def test_midstream_corruption_is_fatal():
    buf = bytearray(_stream("k", [(1, b"aaaa"), (2, b"bbbb")]))
    buf[len(encode_stream_header("k")) + 7] ^= 0xFF  # inside record 0
    with pytest.raises(RecordFormatError):
        _read(bytes(buf))
    # Tolerant recovery cannot rescue a corrupt *interior* either.
    with pytest.raises(RecordFormatError):
        clean_prefix(io.BytesIO(bytes(buf)), "k", "stream")


def test_torn_tail_is_truncation_not_corruption():
    whole = _stream("k", [(1, b"aaaa"), (2, b"bbbb")])
    torn = whole[:-3]  # rip the final record's CRC
    with pytest.raises(RecordTruncatedError):
        _read(torn)
    good = clean_prefix(io.BytesIO(torn), "k", "stream")
    kind, records = _read(torn[:good])
    assert kind == "k"
    assert records == [(1, b"aaaa")]
    assert whole[:good] == _stream("k", [(1, b"aaaa")])


# -- backends ------------------------------------------------------------------


@pytest.fixture(params=["memory", "file", "gzip"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return backend_for(request.param, str(tmp_path / request.param))


def test_backend_create_read(backend):
    with backend.create("s", "kind") as w:
        w.append(1, b"one")
        w.append(2, b"two")
    with backend.reader("s") as r:
        assert r.kind == "kind"
        assert list(r) == [(1, b"one"), (2, b"two")]
    assert backend.exists("s") and not backend.exists("t")
    assert backend.list_streams() == ["s"]
    backend.delete("s")
    assert not backend.exists("s")


def test_backend_append_resumes(backend):
    with backend.create("s", "kind") as w:
        w.append(1, b"one")
    with backend.append("s", "kind") as w:
        w.append(2, b"two")
    with backend.reader("s") as r:
        assert list(r) == [(1, b"one"), (2, b"two")]


def test_backend_append_wrong_kind(backend):
    backend.create("s", "kind").seal()
    with pytest.raises(RecordFormatError):
        backend.append("s", "other")


def test_backend_kind_checked_by_load_tolerant(backend):
    backend.create("s", "kind").seal()
    with pytest.raises(RecordFormatError):
        backend.load_tolerant("s", "other")
    assert backend.load_tolerant("missing", "kind") == []


def _chop(backend, name, drop):
    """Simulate a crash mid-append: drop the last ``drop`` raw bytes."""
    if isinstance(backend, MemoryBackend):
        del backend.raw(name)[-drop:]
    else:
        path = backend._path(name)
        os.truncate(path, os.path.getsize(path) - drop)


def test_torn_tail_recovered_on_append(backend):
    if isinstance(backend, GzipBackend):
        pytest.skip("gzip tails cannot be chopped at the byte level")
    with backend.create("s", "kind") as w:
        w.append(1, b"first")
        w.append(2, b"second")
    _chop(backend, "s", 3)
    assert backend.load_tolerant("s", "kind") == [(1, b"first")]
    with backend.append("s", "kind") as w:
        w.append(3, b"third")
    with backend.reader("s") as r:
        assert list(r) == [(1, b"first"), (3, b"third")]


def test_gzip_unsealed_stream_readable(tmp_path):
    """A crash before seal leaves no gzip trailer; whole records must
    still read back (Z_SYNC_FLUSH per record)."""
    backend = GzipBackend(str(tmp_path))
    w = backend.create("s", "kind")
    w.append(1, b"one")
    w.append(2, b"two")
    # No seal: simulate the process dying here.
    w._gz = None
    w._raw.close()
    assert backend.load_tolerant("s", "kind") == [(1, b"one"), (2, b"two")]
    with backend.append("s", "kind") as w2:  # recompacts, then appends
        w2.append(3, b"three")
    with backend.reader("s") as r:
        assert list(r) == [(1, b"one"), (2, b"two"), (3, b"three")]


def test_gzip_stores_a_served_run_in_under_half_the_file_bytes(tmp_path):
    """Compression earns its CPU: a served wiki run, stored as one epoch,
    takes well under half the uncompressed file store's bytes."""
    from repro.apps import wiki_app
    from repro.kem.scheduler import RandomScheduler
    from repro.server import KarousosPolicy, run_server
    from repro.store import IsolationLevel, KVStore
    from repro.workload import wiki_workload

    run = run_server(
        wiki_app(), wiki_workload(40, seed=0), KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(0), concurrency=15,
    )
    stored = {}
    for scheme in ("file", "gzip"):
        root = tmp_path / scheme
        backend = backend_for(scheme, str(root))
        write_epoch_stored(backend, Epoch(0, run.trace, run.advice))
        stored[scheme] = sum(f.stat().st_size for f in root.iterdir())
    assert stored["gzip"] < 0.5 * stored["file"], stored


def test_file_reader_midstream_corruption(tmp_path):
    backend = FileBackend(str(tmp_path))
    with backend.create("s", "kind") as w:
        w.append(1, b"a" * 64)
        w.append(2, b"b" * 64)
    path = backend._path("s")
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(RecordFormatError):
        with backend.reader("s") as r:
            list(r)


# -- durability protocol (DESIGN.md §8): explicit barriers, kill mid-write -----


@pytest.fixture
def fsyncs(monkeypatch):
    """The file names ``os.fsync`` was called on, in order."""
    names = []
    real_fsync = os.fsync

    def recording(fd):
        names.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    return names


def test_durability_protocol_barriers(tmp_path, fsyncs):
    """The commit points, and nothing else, take a barrier."""
    backend = FileBackend(str(tmp_path))
    journal = AuditJournal(backend=backend)
    journal.record("verified", 0, digest="d")
    assert fsyncs == ["journal.rec"]
    journal.record("rejected", 1, reason="r", detail="")
    assert fsyncs == ["journal.rec"] * 2

    del fsyncs[:]
    checkpoints = CheckpointStore(backend=backend)
    checkpoints.put(Checkpoint.make(0, "genesis", {"v": 1}, {}))
    assert fsyncs == ["checkpoints.rec"]

    del fsyncs[:]
    nodes = NodeJournal(backend)
    nodes.start("plan-digest")
    for n in range(5):
        nodes.record_delta(f"0/reexec/{n}", b"x")
    nodes.close()
    assert fsyncs == []  # re-derivable: flushed per record, never barriered
    assert len(NodeJournal(backend).load().deltas) == 5


@pytest.mark.parametrize("scheme", ["file", "gzip"])
def test_seal_is_one_barrier_and_close_is_none(tmp_path, fsyncs, scheme):
    backend = backend_for(scheme, str(tmp_path))
    writer = backend.create("s", "kind")
    writer.append(1, b"one")
    writer.seal()
    writer.seal()  # idempotent
    assert len(fsyncs) == 1
    writer = backend.create("t", "kind")
    writer.append(1, b"one")
    writer.close()
    assert len(fsyncs) == 1
    assert backend.load_tolerant("t", "kind") == [(1, b"one")]
    with backend.create("u", "kind") as writer:  # a with block seals
        writer.append(1, b"one")
    assert len(fsyncs) == 2


def test_sync_counts_per_scheme_and_is_a_noop_in_memory(tmp_path, fsyncs):
    from repro.obs import MetricsRegistry

    for scheme in SCHEMES:
        metrics = MetricsRegistry()
        backend = backend_for(scheme, str(tmp_path / scheme), metrics=metrics)
        writer = backend.append("s", "kind")
        writer.append(1, b"one")
        writer.sync()
        writer.append(2, b"two")
        writer.sync()
        writer.close()
        writer.sync()  # nothing left to cover: no error, no barrier
        counters = metrics.snapshot()["counters"]
        expected = 0 if scheme == "memory" else 2
        assert counters.get(f"storage.{scheme}.fsyncs", 0) == expected
        assert backend.load_tolerant("s", "kind") == [(1, b"one"), (2, b"two")]
    assert len(fsyncs) == 4


def test_checkpoint_barrier_precedes_every_verified_append(
    tmp_path, fsyncs, monkeypatch, five_wiki_epochs
):
    """The invariant behind resume: a durable ``verified k`` implies a
    durable checkpoint k.  Per epoch: the checkpoints barrier, then the
    ``verified`` record reaches the journal, then the journal barrier --
    and no other barrier or journal record at all."""
    from repro.apps import wiki_app

    events = fsyncs  # one list: barriers by file name, appends by event
    real_record = AuditJournal.record

    def record(self, event, epoch, **fields):
        events.append((event, epoch))
        real_record(self, event, epoch, **fields)

    state = FileBackend(str(tmp_path / "audit"))
    auditor = ContinuousAuditor(
        wiki_app(),
        checkpoints=CheckpointStore(backend=state),
        journal=AuditJournal(backend=state),
        node_journal=NodeJournal(FileBackend(str(tmp_path / "nodejournal"))),
    )
    monkeypatch.setattr(AuditJournal, "record", record)
    verdicts = auditor.run(five_wiki_epochs)
    assert all(v.accepted for v in verdicts)
    assert events == [
        step
        for k in range(5)
        for step in ("checkpoints.rec", ("verified", k), "journal.rec")
    ]


def test_gzip_recompaction_barriers_the_tmp_file_before_the_rename(
    tmp_path, fsyncs, monkeypatch
):
    """Rename-after-crash (ROADMAP 5d): the new name must not be durable
    ahead of the bytes it names, and a crash between the barrier and the
    rename leaves the old stream intact."""
    backend = GzipBackend(str(tmp_path))
    with backend.create("checkpoints", "kind") as writer:
        writer.append(1, b"one")
        writer.append(2, b"two")
    del fsyncs[:]
    real_replace = os.replace

    def replace(src, dst):
        fsyncs.append(("replace", os.path.basename(src), os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    backend.append("checkpoints", "kind").close()
    assert fsyncs == [
        "checkpoints.recz.tmp",
        ("replace", "checkpoints.recz.tmp", "checkpoints.recz"),
    ]

    def crash(src, dst):
        raise KeyboardInterrupt("power lost between barrier and rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(KeyboardInterrupt):
        backend.append("checkpoints", "kind")
    assert backend.load_tolerant("checkpoints", "kind") == [(1, b"one"), (2, b"two")]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stream_torn_inside_its_header_is_an_empty_stream(tmp_path, scheme):
    """A stream created and never barriered can come back from a power
    loss shorter than its header; that is a torn tail, not corruption."""
    def physical(backend):
        if scheme == "memory":
            return len(backend.raw("journal"))
        return os.path.getsize(backend._path("journal"))

    probe = backend_for(scheme, str(tmp_path / "probe"))
    probe.create("journal", "journal").close()
    for keep in range(physical(probe)):
        backend = backend_for(scheme, str(tmp_path / f"{scheme}-{keep}"))
        backend.create("journal", "journal").close()
        if scheme == "memory":
            del backend.raw("journal")[keep:]
        else:
            os.truncate(backend._path("journal"), keep)
        assert backend.load_tolerant("journal", "journal") == []
        journal = AuditJournal(backend=backend)
        journal.record("verified", 0, digest="d0")
        journal.close()
        assert AuditJournal(backend=backend).last_verified() == 0
    # Bytes that are no header's prefix are corrupt, not torn: every
    # backend refuses to read them, or to append over them.
    for garbage in (b"xx", b"XYZW"):
        for op in ("load_tolerant", "append"):
            backend = backend_for(scheme, str(tmp_path / f"{scheme}-{garbage!r}-{op}"))
            backend.create("journal", "journal").close()
            if scheme == "memory":
                backend.raw("journal")[:] = garbage
            else:
                stored = gzip.compress(garbage) if scheme == "gzip" else garbage
                with open(backend._path("journal"), "wb") as fh:
                    fh.write(stored)
            with pytest.raises(RecordFormatError):
                getattr(backend, op)("journal", "journal")


def test_journal_kill_mid_write_backend(tmp_path):
    backend = FileBackend(str(tmp_path))
    journal = AuditJournal(backend=backend)
    journal.record("sealed", 0)
    journal.record("verified", 0, digest="d0")
    journal.close()
    _chop(backend, "journal", 2)  # crash mid final record
    resumed = AuditJournal(backend=backend)
    assert resumed.last_verified() == -1  # 'verified' was the torn record
    resumed.record("verified", 0, digest="d0")
    resumed.close()
    assert AuditJournal(backend=backend).last_verified() == 0


# -- property-style fuzz (satellite: values through every codec) ---------------

_hids = st.builds(HandlerId, st.sampled_from(["f", "g"]))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),  # unicode included
    st.builds(TxId, _hids, st.integers(min_value=0, max_value=9)),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(_values)
def test_value_codec_roundtrip(value):
    assert decode_value(unpack_json(value_text(value).encode())) == value


def _fuzz_bundle(values):
    """A trace + advice pair carrying the fuzz values through every
    section the codecs treat as opaque value payloads."""
    trace = Trace()
    hid = HandlerId("f")
    advice = Advice()
    for i, value in enumerate(values):
        rid = f"r{i}"
        trace.append(TraceEvent(REQ, rid, Request.make(rid, "route", blob=value)))
        trace.append(TraceEvent(RESP, rid, value))
        advice.tags[rid] = "tag"
        advice.nondet[(rid, hid, i)] = value
        advice.variable_logs.setdefault("v", {})[(rid, hid, i)] = VariableLogEntry(
            access="write", value=value
        )
    return trace.freeze(), advice


def _load_epoch(backend, name="epoch-0"):
    with backend.reader(name) as reader:
        return read_epoch_stream(reader, name)


@settings(max_examples=25, deadline=None)
@given(st.lists(_values, min_size=1, max_size=3))
def test_fuzz_trace_advice_epoch_records(values):
    """Epoch records embed the trace events and the advice sections; an
    epoch without advice carries the trace alone."""
    trace, advice = _fuzz_bundle(values)
    backend = MemoryBackend()
    write_epoch_stored(backend, Epoch(index=0, trace=trace, advice=None))
    epoch = _load_epoch(backend)
    assert epoch.trace.events == trace.events and epoch.advice is None
    write_epoch_stored(backend, Epoch(index=0, trace=trace, advice=advice))
    epoch = _load_epoch(backend)
    assert epoch.trace.events == trace.events and epoch.advice == advice
    assert [e.index for e in iter_epochs_stored(backend)] == [0]


def test_large_payload_roundtrip():
    big = {"blob": "☃" * 50_000, "nested": [list(range(1000))] * 5}
    trace, advice = _fuzz_bundle([big])
    backend = MemoryBackend()
    write_epoch_stored(backend, Epoch(index=0, trace=trace, advice=advice))
    epoch = _load_epoch(backend)
    assert epoch.trace.events == trace.events
    assert epoch.advice == advice


@settings(max_examples=40, deadline=None)
@given(st.lists(_values, min_size=1, max_size=2), st.data())
def test_fuzz_single_byte_flip_never_decodes(values, data):
    trace, _ = _fuzz_bundle(values)
    backend = MemoryBackend()
    write_epoch_stored(backend, Epoch(index=0, trace=trace, advice=None))
    raw = backend.raw("epoch-0")
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    with pytest.raises(AdviceFormatError):
        _load_epoch(backend)


@settings(max_examples=40, deadline=None)
@given(st.lists(_values, min_size=1, max_size=2), st.data())
def test_fuzz_truncation_raises_or_yields_prefix(values, data):
    trace, _ = _fuzz_bundle(values)
    backend = MemoryBackend()
    write_epoch_stored(backend, Epoch(index=0, trace=trace, advice=None))
    raw = backend.raw("epoch-0")
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    del raw[cut:]
    try:
        got = _load_epoch(backend).trace
    except AdviceFormatError:
        return  # detected -- the common case
    # A cut at a record boundary is indistinguishable from a shorter
    # stream; it must decode to a strict prefix, never garbage.
    n = len(got.events)
    assert n < len(trace.events) and got.events == trace.events[:n]


def test_trace_stream_requires_meta_first():
    """A trace event ahead of its epoch's meta record is malformed."""
    backend = MemoryBackend()
    with backend.create("epoch-0", "epoch") as w:
        w.append(2, b'{"kind": "REQ"}')  # RT_EVENT before RT_EPOCH_META
    with pytest.raises(AdviceFormatError, match="no meta record"):
        _load_epoch(backend)


def test_wrong_stream_kind_rejected():
    backend = MemoryBackend()
    backend.create("epoch-0", "advice").seal()
    with pytest.raises(AdviceFormatError):
        _load_epoch(backend)
