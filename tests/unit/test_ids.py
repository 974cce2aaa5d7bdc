"""Unit tests for handler ids, labels, and operation references."""

import os
import pickle
import subprocess
import sys

import repro
from repro.core.ids import HandlerId, Label, OpRef, TxId, make_rid


def chain(*function_ids):
    """Build a linear activation chain and return the deepest handler."""
    hid = None
    for fid in function_ids:
        hid = HandlerId(fid, parent=hid, opnum=1)
    return hid


class TestHandlerId:
    def test_request_handler_has_no_parent(self):
        hid = HandlerId("handle_get")
        assert hid.is_request_handler
        assert hid.parent is None
        assert hid.depth() == 0

    def test_equality_is_structural(self):
        a = HandlerId("f", HandlerId("root"), 3)
        b = HandlerId("f", HandlerId("root"), 3)
        assert a == b
        assert hash(a) == hash(b)

    def test_differs_by_opnum(self):
        root = HandlerId("root")
        assert HandlerId("f", root, 1) != HandlerId("f", root, 2)

    def test_ancestors_nearest_first(self):
        deepest = chain("a", "b", "c")
        names = [h.function_id for h in deepest.ancestors()]
        assert names == ["b", "a"]

    def test_is_ancestor_of(self):
        a = HandlerId("a")
        b = HandlerId("b", a, 1)
        c = HandlerId("c", b, 2)
        assert a.is_ancestor_of(b)
        assert a.is_ancestor_of(c)
        assert b.is_ancestor_of(c)
        assert not c.is_ancestor_of(a)
        assert not a.is_ancestor_of(a), "ancestry is a strict order"

    def test_siblings_are_not_ancestors(self):
        root = HandlerId("root")
        left = HandlerId("f", root, 1)
        right = HandlerId("g", root, 2)
        assert not left.is_ancestor_of(right)
        assert not right.is_ancestor_of(left)

    def test_canonical_roundtrips_structure(self):
        deepest = chain("a", "b", "c")
        assert deepest.canonical() == (("a", 1), ("b", 1), ("c", 1))

    def test_canonical_is_sortable(self):
        root = HandlerId("root")
        hids = [HandlerId("f", root, i) for i in (3, 1, 2)]
        ordered = sorted(h.canonical() for h in hids)
        assert ordered == [h.canonical() for h in [
            HandlerId("f", root, 1), HandlerId("f", root, 2), HandlerId("f", root, 3)
        ]]

    def test_depth(self):
        assert chain("a", "b", "c").depth() == 2

    def test_intern_returns_the_one_equal_instance(self):
        built = HandlerId("f", HandlerId("root"), 3)
        shared = HandlerId.intern("f", HandlerId.intern("root"), 3)
        assert shared is HandlerId.intern("f", HandlerId("root"), 3)
        assert shared == built and shared is not built
        assert {built: "entry"}[shared] == "entry"
        assert shared != HandlerId.intern("f", HandlerId.intern("root"), 4)
        assert shared != ("f", shared.parent, 3)

    def test_hash_is_the_structural_hash_taken_once(self):
        hid = chain("a", "b", "c")
        assert hash(hid) == hash((hid.function_id, hid.parent, hid.opnum))
        assert hash(hid) == hid._hash

    def test_pickle_carries_no_hash_and_did_not_grow(self):
        hid = HandlerId("f", HandlerId("root"), 3)
        blob = pickle.dumps(hid, protocol=4)
        assert b"_hash" not in blob
        # The size before the hash was kept.  Not one byte more or less:
        # ``advice_size_bytes`` (Fig. 8, the benchmark's
        # ``advice_bytes_per_req``) measures advice by its pickled length.
        assert len(blob) == 114
        restored = pickle.loads(blob)
        assert restored == hid and hash(restored) == hash(hid)
        assert restored.parent._hash == hash(hid.parent)

    def test_pickled_under_another_hash_seed_still_finds_its_entry(self):
        """A spawned worker, or whoever wrote a persisted verdict cache,
        hashed under its own ``PYTHONHASHSEED``."""
        script = (
            "import pickle, sys\n"
            "from repro.core.ids import HandlerId\n"
            "hid = HandlerId.intern('f', HandlerId.intern('root'), 3)\n"
            "sys.stdout.write(pickle.dumps({hid: hash(hid)}).hex())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        hashes = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=60, check=True,
            )
            table = pickle.loads(bytes.fromhex(done.stdout))
            local = HandlerId("f", HandlerId("root"), 3)
            assert local in table
            (theirs,) = table
            assert hash(theirs) == hash(local)
            hashes.add(table[local])
        assert len(hashes) == 2, "the two writers hashed alike: seeds ignored?"


class TestLabel:
    def test_root_label(self):
        assert Label().path == ()

    def test_child_extends_path(self):
        assert Label((1,)).child(4).path == (1, 4)

    def test_prefix_is_proper(self):
        assert not Label((1, 2)).is_prefix_of(Label((1, 2)))

    def test_prefix_matches_ancestry(self):
        parent = Label((0,))
        child = parent.child(2)
        grandchild = child.child(0)
        assert parent.is_prefix_of(child)
        assert parent.is_prefix_of(grandchild)
        assert child.is_prefix_of(grandchild)
        assert not grandchild.is_prefix_of(parent)

    def test_siblings_not_prefixes(self):
        a = Label((0, 1))
        b = Label((0, 2))
        assert not a.is_prefix_of(b)
        assert not b.is_prefix_of(a)

    def test_longer_path_never_prefix_of_shorter(self):
        assert not Label((0, 1, 2)).is_prefix_of(Label((0, 1)))


class TestOpRefAndTxId:
    def test_opref_hashable_and_equal(self):
        hid = HandlerId("f")
        assert OpRef("r1", hid, 2) == OpRef("r1", hid, 2)
        assert len({OpRef("r1", hid, 2), OpRef("r1", hid, 2)}) == 1

    def test_txid_derived_from_start_coordinates(self):
        hid = HandlerId("f")
        assert TxId(hid, 3) == TxId(hid, 3)
        assert TxId(hid, 3) != TxId(hid, 4)


def test_make_rid_sorts_by_arrival():
    rids = [make_rid(i) for i in (0, 5, 10, 99, 100)]
    assert rids == sorted(rids)
