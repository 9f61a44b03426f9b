"""Property tests: snapshot -> restore -> continue == uninterrupted.

Random get/put/delete streams drive a filesystem-backed store; at a
random cut point the whole store state crosses a serialization boundary
(pickle for the object graph, plus the byte-stable free-index and
journal snapshots, cross-checked against each other on the way back).
The restored store then finishes the stream, and every observable —
free map, O(1) accounting, key order, per-object extent maps, modelled
device time and IoStats — must be identical to a store that ran the
stream uninterrupted.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.file_backend import FileBackend
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.persist import (
    cross_check,
    decode_free_index,
    encode_free_index,
    encode_journal,
    rebuild_fs_free_index,
    verify_journal,
)
from repro.units import KB, MB

VOLUME = 48 * MB
KEYS = 12


@st.composite
def op_streams(draw):
    """(ops, cut): a random op stream and where to interrupt it."""
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["put", "overwrite", "delete"]),
            st.integers(min_value=0, max_value=KEYS - 1),
            st.integers(min_value=1, max_value=24),  # size in 8 KB units
        ),
        min_size=1, max_size=40,
    ))
    cut = draw(st.integers(min_value=0, max_value=len(ops)))
    return ops, cut


def make_store() -> FileBackend:
    return FileBackend(BlockDevice(scaled_disk(VOLUME)),
                       write_request=64 * KB)


def apply_ops(store: FileBackend, ops) -> None:
    """Deterministic interpretation: invalid ops are skipped the same
    way on every store, so two replays stay in lockstep."""
    for kind, idx, size_units in ops:
        key = f"k{idx}"
        size = size_units * 8 * KB
        if kind == "put":
            if not store.exists(key):
                store.put(key, size=size)
        elif kind == "overwrite":
            if store.exists(key):
                store.overwrite(key, size=size)
        elif store.exists(key):
            store.delete(key)


def assert_identical(a: FileBackend, b: FileBackend) -> None:
    cross_check(a.fs.free_index, b.fs.free_index)
    assert a.fs.free_index.total_free == b.fs.free_index.total_free
    assert a.fs.free_index.largest() == b.fs.free_index.largest()
    assert a.keys() == b.keys()  # insertion order survives the restore
    for key in a.keys():
        assert a.object_extents(key) == b.object_extents(key)
        assert a.meta(key).size == b.meta(key).size
    assert a.fs.journal.snapshot_state() == b.fs.journal.snapshot_state()
    for dev_a, dev_b in zip(a.devices(), b.devices()):
        assert dev_a.clock_s == dev_b.clock_s
        assert dev_a.stats == dev_b.stats
        assert dev_a.head_position == dev_b.head_position


@given(stream=op_streams())
@settings(max_examples=30, deadline=None)
def test_snapshot_restore_continue_is_identical(stream):
    ops, cut = stream
    uninterrupted = make_store()
    apply_ops(uninterrupted, ops)

    victim = make_store()
    apply_ops(victim, ops[:cut])
    # The serialization boundary: full state + integrity snapshots.
    state_blob = pickle.dumps(victim)
    index_blob = encode_free_index(victim.fs.free_index)
    journal_blob = encode_journal(victim.fs.journal)
    del victim

    restored: FileBackend = pickle.loads(state_blob)
    snapshot = decode_free_index(index_blob)
    cross_check(snapshot, restored.fs.free_index)
    verify_journal(restored.fs.journal, journal_blob)
    cross_check(rebuild_fs_free_index(restored.fs), restored.fs.free_index)

    apply_ops(restored, ops[cut:])
    assert_identical(uninterrupted, restored)
    restored.fs.check_invariants()


@given(stream=op_streams())
@settings(max_examples=15, deadline=None)
def test_snapshot_is_byte_stable_across_the_boundary(stream):
    """Encoding the restored index reproduces the original bytes."""
    ops, cut = stream
    store = make_store()
    apply_ops(store, ops[:cut])
    blob = encode_free_index(store.fs.free_index)
    assert encode_free_index(decode_free_index(blob)) == blob
