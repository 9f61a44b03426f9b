"""Tests for the persistence layer: snapshots, rebuilds, checkpoints.

Covers the byte-stable binary formats (round trip, determinism,
torn-blob rejection), the rebuild-from-extent-maps path and its
cross-check, and the CheckpointManager's atomic-publish/fallback
behaviour.  Crash-driven coverage lives in ``test_crash_matrix.py``.
"""

import random
import struct
import zlib

import pytest

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError, SnapshotError
from repro.fs.filesystem import SimFilesystem
from repro.fs.journal import Journal, JournalState
from repro.persist import (
    CheckpointManager,
    cross_check,
    decode_free_index,
    decode_journal_state,
    encode_free_index,
    encode_journal,
    fs_components,
    rebuild_fs_free_index,
    restore_journal,
    verify_journal,
)
from repro.units import KB, MB

CAPACITY = 64 * MB


def churned_index(seed: int = 3) -> FreeExtentIndex:
    """A free index with a few dozen runs from random carves/frees."""
    index = FreeExtentIndex(CAPACITY)
    rng = random.Random(seed)
    allocated = []
    for _ in range(300):
        if allocated and rng.random() < 0.4:
            index.add(allocated.pop(rng.randrange(len(allocated))))
        else:
            run = index.first_fit(rng.randrange(1, 64) * KB,
                                  min_start=rng.randrange(CAPACITY))
            if run is None:
                continue
            taken, _ = run.take_front(min(run.length, 32 * KB))
            index.remove(taken)
            allocated.append(taken)
    index.check_invariants()
    return index


class TestFreeIndexSnapshot:
    def test_round_trip(self):
        index = churned_index()
        blob = encode_free_index(index)
        restored = decode_free_index(blob)
        assert list(restored) == list(index)
        assert restored.total_free == index.total_free
        assert restored.largest() == index.largest()

    def test_byte_stable(self):
        """Same free map -> same bytes; decode/encode is the identity."""
        blob = encode_free_index(churned_index())
        assert encode_free_index(decode_free_index(blob)) == blob

    def test_empty_index(self):
        index = FreeExtentIndex(CAPACITY, initially_free=False)
        restored = decode_free_index(encode_free_index(index))
        assert len(restored) == 0 and restored.capacity == CAPACITY

    def test_truncated_blob_rejected(self):
        blob = encode_free_index(churned_index())
        with pytest.raises(SnapshotError):
            decode_free_index(blob[: len(blob) // 2])

    def test_bit_flip_rejected(self):
        blob = bytearray(encode_free_index(churned_index()))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(SnapshotError):
            decode_free_index(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_free_index(churned_index()))
        blob[:4] = b"XXXX"
        with pytest.raises(SnapshotError):
            decode_free_index(bytes(blob))


class TestJournalSnapshot:
    def make_journal(self):
        device = BlockDevice(scaled_disk(16 * MB))
        index = FreeExtentIndex(16 * MB, initially_free=False)
        return Journal(device, index, log_base=0, log_size=1 * MB,
                       commit_interval_ops=10_000), index

    def test_round_trip_and_verify(self):
        journal, _ = self.make_journal()
        journal.log_operation(frees=[Extent(2 * MB, 1 * MB)])
        journal.log_operation()
        blob = encode_journal(journal)
        other, _ = self.make_journal()
        state = restore_journal(other, blob)
        assert other.snapshot_state() == state == journal.snapshot_state()
        verify_journal(other, blob)

    def test_geometry_mismatch_rejected(self):
        journal, _ = self.make_journal()
        blob = encode_journal(journal)
        device = BlockDevice(scaled_disk(16 * MB))
        index = FreeExtentIndex(16 * MB, initially_free=False)
        other = Journal(device, index, log_base=0, log_size=2 * MB,
                        commit_interval_ops=4)
        with pytest.raises(SnapshotError):
            restore_journal(other, blob)

    def test_verify_detects_divergence(self):
        journal, _ = self.make_journal()
        blob = encode_journal(journal)
        journal.log_operation()
        with pytest.raises(SnapshotError):
            verify_journal(journal, blob)

    def test_torn_blob_rejected(self):
        journal, _ = self.make_journal()
        journal.log_operation(frees=[Extent(2 * MB, 1 * MB)])
        blob = encode_journal(journal)
        with pytest.raises(SnapshotError):
            decode_journal_state(blob[:-3])


class TestPinnedSnapshotBytes:
    """The RFXS/RJLS layouts, pinned byte for byte.

    Checkpoints written by earlier builds must keep decoding, so these
    blobs are fixed constants rather than round trips: any change to a
    header field, its width, or the run encoding fails here.
    """

    FREE_INDEX_HEX = (
        "52465853" "0100" "00" "00" "0000100000000000" "0400000000000000"
        "0000000000000000" "0010000000000000"
        "0000010000000000" "0030000000000000"
        "00b0040000000000" "0100000000000000"
        "0000080000000000" "0000080000000000"
        "695323b7"
    )
    JOURNAL_HEX = (
        "524a4c53" "0100" "0000" "0000400000000000" "0000100000000000"
        "0010000000000000" "0030000000000000" "01000000"
        "0500000000000000" "1100000000000000" "01000000" "02000000"
        "02000000"
        "0000a00000000000" "0000020000000000"
        "0000800000000000" "0000010000000000"
        "0000900000000000" "0010000000000000"
        "9cef0719"
    )

    @staticmethod
    def free_index() -> FreeExtentIndex:
        index = FreeExtentIndex(1 * MB, initially_free=False)
        for start, length in ((0, 4 * KB), (64 * KB, 12 * KB),
                              (300 * KB, 1), (512 * KB, 512 * KB)):
            index.add(Extent(start, length))
        return index

    def test_free_index_bytes(self):
        blob = bytes.fromhex(self.FREE_INDEX_HEX)
        assert encode_free_index(self.free_index()) == blob
        assert list(decode_free_index(blob)) == list(self.free_index())

    def test_journal_bytes(self):
        journal = Journal(BlockDevice(scaled_disk(16 * MB)),
                          FreeExtentIndex(16 * MB, initially_free=False),
                          log_base=4 * MB, log_size=1 * MB,
                          commit_interval_ops=3)
        state = JournalState(
            cursor=12 * KB, ops_since_commit=1, buffered_records=2,
            commits=5, logged_ops=17,
            pending=(Extent(10 * MB, 128 * KB),),
            replayable=(Extent(8 * MB, 64 * KB), Extent(9 * MB, 4 * KB)))
        journal.restore_state(state)
        blob = bytes.fromhex(self.JOURNAL_HEX)
        assert encode_journal(journal) == blob
        assert decode_journal_state(blob)[1] == state

    def test_unknown_engine_byte_rejected(self):
        """Byte 6 names the engine; only 0 exists.  A blob naming
        another engine is refused even when its checksum is valid."""
        body = bytearray(bytes.fromhex(self.FREE_INDEX_HEX)[:-4])
        body[6] = 1
        blob = bytes(body) + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(SnapshotError, match="engine"):
            decode_free_index(blob)


def aged_fs(seed: int = 5) -> SimFilesystem:
    device = BlockDevice(scaled_disk(48 * MB))
    fs = SimFilesystem(device)
    rng = random.Random(seed)
    names = []
    for i in range(40):
        name = f"f{i}"
        fs.create(name)
        for _ in range(rng.randrange(1, 5)):
            fs.append(name, nbytes=rng.randrange(1, 5) * 64 * KB)
        names.append(name)
    for name in rng.sample(names, 12):
        fs.delete(name)
    return fs


class TestRebuild:
    def test_rebuild_matches_live_index(self):
        fs = aged_fs()
        cross_check(rebuild_fs_free_index(fs), fs.free_index)
        # ... including while frees are parked in the journal.
        assert fs.journal.pending_free_count >= 0
        fs.journal.commit()
        cross_check(rebuild_fs_free_index(fs), fs.free_index)

    def test_rebuild_detects_double_counted_extent(self):
        fs = aged_fs()
        # Corrupt the model: claim a free run is also file data.
        run = next(iter(fs.free_index))
        record = fs.table.lookup(fs.list_files()[0])
        record.extents.append(Extent(run.start, min(run.length, 4 * KB)))
        with pytest.raises(SnapshotError):
            rebuilt = rebuild_fs_free_index(fs)
            cross_check(rebuilt, fs.free_index)

    def test_cross_check_detects_drift(self):
        fs = aged_fs()
        rebuilt = rebuild_fs_free_index(fs)
        run = next(iter(rebuilt))
        rebuilt.remove(Extent(run.start, min(run.length, 1 * KB)))
        with pytest.raises(SnapshotError):
            cross_check(rebuilt, fs.free_index)


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"a.bin": b"alpha"}, meta={"age": 1})
        ckpt = manager.save({"a.bin": b"beta", "b.bin": b"bravo"},
                            meta={"age": 2})
        latest = manager.load_latest()
        assert latest is not None
        assert latest.seq == ckpt.seq
        assert latest.meta == {"age": 2}
        assert latest.read("a.bin") == b"beta"
        assert sorted(latest.names()) == ["a.bin", "b.bin"]

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "new").load_latest() is None

    def test_prune_keeps_latest_two(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for age in range(5):
            manager.save({"a.bin": bytes([age])}, meta={"age": age})
        seqs = [seq for seq, _ in manager._published()]
        assert len(seqs) == 2 and seqs[-1] == 5

    def test_torn_file_falls_back_to_previous(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"a.bin": b"good"}, meta={"age": 1})
        second = manager.save({"a.bin": b"newer"}, meta={"age": 2})
        (second.path / "a.bin").write_bytes(b"torn!")
        latest = manager.load_latest()
        assert latest is not None and latest.meta == {"age": 1}

    def test_missing_manifest_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"a.bin": b"good"}, meta={"age": 1})
        second = manager.save({"a.bin": b"newer"}, meta={"age": 2})
        (second.path / "MANIFEST.NAME").unlink(missing_ok=True)
        (second.path / "MANIFEST.json").unlink()
        latest = manager.load_latest()
        assert latest is not None and latest.meta == {"age": 1}

    def test_everything_torn_loads_none(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=1)
        ckpt = manager.save({"a.bin": b"only"}, meta={})
        (ckpt.path / "a.bin").unlink()
        assert manager.load_latest() is None

    def test_rejects_path_like_names(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(ConfigError):
            manager.save({"../evil": b""})
        with pytest.raises(ConfigError):
            manager.save({"MANIFEST.json": b""})

    @pytest.mark.parametrize("scribble", [
        '"a string, not an object"',
        '{"version": 1, "seq": "x", "files": {}}',
        '{"version": 1, "seq": 2, "files": {"a.bin": "not-a-dict"}}',
        '{"version": 1, "seq": 2, "files": {"a.bin": {"bytes": "NaN"}}}',
        '{"version": 1, "seq": 2, "meta": [], "files": {}}',
    ])
    def test_misshapen_manifest_falls_back(self, tmp_path, scribble):
        """JSON that parses but has the wrong shape is torn state: the
        walk must skip it, not crash with a TypeError."""
        manager = CheckpointManager(tmp_path)
        manager.save({"a.bin": b"good"}, meta={"age": 1})
        second = manager.save({"a.bin": b"newer"}, meta={"age": 2})
        (second.path / "MANIFEST.json").write_text(scribble)
        latest = manager.load_latest()
        assert latest is not None and latest.meta == {"age": 1}

    def test_verified_blobs_are_cached(self, tmp_path):
        """load() verifies each file once; consumer reads must not
        re-read from disk (resume reads state.pkl right after load)."""
        manager = CheckpointManager(tmp_path)
        manager.save({"a.bin": b"payload"}, meta={})
        latest = manager.load_latest()
        (latest.path / "a.bin").unlink()
        assert latest.read("a.bin") == b"payload"

    def test_manifest_seq_must_match_directory_name(self, tmp_path):
        """A copied/renamed checkpoint directory must not verify: its
        manifest seq disagrees with the name load derives seq from."""
        import shutil

        manager = CheckpointManager(tmp_path)
        first = manager.save({"a.bin": b"one"}, meta={"age": 1})
        shutil.copytree(first.path, tmp_path / "ckpt-000009")
        with pytest.raises(SnapshotError, match="does not match"):
            manager.load(tmp_path / "ckpt-000009")
        # load_latest skips the impostor and mounts the real one.
        latest = manager.load_latest()
        assert latest is not None and latest.seq == first.seq


def payloads(age: int) -> dict[str, bytes]:
    """Checkpoint-shaped files: a large mostly-stable blob plus a
    small one, both varying with ``age``."""
    base = bytearray(bytes(range(256)) * 64)  # 16 KB
    base[age * 37: age * 37 + 4] = b"edit"
    return {"state.bin": bytes(base), "meta.bin": f"age={age}".encode()}


class TestDeltaChains:
    def chained(self, tmp_path, *, keep=2, full_interval=3):
        return CheckpointManager(tmp_path, keep=keep,
                                 full_interval=full_interval)

    def encodings(self, manager):
        """[(seq, parent_seq)] for every published checkpoint."""
        out = []
        for seq, path in manager._published():
            out.append((seq, manager._manifest_parent_seq(path)))
        return out

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            CheckpointManager(tmp_path, keep=0)
        with pytest.raises(ConfigError):
            CheckpointManager(tmp_path, full_interval=0)
        with pytest.raises(ConfigError, match="keep must be >= 2"):
            CheckpointManager(tmp_path, keep=1, full_interval=2)

    def test_cadence_and_round_trip(self, tmp_path):
        """full_interval=3 publishes full, delta, delta, full, ... and
        every checkpoint reads back its exact content."""
        manager = self.chained(tmp_path, keep=10)
        for age in range(1, 8):
            manager.save(payloads(age), meta={"age": age})
        links = dict(self.encodings(manager))
        assert [links[seq] for seq in range(1, 8)] == \
            [None, 1, 2, None, 4, 5, None]
        for seq in range(1, 8):
            ckpt = manager.load(tmp_path / f"ckpt-{seq:06d}")
            assert ckpt.read("state.bin") == payloads(seq)["state.bin"]
            assert ckpt.read("meta.bin") == payloads(seq)["meta.bin"]

    def test_delta_entries_are_smaller(self, tmp_path):
        manager = self.chained(tmp_path)
        full = manager.save(payloads(1), meta={"age": 1})
        delta = manager.save(payloads(2), meta={"age": 2})
        assert delta.parent_seq == full.seq
        entry = delta.files["state.bin"]
        assert entry["encoding"] == "delta"
        assert entry["bytes"] < full.files["state.bin"]["bytes"]
        assert entry["content_bytes"] == len(payloads(2)["state.bin"])

    def test_fresh_manager_continues_chain(self, tmp_path):
        """A new process (no _last cache) deltas against what it loads."""
        self.chained(tmp_path).save(payloads(1), meta={"age": 1})
        second = self.chained(tmp_path).save(payloads(2), meta={"age": 2})
        assert second.parent_seq == 1

    def test_schema_change_cuts_chain(self, tmp_path):
        manager = self.chained(tmp_path)
        manager.save(payloads(1), meta={"schema": "v1"})
        ckpt = manager.save(payloads(2), meta={"schema": "v2"})
        assert ckpt.parent_seq is None

    def test_retention_keeps_live_chain_ancestors(self, tmp_path):
        """keep=2 must retain the full snapshots the retained delta
        heads replay through, even beyond the newest ``keep``."""
        manager = self.chained(tmp_path, keep=2, full_interval=3)
        for age in range(1, 8):
            manager.save(payloads(age), meta={"age": age})
        seqs = [seq for seq, _ in manager._published()]
        # Heads 6 (delta) and 7 (full); 6 needs 5 needs 4 (full).
        assert seqs == [4, 5, 6, 7]
        for seq in (6, 7):
            ckpt = manager.load(tmp_path / f"ckpt-{seq:06d}")
            assert ckpt.read("meta.bin") == payloads(seq)["meta.bin"]

    def test_torn_delta_falls_back_to_full(self, tmp_path):
        manager = self.chained(tmp_path, keep=4, full_interval=4)
        for age in range(1, 4):
            manager.save(payloads(age), meta={"age": age})
        (tmp_path / "ckpt-000003" / "state.bin").write_bytes(b"torn")
        latest = manager.load_latest()
        assert latest is not None and latest.meta == {"age": 2}

    def test_torn_full_breaks_dependent_deltas(self, tmp_path):
        """Tearing the chain's base must invalidate every delta that
        replays through it, not just the base itself."""
        manager = self.chained(tmp_path, keep=4, full_interval=4)
        for age in range(1, 4):
            manager.save(payloads(age), meta={"age": age})
        (tmp_path / "ckpt-000001" / "state.bin").write_bytes(b"torn")
        assert manager.load_latest() is None

    def test_save_after_torn_head_cuts_chain(self, tmp_path):
        """A save whose predecessor is torn must go full rather than
        delta against an older checkpoint (which would fork the chain)."""
        manager = self.chained(tmp_path, keep=4, full_interval=4)
        manager.save(payloads(1), meta={"age": 1})
        second = manager.save(payloads(2), meta={"age": 2})
        (second.path / "state.bin").write_bytes(b"torn")
        manager._last = None  # a fresh process would not have the cache
        third = manager.save(payloads(3), meta={"age": 3})
        assert third.parent_seq is None
        assert third.read("state.bin") == payloads(3)["state.bin"]

    def test_full_interval_one_never_deltas(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3, full_interval=1)
        for age in range(1, 4):
            manager.save(payloads(age), meta={"age": age})
        assert all(link is None for _, link in self.encodings(manager))

    def test_version1_manifest_still_loads(self, tmp_path):
        """Pre-delta manifests (no parent_seq/encoding keys) are valid
        all-full checkpoints."""
        import json

        manager = CheckpointManager(tmp_path)
        ckpt = manager.save({"a.bin": b"legacy"}, meta={"age": 1})
        manifest = json.loads((ckpt.path / "MANIFEST.json").read_text())
        manifest["version"] = 1
        del manifest["parent_seq"]
        for info in manifest["files"].values():
            del info["encoding"]
        (ckpt.path / "MANIFEST.json").write_text(json.dumps(manifest))
        latest = manager.load_latest()
        assert latest is not None and latest.read("a.bin") == b"legacy"


class TestFsComponents:
    def test_filesystem_backend_has_one(self, file_store):
        assert [label for label, _ in fs_components(file_store)] == ["vol0"]

    def test_blob_backend_has_none(self, blob_store):
        assert fs_components(blob_store) == []

    def test_sharded_store_has_one_per_shard(self):
        from repro.backends.registry import build_store
        from repro.backends.spec import StoreSpec

        store = build_store(StoreSpec("filesystem", volume_bytes=96 * MB,
                                      shards=3))
        labels = [label for label, _ in fs_components(store)]
        assert labels == ["shard0", "shard1", "shard2"]
