"""Kill-point matrix: crash anywhere, recover, hold the invariants.

The matrix replays a churn workload once per possible crash site —
before, during, and after every journal commit (including the host-side
window between the log force and the free-index publication), during
data and MFT writes, and during checkpoint snapshot writes — and after
every crash asserts the paper's deferred-free rule:

    **no extent is ever allocatable before the commit that freed it is
    durable** — every kill point either recovers to the pre-commit
    state (frees discarded, space orphaned) or completes the commit
    (frees replayed), never a state where an uncommitted free is
    allocatable.

Runs over a single filesystem volume and a 3-shard composite, plus the
CheckpointManager's own write path.
"""

import pytest

from crashsim import CrashClock, FaultyDevice, kill_point_matrix

from repro.backends.file_backend import FileBackend
from repro.backends.sharded import ShardedStore
from repro.disk.geometry import scaled_disk
from repro.errors import CrashPoint
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.persist import CheckpointManager, cross_check, rebuild_fs_free_index
from repro.units import KB, MB

#: Small log region so commits wrap the circular cursor mid-matrix.
CRASHY_FS_CONFIG_KWARGS = dict(
    mft_zone_bytes=1 * MB,
    log_bytes=64 * KB,
    commit_interval_ops=4,
    metadata_interval_events=0,
)


def recover_and_check(fs: SimFilesystem) -> None:
    """Mount-after-crash checks every kill point must pass."""
    # At crash time, non-durable frees must not be allocatable ...
    free_runs = list(fs.free_index)
    pending = fs.journal.pending_frees
    for ext in pending:
        assert not any(run.overlaps(ext) for run in free_runs), \
            f"uncommitted free {ext} was allocatable at crash time"
    replayable = fs.journal.replayable_frees
    report = fs.recover_after_crash()
    # ... recovery replays exactly the durable set and discards the rest.
    assert report.replayed == replayable
    assert report.discarded == pending
    fs.check_invariants()
    free_runs = list(fs.free_index)
    for ext in report.discarded:
        assert not any(run.overlaps(ext) for run in free_runs), \
            f"discarded free {ext} leaked into the free index"
    for ext in report.replayed:
        run = fs.free_index.run_at(ext.start)
        assert run is not None and run.contains_extent(ext), \
            f"replayed free {ext} missing from the free index"
    # The recovered free map must agree with a rebuild from the
    # extent maps — the torn/partial-state detector.
    cross_check(rebuild_fs_free_index(fs), fs.free_index,
                label="post-recovery rebuild")


class TestFilesystemKillMatrix:
    def test_every_kill_point_recovers(self):
        def build(clock: CrashClock) -> SimFilesystem:
            device = FaultyDevice(scaled_disk(24 * MB), clock=clock)
            fs = SimFilesystem(device, FsConfig(**CRASHY_FS_CONFIG_KWARGS))
            fs.crash_hook = clock.hook  # host-side commit kill points
            return fs

        def workload(fs: SimFilesystem) -> None:
            for i in range(6):
                name = f"f{i}"
                fs.create(name)
                fs.append(name, nbytes=96 * KB)
                fs.append(name, nbytes=64 * KB)
            for i in range(0, 6, 2):
                fs.delete(f"f{i}")
            fs.safe_write("f1", size=128 * KB)
            fs.safe_write("f3", size=192 * KB)
            fs.journal.commit()

        matrix = list(kill_point_matrix(build, workload))
        crashes = sum(1 for _, crashed, _ in matrix if crashed)
        assert crashes > 20, "matrix exercised too few crash sites"
        for k, crashed, fs in matrix:
            fs.crash_hook = None
            recover_and_check(fs)
            # The recovered volume must be usable: allocate new space.
            name = f"post-crash-{k}"
            fs.create(name)
            fs.append(name, nbytes=32 * KB)
            fs.journal.commit()
            fs.check_invariants()

    def test_torn_data_write_recovers(self):
        """A content-storing device torn mid-write still recovers."""
        def build(clock: CrashClock) -> SimFilesystem:
            device = FaultyDevice(scaled_disk(24 * MB), clock=clock,
                                  torn=True, store_data=True)
            fs = SimFilesystem(device, FsConfig(**CRASHY_FS_CONFIG_KWARGS))
            fs.crash_hook = clock.hook
            return fs

        def workload(fs: SimFilesystem) -> None:
            for i in range(4):
                fs.create(f"f{i}")
                fs.append(f"f{i}", data=bytes([i]) * 64 * KB)
            fs.delete("f0")
            fs.safe_write("f1", data=b"\xbe" * 96 * KB)
            fs.journal.commit()

        for _, crashed, fs in kill_point_matrix(build, workload):
            fs.crash_hook = None
            recover_and_check(fs)
            # Surviving files read back whole (lengths intact even when
            # the torn write scribbled a prefix somewhere).
            for name in fs.list_files():
                data = fs.read(name)
                assert data is not None
                assert len(data) == fs.file_size(name)


class TestShardedKillMatrix:
    def test_every_kill_point_recovers_across_shards(self):
        fs_config = FsConfig(**CRASHY_FS_CONFIG_KWARGS)

        def build(clock: CrashClock) -> ShardedStore:
            shards = []
            for _ in range(3):
                device = FaultyDevice(scaled_disk(16 * MB), clock=clock)
                backend = FileBackend(device, fs_config=fs_config,
                                      write_request=64 * KB)
                backend.fs.crash_hook = clock.hook
                shards.append(backend)
            return ShardedStore(shards, placement="hash")

        def workload(store: ShardedStore) -> None:
            for i in range(9):
                store.put(f"obj-{i}", size=64 * KB)
            for i in (1, 4, 7):
                store.overwrite(f"obj-{i}", size=96 * KB)
            for i in (0, 5):
                store.delete(f"obj-{i}")
            for shard in store.shards:
                shard.fs.journal.commit()

        matrix = list(kill_point_matrix(build, workload))
        crashes = sum(1 for _, crashed, _ in matrix if crashed)
        assert crashes > 20
        for _, crashed, store in matrix:
            for shard in store.shards:
                shard.fs.crash_hook = None
                recover_and_check(shard.fs)


class TestCheckpointWriteKillMatrix:
    """Crash during snapshot write: loads fall back, never mount torn."""

    FILES_V2 = {"a.bin": b"A" * 100, "b.bin": b"B" * 50, "c.bin": b"C"}

    def _labels(self, tmp_path):
        labels = []
        CheckpointManager(tmp_path / "probe",
                          fault_hook=labels.append).save(self.FILES_V2)
        return labels

    def test_every_write_boundary(self, tmp_path):
        labels = self._labels(tmp_path)
        assert "manifest" in labels and "published" in labels
        for k, label in enumerate(labels):
            directory = tmp_path / f"m{k}"
            CheckpointManager(directory).save({"a.bin": b"old"},
                                              meta={"age": 1})

            calls = CrashClock(k)
            manager = CheckpointManager(directory, fault_hook=calls.hook)
            try:
                manager.save(self.FILES_V2, meta={"age": 2})
                crashed = False
            except CrashPoint:
                crashed = True
            assert crashed
            latest = CheckpointManager(directory).load_latest()
            assert latest is not None, "a valid checkpoint must survive"
            if label == "published":
                # Crash after the atomic rename: the new one is live.
                assert latest.meta == {"age": 2}
                assert latest.read("a.bin") == b"A" * 100
            else:
                # Crash before publish: the old one is untouched.
                assert latest.meta == {"age": 1}
                assert latest.read("a.bin") == b"old"

    def test_crashed_save_is_swept_by_the_next(self, tmp_path):
        calls = CrashClock(1)
        manager = CheckpointManager(tmp_path, fault_hook=calls.hook)
        with pytest.raises(CrashPoint):
            manager.save(self.FILES_V2, meta={"age": 1})
        clean = CheckpointManager(tmp_path)
        clean.save(self.FILES_V2, meta={"age": 2})
        assert clean.load_latest().meta == {"age": 2}
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.endswith(".tmp")]
        assert len(leftovers) <= 1  # at most the crashed husk


class TestDeltaChainKillMatrix:
    """Crash during a *delta* save at every chain write boundary.

    The chain already holds ``full -> delta`` when the kill lands; a
    crash before the atomic publish must leave the intact chain
    mountable (the delta head replays through its full base), and a
    crash after must mount the new link.  Either way the next clean
    save extends or restarts the chain correctly.
    """

    def payload(self, age: int) -> dict[str, bytes]:
        base = bytearray(b"\x5a" * 8192)
        base[age * 101: age * 101 + 8] = b"age=%04d" % age
        return {"state.bin": bytes(base), "small.bin": bytes([age]) * 16}

    def chained(self, directory, **kwargs):
        return CheckpointManager(directory, keep=3, full_interval=3,
                                 **kwargs)

    def _labels(self, tmp_path):
        """Fault labels of a delta save, probed on an unarmed chain."""
        labels = []
        probe = self.chained(tmp_path / "probe")
        probe.save(self.payload(1), meta={"age": 1})
        probe.save(self.payload(2), meta={"age": 2})
        probe.fault_hook = labels.append
        probe.save(self.payload(3), meta={"age": 3})
        return labels

    def test_every_chain_write_boundary(self, tmp_path):
        labels = self._labels(tmp_path)
        assert "manifest" in labels and "published" in labels
        assert any(label.startswith("write:") for label in labels)
        for k, label in enumerate(labels):
            directory = tmp_path / f"m{k}"
            setup = self.chained(directory)
            setup.save(self.payload(1), meta={"age": 1})
            second = setup.save(self.payload(2), meta={"age": 2})
            assert second.parent_seq == 1  # the kill lands on a chain

            calls = CrashClock(k)
            manager = self.chained(directory, fault_hook=calls.hook)
            with pytest.raises(CrashPoint):
                manager.save(self.payload(3), meta={"age": 3})
            latest = self.chained(directory).load_latest()
            assert latest is not None, "a valid chain must survive"
            if label == "published":
                assert latest.meta == {"age": 3}
                expect = 3
            else:
                # The surviving head is the delta at seq 2; mounting it
                # replays through the full snapshot at seq 1.
                assert latest.meta == {"age": 2}
                assert latest.parent_seq == 1
                expect = 2
            assert latest.read("state.bin") == \
                self.payload(expect)["state.bin"]
            # The volume keeps running: the next clean save publishes a
            # mountable checkpoint whatever the crash left behind.
            after = self.chained(directory)
            saved = after.save(self.payload(4), meta={"age": 4})
            assert after.load_latest().meta == {"age": 4}
            assert saved.read("state.bin") == self.payload(4)["state.bin"]

    def test_torn_chain_head_falls_back_to_full(self, tmp_path):
        """Scribbling the delta head (a torn write that still published)
        must fall back to the full base, never mount the damage."""
        manager = self.chained(tmp_path)
        manager.save(self.payload(1), meta={"age": 1})
        head = manager.save(self.payload(2), meta={"age": 2})
        (head.path / "state.bin").write_bytes(b"scribble")
        latest = self.chained(tmp_path).load_latest()
        assert latest is not None and latest.meta == {"age": 1}
        assert latest.read("state.bin") == self.payload(1)["state.bin"]
