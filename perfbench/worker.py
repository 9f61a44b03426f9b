"""One iteration of one workload, in its own interpreter.

``run.py`` starts this script once per measured iteration, so every
iteration pays (and measures) interpreter start, imports, spec parsing
and ``build_store`` afresh.  Modes:

``setup``  stop at the first simulated write and report when it came;
``run``    the whole aging run, untraced;
``trace``  the whole aging run with the layer tracer installed.

The last line of standard output is one JSON object.  The first
simulated write is detected through the runner's public ``progress``
callback, whose ``bulk-load`` phase fires right after ``build_store``
and right before the bulk load's first ``put``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Store operations that count towards ``sim_ops_per_s``.
STORE_OPS = ("put", "get", "overwrite", "delete")
#: A reported p99 must have at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: An open-loop read sweep counts as saturated when its modelled wall
#: time is off ``reads / rate`` by more than this fraction.
SATURATION_TOLERANCE = 0.10
#: Per-device ``IoStats`` totals compared across runs.
IOSTAT_FIELDS = ("read_bytes", "write_bytes", "read_time_s", "write_time_s",
                 "cpu_time_s", "seeks", "requests")


class _SetupDone(Exception):
    """Raised from the progress callback to stop at the first write."""


class OpCounter:
    """Counts the top-level store operations a run issues.

    Wraps ``put``/``get``/``overwrite``/``delete`` on the top-level
    store's class; nested calls (a sharded store calling its shards'
    class) are not counted twice because only depth-0 calls count.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.bytes_written = 0
        self._depth = 0

    def install(self, cls: type) -> None:
        for name in STORE_OPS:
            setattr(cls, name, self._wrap(getattr(cls, name), name))

    def _wrap(self, method, name: str):
        counter = self
        writes = name in ("put", "overwrite")

        def counted(store, *args, **kwargs):
            top = counter._depth == 0
            counter._depth += 1
            try:
                result = method(store, *args, **kwargs)
            except Exception:
                if top:
                    counter.ops += 1
                    counter.failed += 1
                raise
            finally:
                counter._depth -= 1
            if top:
                counter.ops += 1
                if writes:
                    data = kwargs.get("data")
                    counter.bytes_written += (len(data) if data is not None
                                              else int(kwargs["size"]))
            return result

        counted.__name__ = method.__name__
        counted.__qualname__ = method.__qualname__
        return counted


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    ``VmHWM`` starts afresh at ``exec``.  ``ru_maxrss`` does not: it
    keeps the high-water mark of the parent that spawned this process,
    so it is only the fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _databases(store):
    for attr in ("db", "meta_db"):
        db = getattr(store, attr, None)
        if db is not None:
            yield db
    for shard in getattr(store, "shards", ()) or ():
        yield from _databases(shard)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in sorted(path.rglob("*"))
               if f.is_file())


def layer_counters(store, checkpoint_dir: Path | None) -> dict:
    """Modelled per-layer counters, read from public state only."""
    stats = store.store_stats()
    out: dict = {
        "iostats": [{f: getattr(dev.stats, f) for f in IOSTAT_FIELDS}
                    for dev in store.devices()],
        "store": {"retries": stats.retries, "failovers": stats.failovers,
                  "degraded_reads": stats.degraded_reads,
                  "objects": stats.objects, "live_bytes": stats.live_bytes},
        "bufferpool": {"hits": 0, "misses": 0},
        "events": None,
        "checkpoint_bytes": (_dir_bytes(checkpoint_dir)
                             if checkpoint_dir is not None else 0),
    }
    for db in _databases(store):
        out["bufferpool"]["hits"] += db.pool.hits
        out["bufferpool"]["misses"] += db.pool.misses
    sched = getattr(store, "scheduler", None)
    if getattr(sched, "is_event", False):
        out["events"] = {"submitted": sched.submitted,
                         "completed": sched.completed,
                         "max_queue_depth": sched.max_queue_depth,
                         "latency_count": sched.latency.count}
    return out


def _tail_samples(count: int) -> int:
    """Samples strictly beyond the nearest-rank p99 of ``count``."""
    return count - -(-99 * count // 100)  # count - ceil(0.99 * count)


def gates(workload, runner, result, counters: dict,
          checkpoint_dir: Path | None) -> list[str]:
    """Correctness checks on one finished run; returns the failures."""
    failures: list[str] = []
    store, state = runner.store, runner.state
    events = counters["events"]
    if events is not None and not (
            events["submitted"] == events["completed"]
            == events["latency_count"]):
        failures.append(f"event books do not balance: {events}")
    for sample in result.samples:
        if sample.tenant_lat:
            tenant_sum = sum(int(s["count"])
                             for s in sample.tenant_lat.values())
            if tenant_sum != int(sample.scenario_lat.get("count", -1)):
                failures.append(
                    f"age {sample.age:g}: tenant counts sum to {tenant_sum}"
                    f", interval count is {sample.scenario_lat.get('count')}")
    replicas = max(1, int(getattr(store, "replicas", 1)))
    tracked = state.tracker.live_bytes * replicas
    if tracked != counters["store"]["live_bytes"]:
        failures.append(f"tracked live bytes x{replicas} = {tracked}, "
                        f"store_stats says {counters['store']['live_bytes']}")
    if workload.rate > 0:
        expected = workload.reads_per_sample / workload.rate
        for sample in result.samples:
            off = abs(sample.read_wall_s - expected) / expected
            if off > SATURATION_TOLERANCE:
                failures.append(
                    f"age {sample.age:g}: read sweep saturated, wall "
                    f"{sample.read_wall_s:.3f} s vs {expected:.3f} s "
                    f"({off:.1%} > {SATURATION_TOLERANCE:.0%})")
        final = result.samples[-1]
        for label, count in (("read p99", final.read_lat_count),
                             ("churn p99",
                              int(final.scenario_lat.get("count", 0)))):
            if _tail_samples(count) < MIN_TAIL_SAMPLES:
                failures.append(f"{label} rests on {count} samples, fewer "
                                f"than {MIN_TAIL_SAMPLES} beyond it")
    if checkpoint_dir is not None:
        from repro.persist import CheckpointManager

        latest = CheckpointManager(
            checkpoint_dir, keep=runner.checkpoint_keep,
            full_interval=runner.checkpoint_full_interval).load_latest()
        done = None if latest is None else latest.meta.get("done_ages")
        if done != list(workload.ages):
            failures.append("load_latest() did not verify the final "
                            f"checkpoint (got done_ages={done})")
    return failures


def modelled_metrics(workload, result) -> dict:
    """End-to-end modelled metrics at the final sampled age."""
    from repro.units import MB

    final = result.samples[-1]
    out = {
        "frag_per_object": final.fragments_per_object,
        "read_mbps": final.read_wall_mbps / MB,
        "write_mbps": final.write_mbps / MB,
    }
    if final.read_lat_count:
        out["read_p50_ms"] = final.read_lat_p50_s * 1e3
        out["read_p99_ms"] = final.read_lat_p99_s * 1e3
        out["read_samples"] = final.read_lat_count
    if final.scenario_lat:
        out["churn_p99_ms"] = final.scenario_lat["p99_s"] * 1e3
        out["churn_samples"] = int(final.scenario_lat["count"])
    return out


def run_once(workload_name: str, seed: int, mode: str,
             work_dir: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, build_config
    from repro.core.experiment import ExperimentRunner

    workload = WORKLOADS[workload_name]
    checkpoint_dir = work_dir / "checkpoints" if workload.checkpoint else None
    runner = ExperimentRunner(build_config(workload, seed),
                              checkpoint_dir=checkpoint_dir)
    counter = OpCounter()
    tracer = None
    marks: dict = {}

    def on_progress(phase: str, _value: float) -> None:
        if phase != "bulk-load" or "first_write" in marks:
            return
        if mode == "setup":
            marks["first_write"] = time.perf_counter()
            raise _SetupDone
        counter.install(type(runner.store))
        if mode == "trace":
            nonlocal tracer
            from tracer import LAYER_ENTRY_POINTS, STORE_LAYER, Tracer

            tracer = Tracer(list(LAYER_ENTRY_POINTS), store_layer=STORE_LAYER)
            tracer.instrument(LAYER_ENTRY_POINTS, package="repro")
            marks["t0_ns"] = time.perf_counter_ns()
        marks["first_write"] = time.perf_counter()

    runner.progress = on_progress
    out: dict = {"mode": mode}
    try:
        result = runner.run()
    except _SetupDone:
        return {"mode": mode, "first_write": marks["first_write"]}
    except Exception:
        # The boundary of one iteration: report the failure, do not die.
        out.update(first_write=marks.get("first_write"), ops=counter.ops,
                   failed=counter.failed, error=traceback.format_exc())
        return out
    end = time.perf_counter()
    if tracer is not None:
        t1_ns = time.perf_counter_ns()
        tracer.uninstrument()
        out["trace"] = tracer.summary(marks["t0_ns"], t1_ns)
        out["trace"]["raised"] = tracer.raised_by_layer()
        spans_path = work_dir / "spans.bin"
        tracer.write(spans_path, marks["t0_ns"])
        out["trace"]["spans_file"] = str(spans_path)
        out["run_s"] = (t1_ns - marks["t0_ns"]) / 1e9
    else:
        out["run_s"] = end - marks["first_write"]
    out["peak_rss_mb"] = peak_rss_mb()
    counters = layer_counters(runner.store, checkpoint_dir)
    out.update(
        first_write=marks["first_write"],
        ops=counter.ops,
        failed=counter.failed,
        bytes_written=counter.bytes_written,
        counters=counters,
        modelled=modelled_metrics(workload, result),
        record=result.to_dict(),
        gates=gates(workload, runner, result, counters, checkpoint_dir),
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        out = run_once(args.workload, args.seed, args.mode, args.work_dir)
    finally:
        checkpoints = args.work_dir / "checkpoints"
        if checkpoints.exists():
            shutil.rmtree(checkpoints)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
