"""The repo benchmark: aging workloads timed end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py                       # every workload, both runs
    python3 perfbench/run.py --workload paper_fs --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cdn_sharded --seed 3 --trace 1

``--trace 0`` measures the end-to-end metrics: it runs the workload in
fresh interpreters (``worker.py``) until ``--seconds`` have passed,
takes medians of the iterations' host times scaled by the reference
kernel timed around each (``reference.py``), reads the modelled metrics
from the run record and checks every iteration's outputs.  ``--trace 1``
runs one untraced and one traced iteration per round and reports the
per-layer metrics.  Workloads and the layer map are described in
``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every correctness check passed, 1 when one failed, and 2
when the checkout has no simulator to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: checkpoints and span files.
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from tracer import LAYER_ENTRY_POINTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up time is the median of at least this many set-ups per run.
SETUP_SAMPLES = 7
#: Every ``--trace 0`` run compares at least this many iterations.
MIN_ITERATIONS = 2
#: One iteration may take at most this long before it is killed.
ITERATION_TIMEOUT_S = 150

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("frag_per_object", "fragments/object"),
    ("read_mbps", "MB/s"),
    ("write_mbps", "MB/s"),
)
#: Modelled metrics only an open-loop event-queue workload has; printed
#: beside their sample counts and checked, not part of the JSON result.
OPEN_LOOP_METRICS = (
    ("read_p50_ms", "ms", "read_samples"),
    ("read_p99_ms", "ms", "read_samples"),
    ("churn_p99_ms", "ms", "churn_samples"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric of a ``--trace 1`` run."""
    names: list[tuple[str, str]] = []
    for layer in LAYER_ENTRY_POINTS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [
        ("unattributed.self_s", "s"),
        ("trace.run_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
        ("disk.requests", "count"),
        ("disk.seeks", "count"),
        ("disk.busy_s", "s"),
        ("disk.write_amp", "ratio"),
        ("db.bufferpool_hit_rate", "ratio"),
        ("disk.events.submitted", "count"),
        ("disk.events.max_queue_depth", "count"),
        ("disk.faults.injected", "count"),
        ("backends.retries", "count"),
        ("backends.failovers", "count"),
        ("backends.degraded_reads", "count"),
        ("persist.checkpoint_bytes", "bytes"),
    ]
    return names


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, mode: str, work_dir: Path) -> dict:
    """Run one ``worker.py`` iteration and return its JSON report.

    ``setup_s`` is measured from just before the interpreter is started
    to the first simulated write (``time.perf_counter`` is the
    system-wide monotonic clock, so the two processes share it).
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work-dir", str(work_dir)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"mode": mode,
                "error": f"iteration exceeded {ITERATION_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode, "error": proc.stderr.strip()[-2000:]
                or f"worker exited {proc.returncode}"}
    out = json.loads(lines[-1])
    if out.get("first_write") is not None:
        out["setup_s"] = out["first_write"] - started
    return out


#: Fields of an iteration report that are modelled, so must repeat
#: bit for bit for one seed.
MODELLED_FIELDS = ("ops", "failed", "bytes_written", "counters", "modelled",
                   "record")


def check_iterations(iterations: list[dict]) -> list[str]:
    """Correctness failures across a run's iterations."""
    failures: list[str] = []
    for i, it in enumerate(iterations):
        if "error" in it:
            failures.append(f"iteration {i} ({it['mode']}) failed:\n"
                            f"{it['error']}")
        failures += [f"iteration {i}: {msg}" for msg in it.get("gates", ())]
    done = [it for it in iterations if "error" not in it]
    for i, it in enumerate(done[1:], start=1):
        for field in MODELLED_FIELDS:
            if it[field] != done[0][field]:
                failures.append(f"modelled field {field!r} of iteration {i} "
                                "differs from iteration 0")
    return failures


def _budget(seconds: float, minimum: int):
    """Yield once per round: at least ``minimum`` rounds, then more only
    while another round as long as the last one would end within
    ``seconds`` of the first."""
    began = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds < minimum or time.perf_counter() - began + last <= seconds:
        started = time.perf_counter()
        yield rounds
        last = time.perf_counter() - started
        rounds += 1


def _work_dir(workload: str, seed: int) -> Path:
    path = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


class _ScaledSpawner:
    """Spawns iterations with the reference kernel timed around each.

    Every iteration gets ``scale = reference.NOMINAL_S / k``, where
    ``k`` is the mean of the kernel timings just before and just after
    it; its host times are multiplied by ``scale`` (see reference.py).
    """

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        self.args = (workload, seed)
        self.work_dir = work_dir
        self.kernel_s = [reference.timed()]

    def __call__(self, mode: str) -> dict:
        out = spawn(*self.args, mode, self.work_dir)
        self.kernel_s.append(reference.timed())
        out["scale"] = reference.NOMINAL_S / statistics.fmean(
            self.kernel_s[-2:])
        return out


def measure_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 0``: iterate for ``seconds``; host medians + checks."""
    work = _work_dir(workload, seed)
    try:
        spawn_scaled = _ScaledSpawner(workload, seed, work)
        iterations: list[dict] = []
        for _ in _budget(seconds, MIN_ITERATIONS):
            iterations.append(spawn_scaled("run"))
            if "error" in iterations[-1]:
                break
        setups = [(it["setup_s"], it["scale"]) for it in iterations
                  if "setup_s" in it]
        while len(setups) < SETUP_SAMPLES and "error" not in iterations[-1]:
            extra = spawn_scaled("setup")
            if "error" in extra:
                iterations.append(extra)
                break
            setups.append((extra["setup_s"], extra["scale"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = check_iterations(iterations)
    done = [it for it in iterations if "error" not in it and "run_s" in it]
    attempted = sum(it.get("ops", 0) for it in iterations)
    failed = sum(it.get("failed", 0) for it in iterations)
    if failures or not done:
        return {"failures": failures or ["no iteration completed"],
                "attempted": max(1, attempted), "failed": failed,
                "metrics": {}}
    first = done[0]
    run_s = statistics.median(it["run_s"] * it["scale"] for it in done)
    metrics = {
        "setup_s": statistics.median(s * scale for s, scale in setups),
        "run_s": run_s,
        "sim_ops_per_s": first["ops"] / run_s,
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in done),
        **{name: first["modelled"][name]
           for name, _ in END_TO_END if name in first["modelled"]},
    }
    extra = {name: first["modelled"][name]
             for name, _, _ in OPEN_LOOP_METRICS if name in first["modelled"]}
    return {
        "failures": [], "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra": extra,
        "samples": {k: first["modelled"][k]
                    for k in ("read_samples", "churn_samples")
                    if k in first["modelled"]},
        "iterations": len(done), "setups": len(setups),
        "run_s_each": [it["run_s"] for it in done],
        "setup_s_each": [s for s, _ in setups],
        "scale_each": [it["scale"] for it in done],
        "error_rate": failed / attempted if attempted else 0.0,
        "ops": first["ops"],
    }


def _layer_metrics(traced: dict, untraced: dict) -> dict:
    summary = traced["trace"]
    counters = traced["counters"]
    out: dict = {}
    for layer, stats in summary["layers"].items():
        out[f"{layer}.calls"] = stats["calls"]
        out[f"{layer}.self_s"] = stats["self_ns"] / 1e9
    out["unattributed.self_s"] = summary["unattributed_ns"] / 1e9
    out["trace.run_s"] = traced["run_s"]
    out["trace.overhead_ratio"] = traced["run_s"] / untraced["run_s"]
    out["trace.spans"] = summary["spans"]
    iostats = counters["iostats"]
    out["disk.requests"] = sum(d["requests"] for d in iostats)
    out["disk.seeks"] = sum(d["seeks"] for d in iostats)
    out["disk.busy_s"] = sum(d["read_time_s"] + d["write_time_s"]
                             for d in iostats)
    out["disk.write_amp"] = (sum(d["write_bytes"] for d in iostats)
                             / traced["bytes_written"])
    pool = counters["bufferpool"]
    lookups = pool["hits"] + pool["misses"]
    out["db.bufferpool_hit_rate"] = pool["hits"] / lookups if lookups else 0.0
    events = counters["events"] or {}
    out["disk.events.submitted"] = events.get("submitted", 0)
    out["disk.events.max_queue_depth"] = events.get("max_queue_depth", 0)
    out["disk.faults.injected"] = (summary["raised"].get("disk.faults", {})
                                   .get("TransientIoError", 0))
    for name in ("retries", "failovers", "degraded_reads"):
        out[f"backends.{name}"] = counters["store"][name]
    out["persist.checkpoint_bytes"] = counters["checkpoint_bytes"]
    return out


def measure_per_layer(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 1``: untraced + traced iteration pairs for ``seconds``."""
    work = _work_dir(workload, seed)
    try:
        pairs: list[tuple[dict, dict]] = []
        for _ in _budget(seconds, 1):
            untraced = spawn(workload, seed, "run", work)
            traced = (spawn(workload, seed, "trace", work)
                      if "error" not in untraced else {})
            pairs.append((untraced, traced))
            if "error" in untraced or "error" in traced:
                break
            spans = Path(traced["trace"].pop("spans_file"))
            spans.replace(WORK / f"{workload}-seed{seed}.spans")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    iterations = [it for pair in pairs for it in pair if it]
    failures = check_iterations(iterations)
    attempted = sum(it.get("ops", 0) for it in iterations)
    failed = sum(it.get("failed", 0) for it in iterations)
    if failures:
        return {"failures": failures, "attempted": max(1, attempted),
                "failed": failed, "metrics": {}}
    rounds = [_layer_metrics(traced, untraced) for untraced, traced in pairs]
    metrics = {name: statistics.median_low(r[name] for r in rounds)
               for name, _ in per_layer_names()}
    return {"failures": [], "attempted": attempted, "failed": failed,
            "metrics": metrics, "rounds": len(rounds)}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_end_to_end(workload: str, seed: int, res: dict) -> None:
    w = WORKLOADS[workload]
    print(f"\n== {workload} (seed {seed}; {w.loop}): end-to-end, "
          f"{res.get('iterations', 0)} iterations, "
          f"{res.get('setups', 0)} set-ups")
    units = dict(END_TO_END)
    for name, value in res["metrics"].items():
        print(f"  {name:<18} {_fmt(value):>14}  {units[name]}")
    for name, unit, count_key in OPEN_LOOP_METRICS:
        if name in res.get("extra", {}):
            print(f"  {name:<18} {_fmt(res['extra'][name]):>14}  {unit}"
                  f"  ({res['samples'][count_key]} samples)")
    if "run_s_each" in res:
        print("  unscaled host seconds and scale (reference.py) per run:")
        for label, key in (("run_s", "run_s_each"), ("setup_s", "setup_s_each"),
                           ("scale", "scale_each")):
            print(f"    {label:<8} "
                  + " ".join(f"{v:.3f}" for v in res[key]))
    if "ops" in res:
        print(f"  {'error_rate':<18} {_fmt(res['error_rate']):>14}  fraction"
              f"  ({res['failed']} of {res['attempted']} ops)")
    _print_failures(res)


def print_per_layer(workload: str, seed: int, res: dict) -> None:
    print(f"\n== {workload} (seed {seed}): per layer, traced run")
    metrics = res["metrics"]
    if metrics:
        total = metrics["trace.run_s"]
        print(f"  {'layer':<14} {'calls':>10} {'self_s':>10} {'share':>7}")
        for layer in [*LAYER_ENTRY_POINTS, "unattributed"]:
            self_s = metrics[f"{layer}.self_s"]
            calls = metrics.get(f"{layer}.calls", "")
            print(f"  {layer:<14} {calls:>10} {self_s:>10.3f} "
                  f"{self_s / total:>7.1%}")
        for name, unit in per_layer_names():
            if not name.endswith((".calls", ".self_s")):
                print(f"  {name:<30} {_fmt(metrics[name]):>14}  {unit}")
    _print_failures(res)


def _print_failures(res: dict) -> None:
    for msg in res["failures"]:
        print(f"  FAILED: {msg}")


def result_line(results: list[dict], metric_units: dict,
                prefix: bool) -> dict:
    metrics = {}
    for label, res in results:
        for name, value in res["metrics"].items():
            key = f"{label}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": metric_units[name]}
    return {
        "correct": all(not res["failures"] for _, res in results),
        "attempted": max(1, sum(res["attempted"] for _, res in results)),
        "failed": sum(res["failed"] for _, res in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, traced and not)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (the experiment seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long one run keeps iterating")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="also write the full results as JSON here")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like Ctrl-C so subprocess.run kills and reaps
    # the running iteration instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    units = {**dict(END_TO_END), **dict(per_layer_names())}
    results = []
    for workload in workloads:
        for trace in traces:
            if trace == 0:
                res = measure_end_to_end(workload, args.seed, args.seconds)
                print_end_to_end(workload, args.seed, res)
            else:
                res = measure_per_layer(workload, args.seed, args.seconds)
                print_per_layer(workload, args.seed, res)
            label = workload if trace == 0 else f"{workload}.traced"
            results.append((label, res))
    line = result_line(results, units, prefix=len(results) > 1)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "results": dict(results), "summary": line}, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
