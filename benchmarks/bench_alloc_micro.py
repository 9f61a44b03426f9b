#!/usr/bin/env python
"""Allocator microbenchmark: tiered engine vs the naive reference model.

Times the operations every experiment funnels through
:class:`~repro.alloc.freelist.FreeExtentIndex` — building a fragmented
free map, mixed alloc/free churn through the repo's allocation entry
points, and the point queries — at 10^3..10^6 live extents, for both
the tiered engine (``tiered``) and the flat-list reference model the
parity suites hold it to (``naive``, ``tests/oracles/naive_index.py``).
Results go to a machine-readable ``BENCH_alloc.json`` (schema
documented in ``benchmarks/README.md``), the repo's first
perf-trajectory baseline.

Operation families
------------------
* ``build``            — populate the index with n isolated free runs.
* ``mixed_policy``     — alternating ``allocate_fragmented`` (first-fit
  policy, includes its O(total_free) occupancy guard) and frees: the
  generic allocation path of :mod:`repro.alloc.policy`.
* ``aging_runcache``   — alternating :class:`NtfsRunCache` allocations
  and frees: the filesystem aging hot path behind Figures 1-4.
* ``query_*``          — first_fit / banded first_fit / best_fit /
  worst_fit / total_free reads against a static map.

Usage::

    PYTHONPATH=src python benchmarks/bench_alloc_micro.py
    PYTHONPATH=src python benchmarks/bench_alloc_micro.py --quick
    PYTHONPATH=src python benchmarks/bench_alloc_micro.py \
        --scales 1000,100000,1000000 --out BENCH_alloc.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.policy import FirstFit, allocate_fragmented
from repro.alloc.runcache import NtfsRunCache

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.naive_index import NaiveFreeExtentIndex  # noqa: E402

#: Engine name -> class; ``naive`` is the test oracle.
ENGINES = {"tiered": FreeExtentIndex, "naive": NaiveFreeExtentIndex}

#: Byte slot reserved per seeded run; runs are 1..48 bytes long, so
#: consecutive seeds never touch and the build phase never coalesces.
SLOT = 64
DEFAULT_SCALES = (1_000, 10_000, 100_000)
QUICK_SCALES = (1_000, 10_000)
#: The naive engine pays O(n) per op; cap measured mutation ops per
#: scale so the largest naive runs stay in seconds, not minutes.
MUTATION_OPS = {1_000: 2_000, 10_000: 1_000}
MUTATION_OPS_DEFAULT = 300
QUERY_OPS = 200


def seeded_run(i: int) -> Extent:
    """The i-th build-phase run: deterministic, spread across buckets."""
    return Extent(i * SLOT, 1 + (i * 7919) % 48)


def build_index(kind: str, n: int):
    index = ENGINES[kind]((n + 1) * SLOT, initially_free=False)
    for i in range(n):
        index.add(seeded_run(i))
    return index


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_one_kind(kind: str, n: int) -> list[dict]:
    """All operation families for one engine at one scale."""
    ops = MUTATION_OPS.get(n, MUTATION_OPS_DEFAULT)
    rows: list[dict] = []

    def row(op: str, count: int, seconds: float) -> None:
        rows.append({
            "index": kind,
            "live_extents": n,
            "op": op,
            "ops": count,
            "seconds": round(seconds, 6),
            "us_per_op": round(seconds / count * 1e6, 3),
        })

    holder: list = []
    row("build", n, timed(lambda: holder.append(build_index(kind, n))))
    index = holder[0]

    # Mixed alloc/free through the generic policy path.
    rng = random.Random(1234)
    policy = FirstFit()
    allocated: list[list[Extent]] = []

    def mixed_policy() -> None:
        for _ in range(ops):
            size = rng.randint(1, 32)
            allocated.append(allocate_fragmented(index, size, policy))
            if allocated and rng.random() < 0.5:
                for piece in allocated.pop(rng.randrange(len(allocated))):
                    index.add(piece)

    row("mixed_policy", ops, timed(mixed_policy))
    for pieces in allocated:
        for piece in pieces:
            index.add(piece)

    # Mixed alloc/free through the NTFS run cache (the aging workload).
    rng = random.Random(5678)
    runcache = NtfsRunCache(index)
    chunks: list[list[Extent]] = []

    def aging_runcache() -> None:
        for _ in range(ops):
            size = rng.randint(1, 32)
            chunks.append(runcache.allocate(size))
            if chunks and rng.random() < 0.5:
                for piece in chunks.pop(rng.randrange(len(chunks))):
                    index.add(piece)

    row("aging_runcache", ops, timed(aging_runcache))
    for pieces in chunks:
        for piece in pieces:
            index.add(piece)

    # Point queries against the (restored) static map.
    rng = random.Random(42)
    capacity = index.capacity
    sizes = [rng.randint(1, 48) for _ in range(QUERY_OPS)]
    bands = [rng.randrange(capacity) for _ in range(QUERY_OPS)]

    row("query_first_fit", QUERY_OPS,
        timed(lambda: [index.first_fit(s) for s in sizes]))
    row("query_banded_first_fit", QUERY_OPS,
        timed(lambda: [index.first_fit(s, min_start=b)
                       for s, b in zip(sizes, bands)]))
    row("query_best_fit", QUERY_OPS,
        timed(lambda: [index.best_fit(s) for s in sizes]))
    row("query_worst_fit", QUERY_OPS,
        timed(lambda: [index.worst_fit(s) for s in sizes]))
    row("query_total_free", QUERY_OPS,
        timed(lambda: [index.total_free for _ in range(QUERY_OPS)]))

    index.check_invariants()
    return rows


def compute_speedups(rows: list[dict]) -> dict[str, float]:
    """naive-vs-tiered per (op, scale), keyed ``op@scale``."""
    us = {(r["index"], r["op"], r["live_extents"]): r["us_per_op"]
          for r in rows}
    speedups: dict[str, float] = {}
    for (kind, op, n), tiered_us in sorted(us.items()):
        if kind != "tiered":
            continue
        naive_us = us.get(("naive", op, n))
        if naive_us is not None and tiered_us > 0:
            speedups[f"{op}@{n}"] = round(naive_us / tiered_us, 2)
    return speedups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scales only (CI smoke)")
    parser.add_argument("--scales", type=str, default=None,
                        help="comma-separated live-extent counts")
    parser.add_argument("--kinds", type=str, default=",".join(ENGINES),
                        help="comma-separated engines to measure")
    parser.add_argument("--naive-max", type=int, default=100_000,
                        help="skip the naive engine above this many live "
                             "extents (its O(n) ops make 10^6 impractical)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "BENCH_alloc.json")
    args = parser.parse_args(argv)

    if args.scales:
        scales = tuple(int(s) for s in args.scales.split(","))
    else:
        scales = QUICK_SCALES if args.quick else DEFAULT_SCALES
    kinds = tuple(args.kinds.split(","))
    for kind in kinds:
        if kind not in ENGINES:
            parser.error(f"unknown engine {kind!r}; choose from "
                         f"{tuple(ENGINES)}")

    rows: list[dict] = []
    for n in scales:
        for kind in kinds:
            if kind == "naive" and n > args.naive_max:
                print(f"... naive @ {n:,} skipped (--naive-max "
                      f"{args.naive_max:,})", flush=True)
                continue
            print(f"... {kind} @ {n:,} live extents", flush=True)
            rows.extend(bench_one_kind(kind, n))

    speedups = compute_speedups(rows)
    report = {
        "schema": "bench-alloc/1",
        "generated_by": "benchmarks/bench_alloc_micro.py",
        "python": platform.python_version(),
        "config": {
            "scales": list(scales),
            "kinds": list(kinds),
            "quick": args.quick,
            "query_ops": QUERY_OPS,
        },
        "results": rows,
        "speedups_naive_over_tiered": speedups,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n{'op':24s} {'n':>9s} {'tiered us':>10s} {'naive us':>10s} "
          f"{'speedup':>8s}")
    us = {(r["index"], r["op"], r["live_extents"]): r["us_per_op"]
          for r in rows}
    for key, ratio in speedups.items():
        op, n = key.rsplit("@", 1)
        tiered_us = us.get(("tiered", op, int(n)), float("nan"))
        naive_us = us.get(("naive", op, int(n)), float("nan"))
        print(f"{op:24s} {int(n):>9,d} {tiered_us:>10.1f} {naive_us:>10.1f} "
              f"{ratio:>7.1f}x")
    print(f"\nwrote {args.out}")

    mixed = {k: v for k, v in speedups.items()
             if k.startswith(("mixed_policy", "aging_runcache"))
             and int(k.rsplit("@", 1)[1]) >= 100_000}
    if mixed and min(mixed.values()) < 10.0:
        print("WARNING: mixed alloc/free speedup below the 10x target "
              f"at 1e5+ extents: {mixed}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
