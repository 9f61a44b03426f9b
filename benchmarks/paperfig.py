"""Shared infrastructure for the per-figure benchmarks.

Every bench in this directory regenerates one table or figure from the
paper's evaluation (Section 5) on scaled volumes (see DESIGN.md §3: the
free-object-pool and request-size ratios that the paper says govern the
curves are preserved; absolute volume sizes shrink so a bench takes
seconds instead of the paper's week).  Pass ``--paper-scale`` when
running a bench standalone to use the original 40/400 GB volumes.

Each bench is simultaneously:
* a pytest-benchmark test (``pytest benchmarks/ --benchmark-only``) that
  times the experiment once and asserts the paper's qualitative shapes;
* a standalone script (``python benchmarks/bench_figN_*.py``) that
  prints the regenerated table.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.analysis.compare import ShapeCheck
from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.results import RunResult
from repro.core.workload import SizeDistribution
from repro.db.database import DbConfig
from repro.fs.filesystem import FsConfig
from repro.units import DEFAULT_WRITE_REQUEST, GB, MB

#: Scaled stand-ins for the paper's volumes.  The paper's 40 GB and
#: 400 GB volumes at 10 MB objects hold 4 k / 40 k objects; our scaled
#: volumes preserve the tenfold pool ratio at bench-friendly sizes.
SMALL_VOLUME = 1 * GB     # plays the paper's 40 GB volume
LARGE_VOLUME = 4 * GB     # plays the paper's 400 GB volume
PAPER_SMALL_VOLUME = 40 * GB
PAPER_LARGE_VOLUME = 400 * GB

#: Default volume for single-volume figures (1, 2, 3, 4, 5).
DEFAULT_VOLUME = 2 * GB
#: Larger stand-in used where the small volume's free pool would drop
#: below ~5 objects (the degenerate regime the paper flags in §5.4:
#: "on a 4GB volume with a pool of 40 free objects, performance
#: degraded rapidly").
XL_VOLUME = 8 * GB
THROUGHPUT_VOLUME = 512 * MB

FULL_AGES = tuple(float(a) for a in range(11))   # figures 2, 3, 5, 6
SHORT_AGES = (0.0, 2.0, 4.0)                     # figures 1 and 4


def paper_scale() -> bool:
    return "--paper-scale" in sys.argv


def index_kind() -> str | None:
    """The ``--index {tiered,naive}`` allocator ablation flag.

    Returns None (use each config's default, i.e. the tiered engine)
    when the flag is absent — notably under pytest, where benches run
    without CLI arguments.  Figure scripts re-run with ``--index naive``
    to quantify how much of end-to-end throughput the free-space engine
    contributes.
    """
    return _flag_value("--index")


def _flag_value(flag: str) -> str | None:
    argv = sys.argv
    for pos, arg in enumerate(argv):
        if arg == flag and pos + 1 < len(argv):
            return argv[pos + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return None


def store_override() -> tuple[str | None, int]:
    """The ``--store SPEC`` / ``--shards N`` overrides, if given.

    Figure scripts re-run with e.g. ``--store lfs:reorder=clook
    --shards 4`` to replay a figure's workload against a declaratively
    described store (any registered backend, device policy, shard
    layout).  ``--store :reorder=clook`` keeps each curve's own
    backend and only overrides the rest.  Absent under pytest, where
    benches run without CLI arguments.
    """
    shards = _flag_value("--shards")
    return _flag_value("--store"), int(shards) if shards else 0


def scaled(volume: int) -> int:
    """Swap in the paper's full-size volume under --paper-scale."""
    if not paper_scale():
        return volume
    mapping = {
        SMALL_VOLUME: PAPER_SMALL_VOLUME,
        LARGE_VOLUME: PAPER_LARGE_VOLUME,
        DEFAULT_VOLUME: PAPER_LARGE_VOLUME,
        THROUGHPUT_VOLUME: PAPER_LARGE_VOLUME,
    }
    return mapping.get(volume, volume)


def run_curve(backend: str, sizes: SizeDistribution, *,
              volume: int = DEFAULT_VOLUME,
              occupancy: float = 0.5,
              ages: tuple[float, ...] = FULL_AGES,
              reads_per_sample: int = 32,
              seed: int = 7,
              label: str = "",
              write_request: int = DEFAULT_WRITE_REQUEST,
              size_hints: bool = False,
              fs_config: FsConfig | None = None,
              db_config: DbConfig | None = None) -> RunResult:
    """Run one curve of one figure.

    A ``--store``/``--shards`` override on the command line replays the
    curve against that declarative spec instead of the figure's default
    backend (the curve's backend fills an empty backend part, so
    ``--store :reorder=clook`` applies one policy across a
    multi-backend comparison).  Either way the figure's own knobs —
    ``fs_config``/``size_hints``/``--index`` for a filesystem,
    ``db_config`` for a database — fold into the spec's options.
    """
    store_text, shards = store_override()
    # Figure parameters arrive as parse *defaults*: explicit spec-text
    # keys (volume=, write_request=, ...) win over them.
    spec = StoreSpec.parse(
        store_text if store_text is not None else backend,
        default_backend=backend,
        volume_bytes=scaled(volume),
        write_request=write_request,
    )
    if shards > 0:
        spec = replace(spec, shards=shards)
    knobs: dict = {}
    if spec.backend == "filesystem":
        knobs = {"fs_config": fs_config, "index_kind": index_kind(),
                 "size_hints": size_hints or None}
    elif spec.backend == "database":
        knobs = {"db_config": db_config}
    # Unset knobs leave whatever the spec text says.
    spec = spec.with_options(
        **{key: value for key, value in knobs.items() if value is not None})
    return run_experiment(ExperimentConfig(
        store=spec,
        sizes=sizes,
        occupancy=occupancy,
        ages=ages,
        reads_per_sample=reads_per_sample,
        seed=seed,
        label=label,
    ))


def frag_series(result: RunResult) -> list[tuple[float, float]]:
    return [(round(s.age), s.fragments_per_object)
            for s in result.samples]


def read_series(result: RunResult) -> list[tuple[float, float]]:
    return [(round(s.age), s.read_mbps / MB) for s in result.samples]


def write_series(result: RunResult) -> list[tuple[float, float]]:
    return [(round(s.age), s.write_mbps / MB) for s in result.samples]


def latency_series(result: RunResult,
                   quantile: str = "p99") -> list[tuple[float, float]]:
    """(age, read-sojourn milliseconds) pairs for one percentile.

    ``quantile`` is one of ``p50``/``p95``/``p99``/``max``.  All zeros
    unless the curve ran on a ``queue=event`` store (see
    :mod:`repro.disk.events`) — the round model reports wall time only.
    """
    attr = f"read_lat_{quantile}_s"
    return [(round(s.age), getattr(s, attr) * 1e3)
            for s in result.samples]


def report_checks(checks: list[ShapeCheck]) -> None:
    """Print every shape check and assert they all hold.

    Under a ``--store``/``--shards`` override the checks are reported
    but not enforced: they encode the paper's backend comparison, which
    an override deliberately replaces.
    """
    print()
    print("Shape checks against the paper:")
    for check in checks:
        print(f"  {check}")
    failed = [c for c in checks if not c.passed]
    if store_override() != (None, 0):
        if failed:
            print(f"({len(failed)} shape check(s) differ from the paper "
                  "under the store override — reported, not enforced)")
        return
    assert not failed, f"{len(failed)} shape check(s) failed: " + \
        "; ".join(c.name for c in failed)


def bench_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark.

    Aging experiments are deterministic and expensive; statistical
    repetition would only re-measure the same simulation.
    """
    if benchmark is None:
        return fn()
    return benchmark.pedantic(fn, rounds=1, iterations=1)
