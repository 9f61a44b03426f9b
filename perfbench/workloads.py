"""The benchmark's workloads: what each one runs and why it was chosen.

Each workload is one aging run of the simulator, driven through the
public API (``StoreSpec`` / ``ScenarioSpec`` / ``ExperimentConfig`` /
``ExperimentRunner``).  The benchmark's ``--seed`` becomes the
experiment seed, which drives object sizes, churn order, read keys and
the scenario's op stream, and also seeds the Poisson arrival and fault
injection streams of ``cdn_sharded``; everything else is fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``--store`` text (parsed with ``StoreSpec.parse``); ``{seed}``
    #: becomes the benchmark seed.
    store: str
    volume: str
    ages: tuple[float, ...]
    reads_per_sample: int
    #: Constant object size (paper loop); None when a scenario is set.
    object_size: str | None = None
    #: ``--scenario`` text (parsed with ``ScenarioSpec.parse``).
    scenario: str | None = None
    #: Write a delta-checkpoint chain into a fresh directory per run.
    checkpoint: bool = False
    #: Open-loop Poisson arrival rate in requests per simulated second
    #: (0 for a closed loop with one synchronous client).
    rate: float = 0.0
    why: str = ""

    @property
    def loop(self) -> str:
        if self.rate > 0:
            return f"open loop, Poisson arrivals at {self.rate:g} req/s"
        return "closed loop, one synchronous client"


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="paper_fs",
            store="filesystem",
            volume="512M",
            object_size="256K",
            ages=(0.0, 2.0, 4.0, 6.0),
            reads_per_sample=64,
            why="The paper's safe-write churn on the NTFS-like filesystem; "
                "the free-space engine (alloc, struct) dominates host time.",
        ),
        Workload(
            name="paper_db",
            store="database",
            volume="512M",
            object_size="256K",
            ages=(0.0, 2.0, 4.0, 6.0),
            reads_per_sample=64,
            why="The same churn on the SQL-Server-like database; db (GAM, "
                "buffer pool) dominates and alloc/struct barely run.",
        ),
        Workload(
            name="cdn_sharded",
            store=("lfs:shards=4,overlap=true,queue=event,replicas=2,"
                   "faults=transient:rate=1e-3:ops=read:seed={seed}"),
            volume="4G",
            scenario="cdn_churn:tenants=8,seed=7,amplitude=0",
            ages=(0.0, 2.0, 4.0, 6.0, 8.0),
            reads_per_sample=2000,
            checkpoint=True,
            rate=90.0,
            why="Replicated 4-shard log store under an 8-tenant scenario "
                "with queued reads, read faults and delta checkpoints.",
        ),
    )
}


def build_config(workload: Workload, seed: int):
    """The ``ExperimentConfig`` one run of ``workload`` ages."""
    from repro.backends.spec import StoreSpec
    from repro.core.experiment import ExperimentConfig
    from repro.core.workload import ConstantSize
    from repro.scenario.spec import ScenarioSpec
    from repro.units import parse_size

    text = workload.store.format(seed=seed)
    if workload.rate > 0:
        text += f",arrival=poisson:rate={workload.rate:g}:seed={seed}"
    spec = StoreSpec.parse(text, volume_bytes=parse_size(workload.volume))
    return ExperimentConfig(
        store=spec,
        sizes=(ConstantSize(parse_size(workload.object_size))
               if workload.object_size else None),
        scenario=(ScenarioSpec.parse(workload.scenario)
                  if workload.scenario else None),
        occupancy=0.5,
        ages=workload.ages,
        reads_per_sample=workload.reads_per_sample,
        seed=seed,
    )
