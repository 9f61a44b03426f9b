"""Extension A5 — layouts from the related-work section, measured.

Section 3.4 surveys designs that sidestep external fragmentation: GFS's
fixed 64 MB chunks with record append + padding, and LFS's log
structure with a cleaner.  This bench runs the paper's 10 MB-object
churn against all four backends and reports what each trades:

* filesystem / database — external fragmentation (the paper's story);
* gfs — zero external fragmentation, but internal fragmentation
  (padding + dead records) until whole-chunk GC;
* lfs — near-zero external fragmentation, but cleaner write
  amplification that rises with occupancy.
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_table
from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentRunner, ExperimentConfig
from repro.core.workload import ConstantSize
from repro.units import MB

import paperfig

OBJECT = 10 * MB
AGES = (0.0, 4.0, 8.0)


def compute():
    results = {}
    for backend in ("filesystem", "database", "gfs", "lfs"):
        config = ExperimentConfig(
            store=StoreSpec(
                backend,
                volume_bytes=paperfig.scaled(paperfig.DEFAULT_VOLUME)),
            sizes=ConstantSize(OBJECT),
            occupancy=0.5,
            ages=AGES,
            reads_per_sample=16,
            seed=7,
        )
        runner = ExperimentRunner(config)
        run = runner.run()
        extra = ""
        store = runner.store
        if backend == "gfs":
            extra = (f"internal frag {store.internal_fragmentation():.0%}, "
                     f"{store.gc_runs} GC runs")
        elif backend == "lfs":
            extra = (f"write amplification "
                     f"{store.write_amplification():.2f}, "
                     f"{store.cleaner_runs} cleanings")
        results[backend] = (run, extra)
    return results


def render(results) -> str:
    rows = []
    for backend, (run, extra) in results.items():
        final = run.sample_at(8.0)
        rows.append([
            backend,
            final.fragments_per_object,
            final.read_mbps / MB,
            final.write_mbps / MB,
            extra or "-",
        ])
    return render_table(
        "Extension A5: alternative layouts under 10 MB-object churn "
        "(age 8, 50% full)",
        ["Backend", "Frags/object", "Read MB/s", "Write MB/s",
         "Hidden cost"],
        rows,
        footer=("GFS and LFS hold external fragmentation near 1 by "
                "paying internal fragmentation / cleaning instead — the "
                "paper's 'trade capacity for predictability'."),
    )


def checks(results) -> list[ShapeCheck]:
    fs_frag = results["filesystem"][0].sample_at(8.0).fragments_per_object
    db_frag = results["database"][0].sample_at(8.0).fragments_per_object
    gfs_frag = results["gfs"][0].sample_at(8.0).fragments_per_object
    lfs_frag = results["lfs"][0].sample_at(8.0).fragments_per_object
    return [
        check_between("gfs objects never fragment externally",
                      gfs_frag, 1.0, 1.05),
        # A 10 MB object spans up to ceil(10/4)=3 of the 4 MB log
        # segments; that bound, not churn, sets LFS's fragment count.
        check_between("lfs fragments bounded by segment spans, not churn",
                      lfs_frag, 1.0, 3.2),
        check_faster("the database fragments worst of all four",
                     db_frag, max(fs_frag, gfs_frag, lfs_frag),
                     min_ratio=1.2),
        check_faster("aged gfs reads beat aged database reads",
                     results["gfs"][0].sample_at(8.0).read_mbps,
                     results["database"][0].sample_at(8.0).read_mbps),
    ]


def test_extension_backends(benchmark):
    results = paperfig.bench_once(benchmark, compute)
    print()
    print(render(results))
    paperfig.report_checks(checks(results))


if __name__ == "__main__":
    res = compute()
    print(render(res))
    for check in checks(res):
        print(check)
