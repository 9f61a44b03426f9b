"""Golden run records for the CLI's store-configuration path.

Each case runs ``repro run ... --json`` and compares the written record
with a committed one under ``tests/golden/config_path/``.  Records are
compared after ``json.load``, so floats must match to their ``repr``:
any change to how a flag turns into a store — or to what the record
says about that store — shows up here.

Regenerate (only when a change to the records is intended)::

    PYTHONPATH=src python tests/test_golden_config_path.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "config_path"

_COMMON = ["--object-size", "256K", "--ages", "0,1,2", "--reads", "16"]

#: name -> ``repro run`` arguments (before the shared flags).
CASES = {
    "filesystem": ["--backend", "filesystem", "--volume", "64M"],
    "database": ["--backend", "database", "--volume", "64M"],
    "lfs": ["--backend", "lfs", "--volume", "64M"],
    "sharded": ["--backend", "sharded", "--volume", "64M"],
    # A 64M gfs volume runs out of space while aging.
    "gfs": ["--backend", "gfs", "--volume", "256M"],
    "filesystem_size_hints": ["--backend", "filesystem", "--volume", "64M",
                              "--size-hints"],
    "store_index_naive": ["--store", "filesystem:index_kind=naive",
                          "--volume", "64M"],
}


def _run_record(name: str, out: Path) -> dict:
    assert main(["run", *CASES[name], *_COMMON, "--json", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_record_matches_golden(name, tmp_path, capsys):
    record = _run_record(name, tmp_path / "run.json")
    capsys.readouterr()
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert record == golden


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        _run_record(case, GOLDEN_DIR / f"{case}.json")
    sys.exit(0)
