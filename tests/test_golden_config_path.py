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

#: Safe-write churn at 90 % occupancy with writes split into requests:
#: the NTFS run cache's large-run path and the fragmenting fallback
#: both place data (4.76 and 5.86 fragments/object by age 6 at 64M).
#: At 64M the outer band (the first 8M) holds only the MFT zone and
#: the log, so the band path needs the 128M volume of the ``_band``
#: case.
_FRAGMENTING = ["--backend", "filesystem", "--object-size", "1M",
                "--occupancy", "0.9", "--ages", "0,2,4,6", "--reads", "16"]

#: name -> full ``repro run`` arguments.
CASES = {
    "filesystem": ["--backend", "filesystem", "--volume", "64M", *_COMMON],
    "database": ["--backend", "database", "--volume", "64M", *_COMMON],
    "lfs": ["--backend", "lfs", "--volume", "64M", *_COMMON],
    "sharded": ["--backend", "sharded", "--volume", "64M", *_COMMON],
    # A 64M gfs volume runs out of space while aging.
    "gfs": ["--backend", "gfs", "--volume", "256M", *_COMMON],
    "filesystem_size_hints": ["--backend", "filesystem", "--volume", "64M",
                              "--size-hints", *_COMMON],
    "store_index_naive": ["--store", "filesystem:index_kind=naive",
                          "--volume", "64M", *_COMMON],
    "filesystem_fragmenting_256k": [*_FRAGMENTING, "--volume", "64M",
                                    "--write-request", "256K"],
    "filesystem_fragmenting_64k": [*_FRAGMENTING, "--volume", "64M",
                                   "--write-request", "64K"],
    "filesystem_fragmenting_band": [*_FRAGMENTING, "--volume", "128M",
                                    "--write-request", "256K"],
}


def _run_record(name: str, out: Path) -> dict:
    assert main(["run", *CASES[name], "--json", str(out)]) == 0
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
