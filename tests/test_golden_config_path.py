"""Golden run records for the CLI's store-configuration path.

Each case runs ``repro run ... --json`` and compares the written record
with a committed one under ``tests/golden/config_path/``.  Records are
compared after ``json.load``, so floats must match to their ``repr``:
any change to how a flag turns into a store — or to what the record
says about that store — shows up here.

The cases live in ``tools/golden.py``, which is also the only way to
regenerate the records (only when a change to them is intended)::

    PYTHONPATH=src python tools/golden.py --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from tools.golden import CASES, GOLDEN_DIR, run_record  # noqa: E402


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_record_matches_golden(name, tmp_path):
    record = run_record(name, tmp_path / "run.json")
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert record == golden
