#!/usr/bin/env python
"""Golden run records: check them, regenerate them, show what moved.

``tests/golden/config_path/`` holds one ``repro run ... --json`` record
per case in :data:`CASES`, and ``tests/test_golden_config_path.py``
compares a fresh run of each case with its record.  This tool is the
only way to change the records::

    PYTHONPATH=src python tools/golden.py           # diff; exit 1 if any moved
    PYTHONPATH=src python tools/golden.py --update  # rewrite, print the diff

The diff is field by field: every leaf that changed is printed as its
JSON path with the committed and the fresh value, and cases or keys
that appeared or disappeared are named.  ``--update`` also deletes the
record of a case that is no longer in :data:`CASES`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as repro_main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden" \
    / "config_path"

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
    "filesystem_fragmenting_256k": [*_FRAGMENTING, "--volume", "64M",
                                    "--write-request", "256K"],
    "filesystem_fragmenting_64k": [*_FRAGMENTING, "--volume", "64M",
                                   "--write-request", "64K"],
    "filesystem_fragmenting_band": [*_FRAGMENTING, "--volume", "128M",
                                    "--write-request", "256K"],
}


def run_record(name: str, out: Path) -> dict:
    """Run case ``name`` through the CLI, writing its record to ``out``."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = repro_main(["run", *CASES[name], "--json", str(out)])
    if status != 0:
        raise RuntimeError(f"golden case {name!r} exited {status}")
    return json.loads(out.read_text())


def field_diff(old, new, path: str = "") -> list[str]:
    """One line per leaf that differs between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in old.keys() | new.keys():
            sub = f"{path}.{key}" if path else str(key)
            if key not in new:
                lines.append(f"  - {sub} (was {json.dumps(old[key])})")
            elif key not in old:
                lines.append(f"  + {sub} = {json.dumps(new[key])}")
            else:
                lines.extend(field_diff(old[key], new[key], sub))
        return sorted(lines)
    if isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        lines = []
        for i, (a, b) in enumerate(zip(old, new)):
            lines.extend(field_diff(a, b, f"{path}[{i}]"))
        return lines
    if old == new:
        return []
    return [f"  ~ {path}: {json.dumps(old)} -> {json.dumps(new)}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed records")
    args = parser.parse_args(argv)

    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    moved = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CASES):
            path = GOLDEN_DIR / f"{name}.json"
            fresh = run_record(name, Path(scratch) / path.name)
            if name not in committed:
                print(f"{name}: new case")
                moved += 1
            else:
                lines = field_diff(json.loads(path.read_text()), fresh)
                print(f"{name}: {len(lines)} field(s) differ" if lines
                      else f"{name}: unchanged")
                for line in lines:
                    print(line)
                moved += bool(lines)
            if args.update:
                GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
                path.write_text((Path(scratch) / path.name).read_text())
    for name in sorted(committed - CASES.keys()):
        print(f"{name}: case removed")
        moved += 1
        if args.update:
            (GOLDEN_DIR / f"{name}.json").unlink()
    print(f"{len(CASES)} case(s), {moved} moved"
          + (", records rewritten" if args.update else ""))
    return 0 if args.update or not moved else 1


if __name__ == "__main__":
    sys.exit(main())
