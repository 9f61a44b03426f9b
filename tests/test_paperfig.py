"""Tests for the figure benches' curve runner (benchmarks/paperfig.py)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.workload import ConstantSize
from repro.db.database import DbConfig
from repro.fs.filesystem import FsConfig
from repro.units import KB, MB

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def paperfig(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import paperfig

    return paperfig


def _curve(paperfig, backend, **knobs):
    return paperfig.run_curve(backend, ConstantSize(256 * KB),
                              volume=64 * MB, ages=(0.0, 1.0),
                              reads_per_sample=2, **knobs)


@pytest.mark.parametrize("argv", [[], ["--store", ":reorder=none"],
                                  ["--shards", "2"]])
def test_fs_config_reaches_the_store_under_any_override(paperfig, argv,
                                                        monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bench", *argv])
    options = [
        _curve(paperfig, "filesystem",
               fs_config=FsConfig(commit_interval_ops=interval),
               ).config["store"]["options"]
        for interval in (1, 64)
    ]
    assert [o["fs_config"]["commit_interval_ops"] for o in options] == \
        [1, 64]


def test_db_config_and_size_hints_reach_the_store_under_store_override(
        paperfig, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bench", "--store", ":reorder=none"])
    db = _curve(paperfig, "database",
                db_config=DbConfig(ghost_cleanup_interval_ops=0))
    assert db.config["store"]["options"]["db_config"][
        "ghost_cleanup_interval_ops"] == 0
    fs = _curve(paperfig, "filesystem", size_hints=True)
    assert fs.config["size_hints"] is True


def test_spec_text_options_survive_unset_figure_knobs(paperfig,
                                                      monkeypatch):
    monkeypatch.setattr(sys, "argv", [
        "bench", "--store", "filesystem:size_hints=true"])
    config = _curve(paperfig, "filesystem").config
    assert config["size_hints"] is True
