"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("filesystem", "database", "gfs", "lfs"):
            assert name in out

    def test_requires_command(self):
        # --list-backends is a valid bare invocation, so the "pick a
        # subcommand" error now comes from main() rather than argparse.
        with pytest.raises(SystemExit):
            main([])

    def test_list_backends(self, capsys):
        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        names = [line.split(":", 1)[0] for line in out.splitlines() if line]
        assert len(names) >= 5
        for name in ("filesystem", "database", "gfs", "lfs", "sharded"):
            assert name in names

    def test_bad_ages_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--ages", "4,2"])

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "oracle"])


class TestRun:
    def test_run_prints_tables(self, capsys):
        code = main([
            "run", "--backend", "filesystem",
            "--object-size", "512K", "--volume", "64M",
            "--occupancy", "0.4", "--ages", "0,1", "--reads", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fragments per object" in out
        assert "Read throughput" in out
        assert "bulk-load write throughput" in out

    def test_run_writes_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        main([
            "run", "--backend", "database",
            "--object-size", "256K", "--volume", "64M",
            "--occupancy", "0.4", "--ages", "0", "--reads", "2",
            "--json", str(path),
        ])
        payload = json.loads(path.read_text())
        assert payload["backend"] == "database"
        assert payload["samples"]

    def test_uniform_sizes(self, capsys):
        code = main([
            "run", "--backend", "filesystem", "--uniform",
            "--object-size", "512K", "--volume", "64M",
            "--occupancy", "0.4", "--ages", "0", "--reads", "2",
        ])
        assert code == 0

    def test_scenario_prints_per_tenant_table(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        code = main([
            "run", "--store", "lfs:shards=2,overlap=true,queue=event",
            "--scenario", "cdn_churn:tenants=3,seed=5",
            "--volume", "48M", "--occupancy", "0.4",
            "--ages", "0,1", "--reads", "4", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-tenant churn latency" in out
        for tenant in ("tenant-0", "tenant-1", "tenant-2"):
            assert tenant in out
        payload = json.loads(path.read_text())
        assert payload["config"]["scenario"]["name"] == "cdn_churn"
        last = payload["samples"][-1]
        assert sum(t["count"] for t in last["tenant_lat"].values()) \
            == last["scenario_lat"]["count"]

    def test_bad_scenario_rejected(self, capsys):
        code = main([
            "run", "--backend", "filesystem",
            "--scenario", "cdn_churn:shards=4",
            "--volume", "48M", "--ages", "0",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1

    def test_zero_reads_fail_before_aging(self, capsys, monkeypatch):
        # Rejected by the config itself, before the store is built.
        import repro.core.experiment as experiment

        def never(*args, **kwargs):
            raise AssertionError("store built for a bad config")

        monkeypatch.setattr(experiment, "build_store", never)
        code = main([
            "run", "--backend", "filesystem", "--volume", "64M",
            "--object-size", "256K", "--ages", "0,1", "--reads", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("repro: error: reads_per_sample must be at "
                       "least 1\n")

    def test_storage_full_is_one_line(self, capsys):
        # gfs's 64M chunks leave a 64M volume no room to age into.
        code = main([
            "run", "--backend", "gfs", "--volume", "64M",
            "--object-size", "256K", "--ages", "0,1,2", "--reads", "16",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestCompare:
    def test_compare_two_backends(self, tmp_path, capsys):
        path = tmp_path / "cmp.json"
        code = main([
            "compare", "--against", "filesystem", "database",
            "--object-size", "512K", "--volume", "64M",
            "--occupancy", "0.4", "--ages", "0,1", "--reads", "2",
            "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "filesystem" in out and "database" in out
        payload = json.loads(path.read_text())
        assert set(payload) == {"filesystem", "database"}
