"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.vdx.examples import LISTING_1


class TestAlgorithms:
    def test_lists_all(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("avoc", "hybrid", "standard", "clustering"):
            assert name in out


class TestCompare:
    def test_default_algorithms(self, capsys):
        assert main(["compare", "--values", "18.0,18.1,17.9,24.0,18.05"]) == 0
        out = capsys.readouterr().out
        assert "avoc" in out
        assert "E4" in out  # eliminated column

    def test_algorithm_subset(self, capsys):
        assert main(
            ["compare", "--values", "1,2,3", "--algorithms", "average,median"]
        ) == 0
        out = capsys.readouterr().out
        assert "average" in out and "avoc" not in out


class TestFig6:
    def test_small_run(self, capsys):
        assert main(["fig6", "--rounds", "120"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6-a" in out
        assert "Fig. 6-f" in out
        assert "convergence boost" in out.lower()

    def test_export_writes_csvs(self, tmp_path, capsys):
        assert main(
            ["fig6", "--rounds", "80", "--export", str(tmp_path / "out")]
        ) == 0
        written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
        assert "fig6a_raw.csv" in written
        assert "fig6e_diffs.csv" in written
        header = (tmp_path / "out" / "fig6e_diffs.csv").read_text().splitlines()[0]
        assert header.startswith("round,")
        assert "avoc" in header


class TestFig7:
    def test_full_run(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7-a" in out
        assert "unstable calls" in out

    def test_export_writes_csvs(self, tmp_path, capsys):
        assert main(["fig7", "--export", str(tmp_path / "out")]) == 0
        written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
        assert "fig7_single_beacon.csv" in written
        assert "fig7_avoc_voting.csv" in written


class TestDiagnose:
    def test_flags_faulty_sensor(self, tmp_path, uc1_small_faulty, capsys):
        from repro.datasets.loader import save_csv

        path = tmp_path / "faulty.csv"
        save_csv(uc1_small_faulty.slice(0, 80), path)
        assert main(["diagnose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "offset" in out
        assert "attention: E4" in out

    def test_healthy_dataset(self, tmp_path, uc1_small, capsys):
        from repro.datasets.loader import save_csv

        path = tmp_path / "healthy.csv"
        save_csv(uc1_small.slice(0, 80), path)
        assert main(["diagnose", str(path)]) == 0
        assert "all modules healthy" in capsys.readouterr().out


class TestVdx:
    def test_describe(self, capsys):
        assert main(["vdx", "--describe"]) == 0
        assert "algorithm_name" in capsys.readouterr().out

    def test_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "avoc.json"
        path.write_text(json.dumps(LISTING_1))
        assert main(["vdx", str(path)]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out
        assert "AvocVoter" in out

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm_name": "x", "history": "WRONG"}))
        assert main(["vdx", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_no_file_no_describe_errors(self, capsys):
        assert main(["vdx"]) == 2


class TestSimulate:
    def test_uc1(self, capsys):
        assert main(["simulate", "uc1", "--rounds", "40"]) == 0
        out = capsys.readouterr().out
        assert "wifi" in out
        assert "rounds: 40" in out


class TestAdversarial:
    def test_markdown_to_stdout(self, capsys):
        assert main([
            "adversarial", "--scenarios", "symbol_burst",
            "--rounds", "80", "--severities", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "### Categorical scenarios" in out
        assert "probabilistic" in out

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "ranking.json"
        assert main([
            "adversarial", "--scenarios", "symbol_burst",
            "--algorithms", "categorical_majority,probabilistic",
            "--rounds", "80", "--severities", "3",
            "--format", "json", "--output", str(target),
        ]) == 0
        assert "wrote adversarial ranking" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["winners"]["symbol_burst"] == "probabilistic"


class TestLatency:
    def test_reports_microseconds(self, capsys):
        assert main(["latency", "--iterations", "50"]) == 0
        out = capsys.readouterr().out
        assert "µs / round" in out
        assert "avoc" in out


class TestServe:
    def test_once_binds_and_exits(self, capsys):
        assert main(["serve", "--once"]) == 0
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out
        assert "AVOC" in out

    def test_custom_spec(self, tmp_path, capsys):
        from repro.vdx.examples import STANDARD_SPEC

        path = tmp_path / "standard.json"
        STANDARD_SPEC.save(path)
        assert main(["serve", "--once", "--spec", str(path)]) == 0
        assert "Standard" in capsys.readouterr().out


class TestFuse:
    @pytest.fixture()
    def csv_path(self, tmp_path, uc1_small):
        from repro.datasets.loader import save_csv

        path = tmp_path / "uc1.csv"
        save_csv(uc1_small.slice(0, 20), path)
        return path

    def test_fuse_to_stdout(self, csv_path, capsys):
        assert main(["fuse", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("round,value,status,excluded")
        assert out.count("\n") == 21  # header + 20 rounds

    def test_fuse_to_file(self, csv_path, tmp_path, capsys):
        out_path = tmp_path / "fused.csv"
        assert main(["fuse", str(csv_path), "--output", str(out_path)]) == 0
        assert out_path.exists()
        lines = out_path.read_text().splitlines()
        assert len(lines) == 21

    def test_fuse_with_spec(self, csv_path, tmp_path, capsys):
        from repro.vdx.examples import STANDARD_SPEC

        spec_path = tmp_path / "standard.json"
        STANDARD_SPEC.save(spec_path)
        assert main(["fuse", str(csv_path), "--spec", str(spec_path)]) == 0
        assert "ok" in capsys.readouterr().out


class TestShelf:
    def test_default_run(self, capsys):
        assert main(["shelf", "--rounds", "150"]) == 0
        out = capsys.readouterr().out
        assert "fused occupancy accuracy" in out
        assert "DEFECTIVE" in out

    def test_stateless_history_mode(self, capsys):
        assert main(["shelf", "--rounds", "80", "--history", "none"]) == 0
        out = capsys.readouterr().out
        assert "history=none" in out


class TestTune:
    def test_grid_tune_prints_leaderboard(self, capsys):
        assert main(["tune", "--rounds", "80", "--points", "2"]) == 0
        out = capsys.readouterr().out
        assert "evaluated" in out
        assert "best:" in out

    def test_random_method_is_seeded(self, capsys):
        args = ["tune", "--rounds", "60", "--method", "random",
                "--trials", "3", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_live_tune_against_a_cluster(self, capsys):
        from repro.cluster.supervisor import FusionCluster
        from repro.vdx.examples import AVOC_SPEC

        with FusionCluster(
            AVOC_SPEC, n_shards=2, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            address = "%s:%d" % cluster.address
            assert main(
                ["tune", "--live", address, "--method", "random",
                 "--trials", "8", "--rounds", "60"]
            ) == 0
        out = capsys.readouterr().out
        assert "live against " + address in out
        assert "cache hits" in out
        assert "best:" in out

    def test_live_rejects_a_malformed_address(self, capsys):
        assert main(["tune", "--live", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().out


class TestDashboard:
    def test_once_boots_cluster_and_exits(self, capsys):
        assert main(["dashboard", "--once", "--mode", "thread"]) == 0
        out = capsys.readouterr().out
        assert "operations dashboard at http://127.0.0.1:" in out
        assert "/api/stream" in out
        assert "shards-down" in out

    def test_attach_to_running_gateway(self, capsys):
        from repro.cluster.supervisor import FusionCluster
        from repro.vdx.examples import AVOC_SPEC

        with FusionCluster(
            AVOC_SPEC, n_shards=2, replicas=1, mode="thread",
            auto_restart=False,
        ) as cluster:
            address = "%s:%d" % cluster.address
            assert main(
                ["dashboard", "--once", "--gateway", address]
            ) == 0
        out = capsys.readouterr().out
        assert f"(cluster: {address})" in out
        # Remote topology unknown: no shards-down rule.
        assert "shards-down" not in out

    def test_rules_file_overrides_the_stock_set(self, tmp_path, capsys):
        rules = [{"name": "my-rule", "metric": "cluster_backends_alive",
                  "op": "<", "threshold": 1.0}]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules))
        assert main(
            ["dashboard", "--once", "--mode", "thread",
             "--rules", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "alert rules: my-rule" in out

    def test_gateway_rejects_a_malformed_address(self, capsys):
        assert main(["dashboard", "--once", "--gateway", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().out

    def test_metrics_flag_prints_per_shard_sections(self, capsys):
        assert main(
            ["--metrics", "dashboard", "--once", "--mode", "thread",
             "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "== shard metrics [b0] ==" in out
        assert "== shard metrics [b1] ==" in out


class TestClusterMetrics:
    def test_metrics_flag_prints_per_shard_sections(self, capsys):
        assert main(
            ["--metrics", "cluster", "--once", "--mode", "thread",
             "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "== shard metrics [b0] ==" in out
        assert "== shard metrics [b1] ==" in out
        assert "== metrics ==" in out  # the local registry still prints


class TestStoreMigrate:
    def _legacy_dir(self, directory, series):
        from repro.history.migrate import series_filename

        directory.mkdir()
        (directory / "series-index.json").write_text(json.dumps(series))
        for key in series:
            (directory / series_filename(key)).write_text('{"E1": 0.5}\n')

    def test_migrates_each_dir_into_packed(self, tmp_path, capsys):
        from repro.history import PackedHistoryStore

        self._legacy_dir(tmp_path / "b0", ["a", "b"])
        self._legacy_dir(tmp_path / "b1", ["c"])
        assert main(
            ["store", "migrate", str(tmp_path / "b0"), str(tmp_path / "b1")]
        ) == 0
        out = capsys.readouterr().out
        assert "b0: migrated 2 series" in out
        assert "b1: migrated 1 series" in out
        with PackedHistoryStore(tmp_path / "b1" / "packed") as packed:
            assert packed.read("c") == ({"E1": 0.5}, 0)

    def test_dir_without_index_fails(self, tmp_path, capsys):
        assert main(["store", "migrate", str(tmp_path)]) == 1
        assert "series index" in capsys.readouterr().err

    def test_jsonl_store_kind_is_gone(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--store", "jsonl", "--once"])
