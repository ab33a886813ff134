"""Tests for the experiments CLI (python -m repro.experiments)."""

import ast
import importlib
import inspect
import json

import pytest

from repro.experiments import __main__ as cli
from repro.experiments import registry
from repro.experiments.__main__ import main
from repro.experiments.registry import check_params, experiment_ids, get_experiment


class TestList:
    def test_list(self, capsys):
        assert main(["prog", "list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_ids():
            assert name in out

    def test_list_json(self, capsys):
        assert main(["prog", "list", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["id"] for e in entries} == set(experiment_ids())
        assert all({"id", "kind", "title"} <= set(e) for e in entries)


class TestRun:
    def test_unknown_experiment(self, capsys):
        assert main(["prog", "run", "tableXX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_id_rejected_even_with_all(self, capsys):
        assert main(["prog", "run", "all", "tableXX"]) == 2
        assert "tableXX" in capsys.readouterr().err

    def test_help(self, capsys):
        assert main(["prog"]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_bare_id_back_compat(self, capsys):
        assert main(["prog", "table08", "--param", "num_jobs=1000"]) == 0
        out = capsys.readouterr().out
        assert "GPU Demand" in out
        assert "finished in" in out

    def test_run_subcommand(self, capsys):
        assert main(["prog", "run", "table07"]) == 0
        assert "Workload" in capsys.readouterr().out

    def test_run_json_format(self, capsys):
        assert main(
            ["prog", "run", "table08", "--param", "num_jobs=1000",
             "--format", "json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["ids"] == ["table08"]
        [payload] = record["experiments"]
        assert payload["id"] == "table08"
        assert payload["tables"][0]["headers"] == ["GPU Demand", "Published", "Generated"]

    def test_run_csv_format(self, capsys):
        assert main(
            ["prog", "run", "table07", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("# table07:")
        assert "Workload,Description" in out

    def test_seeds_validated(self, capsys):
        assert main(["prog", "run", "table08", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_param_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["prog", "run", "table08", "--param", "nonsense"])


class TestCacheAndReport:
    def test_cached_rerun_and_report(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out_file = str(tmp_path / "run.json")
        args = [
            "prog", "run", "table11", "--seeds", "2",
            "--cache-dir", cache, "--format", "json", "--output", out_file,
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["experiments"][0]["cache"]["misses"] == 10

        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        cache_stats = second["experiments"][0]["cache"]
        assert cache_stats["misses"] == 0, "second run must be 100% cache hits"
        assert cache_stats["hits"] == 10
        assert (
            second["experiments"][0]["tables"] == first["experiments"][0]["tables"]
        )

        # report re-renders the saved record without simulating
        assert main(["prog", "report", out_file]) == 0
        text = capsys.readouterr().out
        assert "multi-seed trials" in text
        assert main(["prog", "report", out_file, "--format", "csv"]) == 0
        assert "Scenario,Total Cost" in capsys.readouterr().out

    def test_report_missing_file(self, capsys):
        assert main(["prog", "report", "/nonexistent/run.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_unknown_id(self, tmp_path, capsys):
        out_file = str(tmp_path / "run.json")
        assert main(
            ["prog", "run", "table07", "--format", "json", "--output", out_file]
        ) == 0
        capsys.readouterr()
        assert main(["prog", "report", out_file, "--id", "fig04"]) == 2
        assert "not in record" in capsys.readouterr().err


class TestDryRun:
    def test_dry_run_without_cache_lists_grid(self, capsys):
        assert main(
            ["prog", "run", "table11", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "table11: 5 scenario(s)" in out
        # One row per cell: 16-hex fingerprint, no cache status.
        rows = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(rows) == 5
        for row in rows:
            fp, status = row.split()[:2]
            assert len(fp) == 16 and int(fp, 16) >= 0
            assert status == "-"
        # Nothing was simulated (no run footer, no cache line).
        assert "finished in" not in out
        assert "[cache]" not in out

    def test_dry_run_expands_seeds(self, capsys):
        assert main(
            ["prog", "run", "table11", "--dry-run", "--seeds", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "table11: 5 scenario(s) x 2 seed(s)" in out
        assert len([l for l in out.splitlines() if l.startswith("  ")]) == 10

    def test_dry_run_direct_experiment(self, capsys):
        assert main(["prog", "run", "table01", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "table01: direct experiment" in out

    def test_dry_run_rejects_format_and_output(self, tmp_path, capsys):
        assert main(
            ["prog", "run", "table11", "--dry-run", "--format", "json"]
        ) == 2
        assert "--dry-run" in capsys.readouterr().err
        out_file = str(tmp_path / "plan.json")
        assert main(
            ["prog", "run", "table11", "--dry-run", "--output", out_file]
        ) == 2
        assert "--dry-run" in capsys.readouterr().err
        assert not (tmp_path / "plan.json").exists()

    def test_dry_run_reports_cache_status(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        dry = [
            "prog", "run", "spot-eviction", "--dry-run",
            "--param", "num_jobs=12", "--cache-dir", cache,
        ]
        assert main(dry) == 0
        cold = capsys.readouterr().out
        assert cold.count("  miss") == 9
        assert "hits=0/9 misses=9" in cold

        # Populate the cache for real, then the same dry run is all hits.
        assert main(
            ["prog", "run", "spot-eviction",
             "--param", "num_jobs=12", "--cache-dir", cache]
        ) == 0
        capsys.readouterr()
        assert main(dry) == 0
        warm = capsys.readouterr().out
        assert warm.count("  hit") == 9
        assert "hits=9/9 misses=0" in warm
        # Fingerprints shown dry match the ones that keyed the store.
        assert {
            l.split()[0] for l in cold.splitlines() if l.startswith("  ")
        } == {l.split()[0] for l in warm.splitlines() if l.startswith("  ")}


class TestParamValidation:
    """``--param`` is checked against each spec's declared parameters
    before any experiment runs."""

    @pytest.fixture
    def nothing_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an experiment ran despite a bad --param")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        monkeypatch.setattr(cli, "_dry_run_grid", refuse)

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    def test_unknown_name_exits_2(self, capsys, nothing_runs, dry_run):
        assert main(
            ["prog", "run", "table11", "--param", "num_jobs=7", *dry_run]
        ) == 2
        captured = capsys.readouterr()
        assert "'num_jobs'" in captured.err
        assert "table11 takes none" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    def test_wrong_type_exits_2(self, capsys, nothing_runs, dry_run):
        assert main(
            ["prog", "run", "spot-eviction", "--param", "num_jobs=abc", *dry_run]
        ) == 2
        err = capsys.readouterr().err
        assert "spot-eviction" in err
        assert "expects int, got 'abc'" in err
        assert "takes num_jobs (int)" in err

    def test_message_lists_every_parameter(self, capsys, nothing_runs):
        assert main(
            ["prog", "run", "table04", "--param", "num_tasks=2.5"]
        ) == 2
        assert (
            "table04 takes ilp_time_limit_s (float), num_tasks (int), trials (int)"
            in capsys.readouterr().err
        )

    def test_types(self):
        table04 = [get_experiment("table04")]
        check_params(table04, {"ilp_time_limit_s": 20, "num_tasks": 30})
        check_params(table04, {"ilp_time_limit_s": 2.5, "trials": None})
        for bad in ({"trials": True}, {"ilp_time_limit_s": False}, {"trials": 2.0}):
            with pytest.raises(ValueError, match="table04"):
                check_params(table04, bad)

    def test_a_name_one_selected_experiment_declares_passes(self):
        specs = [get_experiment(name) for name in ("table07", "table08")]
        check_params(specs, {"num_jobs": 1000})
        with pytest.raises(ValueError) as info:
            check_params(specs, {"nosuch": 1})
        assert "table07 takes none; table08 takes num_jobs (int)" in str(info.value)

    def test_declarations_match_the_ctx_param_reads(self):
        # Every name a spec module passes to ``ctx.param`` is declared by
        # a spec of that module, and every declared name is read there.
        declared: dict[str, set[str]] = {}
        for spec in registry.all_specs():
            module = (spec.build or spec.direct).__module__
            declared.setdefault(module, set()).update(spec.params)
        for name in registry._SPEC_MODULES:
            module = importlib.import_module(f"repro.experiments.{name}")
            read = {
                node.args[0].value
                for node in ast.walk(ast.parse(inspect.getsource(module)))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "param"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ctx"
            }
            assert read == declared.get(module.__name__, set()), name
