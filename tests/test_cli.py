"""The ``python -m repro`` CLI: argument wiring and plan files."""

import json

import pytest

from repro.cli import main


class TestTable1Command:
    def test_single_benchmark_row(self, capsys):
        assert main(["table1", "--benchmark", "SIBench"]) == 0
        out = capsys.readouterr().out
        assert "SIBench" in out
        assert "EC" in out and "AT" in out

    def test_plans_flag_prints_provenance(self, capsys):
        assert main(["table1", "--benchmark", "SIBench", "--plans"]) == 0
        out = capsys.readouterr().out
        assert "SIBench plan" in out
        assert "log SITEM.si_value" in out

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "t1.json"
        assert (
            main(["table1", "--benchmark", "SIBench", "--json", str(out_file)])
            == 0
        )
        data = json.loads(out_file.read_text())
        (row,) = data["rows"]
        assert row["name"] == "SIBench"
        assert row["ec"] == 1 and row["at"] == 0
        assert row["provenance"]["plan"]["steps"]
        assert row["repair_seconds"] >= 0

    def test_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["table1", "--benchmark", "Nope"])


class TestRepairCommand:
    def test_plan_out_then_plan_in_round_trip(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert (
            main(
                [
                    "repair",
                    "--benchmark",
                    "Courseware",
                    "--plan-out",
                    str(plan_file),
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert "5 -> 0" in first
        data = json.loads(plan_file.read_text())
        assert data["version"] == 1
        assert any(s["step"] == "logger" for s in data["steps"])

        assert (
            main(
                [
                    "repair",
                    "--benchmark",
                    "Courseware",
                    "--plan-in",
                    str(plan_file),
                    "--print-program",
                ]
            )
            == 0
        )
        second = capsys.readouterr().out
        assert "replayed" in second
        assert "COURSE_CO_ST_CNT_LOG" in second

    def test_repair_dsl_file(self, tmp_path, capsys):
        src = tmp_path / "prog.dsl"
        src.write_text(
            "schema SITEM { key si_id; field si_value; }\n"
            "txn inc(k) {\n"
            "  x := select si_value from SITEM where si_id = k;\n"
            "  update SITEM set si_value = x.si_value + 1 where si_id = k;\n"
            "}\n"
        )
        assert main(["repair", "--file", str(src)]) == 0
        out = capsys.readouterr().out
        assert "1 -> 0" in out

    def test_missing_plan_file_is_an_error(self, capsys):
        assert (
            main(
                [
                    "repair",
                    "--benchmark",
                    "SIBench",
                    "--plan-in",
                    "/nonexistent/plan.json",
                ]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err

    def test_parse_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.dsl"
        bad.write_text("schema {")
        assert main(["repair", "--file", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_single_benchmark_json(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        assert (
            main(
                ["bench", "--benchmark", "SIBench", "--json", str(out_file)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repair_s" in out
        data = json.loads(out_file.read_text())
        assert data["strategy"] == "incremental"
        (row,) = data["rows"]
        assert row["name"] == "SIBench"
        assert row["plan_steps"] == 2

    def test_bench_cache_dir_warm_start(self, tmp_path, capsys):
        """A second --cache-dir run must report a strictly higher cache
        hit rate with identical result rows."""
        cache_dir = str(tmp_path / "cache")
        runs = []
        for out_name in ("cold.json", "warm.json"):
            out_file = tmp_path / out_name
            assert (
                main(
                    [
                        "bench",
                        "--benchmark",
                        "Courseware",
                        "--cache-dir",
                        cache_dir,
                        "--json",
                        str(out_file),
                    ]
                )
                == 0
            )
            assert "cache:" in capsys.readouterr().out
            runs.append(json.loads(out_file.read_text()))
        cold, warm = runs
        assert warm["cache"]["hit_rate"] > cold["cache"]["hit_rate"]
        assert warm["cache"]["persistent_hits"] > 0

        def stable(rows):
            return [
                {
                    k: v
                    for k, v in row.items()
                    if not k.startswith("repair_seconds")
                }
                for row in rows
            ]

        assert stable(cold["rows"]) == stable(warm["rows"])

    def test_cache_dir_upgrades_default_strategy_only(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(["table1", "--benchmark", "SIBench", "--cache-dir", cache_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "using --strategy auto" in out
        # An explicit --strategy serial is respected, with a note that
        # the cache dir is unused.
        assert (
            main(
                [
                    "table1",
                    "--benchmark",
                    "SIBench",
                    "--strategy",
                    "serial",
                    "--cache-dir",
                    cache_dir,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "--cache-dir ignored" in out

    def test_bench_parallel_incremental_strategy(self, tmp_path, capsys):
        """The deprecated pooled name runs in process, with a note."""
        out_file = tmp_path / "bench.json"
        assert (
            main(
                [
                    "bench",
                    "--benchmark",
                    "SIBench",
                    "--strategy",
                    "parallel-incremental",
                    "--json",
                    str(out_file),
                ]
            )
            == 0
        )
        assert "parallel-incremental is deprecated" in capsys.readouterr().out
        data = json.loads(out_file.read_text())
        assert data["strategy"] == "incremental"
        (row,) = data["rows"]
        assert row["plan_steps"] == 2


class TestStrategyContract:
    """Regression tests for the --strategy None-vs-"serial" footgun: an
    explicit serial must make the flags *genuinely* unused -- no cache
    created on disk, no cache summary printed -- while the implicit
    default upgrades to auto per the documented contract."""

    def test_explicit_serial_opens_no_cache(self, tmp_path, capsys):
        import os

        cache_dir = tmp_path / "never-created"
        assert (
            main(
                [
                    "table1",
                    "--benchmark",
                    "SIBench",
                    "--strategy",
                    "serial",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "--cache-dir ignored" in out
        assert "cache:" not in out, "serial must not print a cache summary"
        assert not os.path.exists(cache_dir), (
            "an ignored --cache-dir must not be created on disk"
        )

    def test_explicit_serial_repair_opens_no_cache(self, tmp_path, capsys):
        import os

        cache_dir = tmp_path / "never-created"
        assert (
            main(
                [
                    "repair",
                    "--benchmark",
                    "SIBench",
                    "--strategy",
                    "serial",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "--cache-dir ignored" in out
        assert "cache:" not in out
        assert not os.path.exists(cache_dir)

    def test_implicit_default_with_cache_dir_uses_and_fills_it(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        assert (
            main(
                ["table1", "--benchmark", "SIBench", "--cache-dir", str(cache_dir)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "using --strategy auto" in out
        assert "cache:" in out
        assert (cache_dir / "oracle_cache.sqlite").exists()

    def test_plain_default_stays_serial_without_notes(self, capsys):
        assert main(["table1", "--benchmark", "SIBench"]) == 0
        out = capsys.readouterr().out
        assert "note:" not in out and "cache:" not in out

    def test_plan_in_notes_ignored_oracle_flags(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert (
            main(["repair", "--benchmark", "SIBench", "--plan-out", str(plan_file)])
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "repair",
                    "--benchmark",
                    "SIBench",
                    "--plan-in",
                    str(plan_file),
                    "--strategy",
                    "parallel-incremental",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "--plan-in replays" in out
        assert "--strategy/--cache-dir ignored" in out


class TestSchemasCommand:
    def test_dump_then_check_round_trip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "schemas")
        assert main(["schemas", "--out", out_dir]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["schemas", "--out", out_dir, "--check"]) == 0
        assert "match" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, capsys):
        out_dir = tmp_path / "schemas"
        assert main(["schemas", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        victim = next(out_dir.glob("*.json"))
        victim.write_text("{}")
        assert main(["schemas", "--out", str(out_dir), "--check"]) == 1
        assert "schema drift" in capsys.readouterr().err

    def test_committed_goldens_are_current(self, capsys):
        """The same gate CI runs: schemas/ in the repo matches the code."""
        import os

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        assert main(["schemas", "--out", os.path.join(root, "schemas"), "--check"]) == 0
        capsys.readouterr()
