"""The repro.api façade: Workspace, wire types, errors, progress."""

import json

import pytest

import repro
from repro.analysis import AnomalyOracle, CC
from repro.api import (
    AnalyzeRequest,
    AnalyzeResult,
    BenchRequest,
    InvalidRequestError,
    PairData,
    RepairRequest,
    RepairResult,
    SchemaVersionError,
    UnknownBenchmarkError,
    Workspace,
    decode_request,
    requested_strategy,
)
from repro.corpus import BY_NAME
from repro.errors import ParseError, ReproError
from repro.lang import print_program


class TestRequestDecoding:
    def test_round_trip(self):
        req = AnalyzeRequest(benchmark="SIBench", level="CC")
        assert AnalyzeRequest.from_json(json.loads(json.dumps(req.to_json()))) == req
        rreq = RepairRequest(source="schema T { key id; }", search="beam")
        assert RepairRequest.from_json(rreq.to_json()) == rreq
        breq = BenchRequest(benchmarks=("SIBench", "Courseware"))
        assert BenchRequest.from_json(breq.to_json()) == breq

    def test_wrong_version_is_schema_version_error(self):
        data = AnalyzeRequest(benchmark="SIBench").to_json()
        data["version"] = 2
        with pytest.raises(SchemaVersionError) as exc:
            AnalyzeRequest.from_json(data)
        assert exc.value.code == "unsupported-version"

    def test_wrong_kind_unknown_field_and_bad_enum(self):
        good = AnalyzeRequest(benchmark="SIBench").to_json()
        bad_kind = dict(good, kind="repair_request")
        with pytest.raises(InvalidRequestError):
            AnalyzeRequest.from_json(bad_kind)
        with pytest.raises(InvalidRequestError, match="unknown field"):
            AnalyzeRequest.from_json(dict(good, nope=1))
        with pytest.raises(InvalidRequestError, match="level"):
            AnalyzeRequest.from_json(dict(good, level="XX"))
        with pytest.raises(InvalidRequestError, match="use_prefilter"):
            AnalyzeRequest.from_json(dict(good, use_prefilter="yes"))

    def test_decode_request_dispatch(self):
        req = decode_request(RepairRequest(benchmark="SIBench").to_json())
        assert isinstance(req, RepairRequest)
        with pytest.raises(InvalidRequestError, match="unknown request kind"):
            decode_request({"version": 1, "kind": "nope"})
        with pytest.raises(InvalidRequestError):
            decode_request("not an object")

    def test_result_round_trip(self):
        with Workspace(strategy="serial") as ws:
            result = ws.analyze(AnalyzeRequest(benchmark="SIBench"))
        again = AnalyzeResult.from_json(json.loads(json.dumps(result.to_json())))
        assert again == result

    def test_result_decoding_is_strict_too(self):
        """Results reject unknown fields and missing schema-required
        lists, same as requests -- a drifted server response must fail
        loudly, not round-trip as a truncated verdict."""
        with Workspace(strategy="serial") as ws:
            doc = ws.analyze(AnalyzeRequest(benchmark="SIBench")).to_json()
        with pytest.raises(InvalidRequestError, match="unknown field"):
            AnalyzeResult.from_json(dict(doc, bogus=1))
        missing = dict(doc)
        del missing["pairs"]
        with pytest.raises(InvalidRequestError, match="pairs"):
            AnalyzeResult.from_json(missing)
        pair = dict(doc["pairs"][0])
        del pair["fields1"]
        with pytest.raises(InvalidRequestError, match="fields1"):
            AnalyzeResult.from_json(dict(doc, pairs=[pair]))


class TestErrorCodes:
    def test_every_library_error_has_a_stable_code(self):
        from repro import errors

        seen = set()
        for name in dir(errors):
            cls = getattr(errors, name)
            if isinstance(cls, type) and issubclass(cls, ReproError):
                assert cls.code and cls.code == cls.code.lower()
                seen.add(cls.code)
        assert "parse-error" in seen and "plan-error" in seen

    def test_api_errors_extend_repro_error(self):
        assert issubclass(InvalidRequestError, ReproError)
        assert issubclass(UnknownBenchmarkError, InvalidRequestError)

    def test_error_payload_shape(self):
        payload = ParseError("bad", line=2, column=3).to_payload()
        assert payload == {"error": {"code": "parse-error", "message": "2:3: bad"}}


class TestWorkspace:
    def test_analyze_matches_direct_oracle(self):
        program = BY_NAME["SIBench"].program()
        direct = AnomalyOracle().analyze(program)
        with Workspace(strategy="serial") as ws:
            result = ws.analyze(AnalyzeRequest(benchmark="SIBench"))
        assert result.pairs == tuple(PairData.from_pair(p) for p in direct.pairs)
        assert result.pairs_checked == direct.pairs_checked

    def test_repair_matches_direct_library_call(self):
        program = BY_NAME["Courseware"].program()
        direct = repro.repair(program)
        with Workspace(strategy="serial") as ws:
            result = ws.repair(RepairRequest(benchmark="Courseware"))
        assert result.repaired_program == print_program(direct.repaired_program)
        assert result.plan == direct.plan.to_json()
        assert result.serializable_variant == print_program(
            direct.serializable_variant()
        )

    def test_incremental_strategy_same_verdicts(self):
        with Workspace(strategy="serial") as serial_ws, Workspace(
            strategy="incremental"
        ) as warm_ws:
            req = RepairRequest(benchmark="SIBench")
            cold = serial_ws.repair(req)
            warm = warm_ws.repair(req)
        assert warm.repaired_program == cold.repaired_program
        assert warm.plan == cold.plan
        assert warm.strategy == "incremental"

    def test_level_threading(self):
        program = BY_NAME["Courseware"].program()
        direct = AnomalyOracle(CC).analyze(program)
        with Workspace(strategy="serial") as ws:
            result = ws.analyze(AnalyzeRequest(benchmark="Courseware", level="CC"))
        assert result.level == "CC"
        assert len(result.pairs) == len(direct.pairs)

    def test_repair_request_level_is_threaded(self):
        """A CC repair request must actually repair at CC, not EC."""
        from repro.corpus import BY_NAME

        program = BY_NAME["Courseware"].program()
        direct = repro.repair(program, level=CC)
        with Workspace(strategy="serial") as ws:
            result = ws.repair(RepairRequest(benchmark="Courseware", level="CC"))
        assert len(result.initial_pairs) == len(direct.initial_pairs)
        assert result.repaired_program == print_program(direct.repaired_program)

    def test_replay_through_plan(self):
        with Workspace(strategy="serial") as ws:
            first = ws.repair(RepairRequest(benchmark="SIBench"))
            again = ws.repair(
                RepairRequest(benchmark="SIBench", plan=first.plan)
            )
        assert again.strategy == "replay"
        assert again.repaired_program == first.repaired_program

    def test_source_xor_benchmark(self):
        with Workspace(strategy="serial") as ws:
            with pytest.raises(InvalidRequestError, match="exactly one"):
                ws.analyze(AnalyzeRequest())
            with pytest.raises(InvalidRequestError, match="exactly one"):
                ws.analyze(
                    AnalyzeRequest(source="schema T { key id; }", benchmark="SIBench")
                )

    def test_unknown_benchmark_code(self):
        with Workspace(strategy="serial") as ws:
            with pytest.raises(UnknownBenchmarkError) as exc:
                ws.repair(RepairRequest(benchmark="Nope"))
        assert exc.value.code == "unknown-benchmark"

    def test_parse_error_surfaces_with_code(self):
        with Workspace(strategy="serial") as ws:
            with pytest.raises(ParseError):
                ws.analyze(AnalyzeRequest(source="schema {"))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidRequestError, match="unknown strategy"):
            Workspace(strategy="warp-speed")

    def test_bench_row_matches_table1(self):
        from repro.exp import run_table1_row

        row = run_table1_row(BY_NAME["SIBench"])
        with Workspace(strategy="serial") as ws:
            result = ws.bench(BenchRequest(benchmarks=("SIBench",)))
        (bench_row,) = result.rows
        assert (bench_row.ec, bench_row.at) == (row.ec, row.at)
        assert (bench_row.cc, bench_row.rr) == (row.cc, row.rr)
        assert bench_row.plan_steps == len(row.plan)
        assert bench_row.plan == row.plan.to_json()

    def test_stats_shape_and_counters(self):
        with Workspace(strategy="incremental") as ws:
            ws.analyze(AnalyzeRequest(benchmark="SIBench"))
            stats = ws.stats()
        assert stats["version"] == repro.__version__
        assert stats["strategy"] == "incremental"
        assert stats["requests"]["analyze"] == 1
        assert stats["cache"]["misses"] > 0
        assert stats["sessions"]["created"] > 0

    def test_bench_counts_as_one_request(self):
        """A bench request's internal repair/analyze calls must not
        inflate the /v1/stats request counters."""
        with Workspace(strategy="serial") as ws:
            ws.bench(BenchRequest(benchmarks=("SIBench",)))
            requests = ws.stats()["requests"]
        assert requests == {
            "analyze": 0,
            "repair": 0,
            "bench": 1,
            "protect": 0,
        }

    def test_serial_workspace_has_no_cache(self):
        with Workspace(strategy="serial") as ws:
            assert ws.cache is None
            assert ws.stats()["cache"] is None

    def test_caller_owned_strategy_survives_close(self):
        from repro.analysis.pipeline import IncrementalStrategy

        runner = IncrementalStrategy()
        try:
            with Workspace(strategy=runner) as ws:
                ws.analyze(AnalyzeRequest(benchmark="SIBench"))
            # close() must not have torn down the caller's pool.
            assert runner.pool.counters()["created"] > 0
            runner.run_levels([], [], True)  # still usable
        finally:
            runner.close()


class TestProgressEvents:
    def collect(self, ws, request):
        events = []
        if isinstance(request, AnalyzeRequest):
            ws.analyze(request, on_progress=events.append)
        else:
            ws.repair(request, on_progress=events.append)
        return [e.stage for e in events]

    def test_analyze_emits_start_and_done(self):
        with Workspace(strategy="serial") as ws:
            stages = self.collect(ws, AnalyzeRequest(benchmark="SIBench"))
        assert stages[0] == "analyze.start" and stages[-1] == "analyze.done"

    def test_pipeline_analyze_emits_solved(self):
        with Workspace(strategy="incremental") as ws:
            stages = self.collect(ws, AnalyzeRequest(benchmark="SIBench"))
        assert "analyze.solved" in stages

    def test_repair_emits_search_events(self):
        with Workspace(strategy="serial") as ws:
            stages = self.collect(ws, RepairRequest(benchmark="Courseware"))
        assert "search.start" in stages and "search.done" in stages
        assert stages.count("search.pair") == 5  # Courseware's five pairs

    def test_replay_emits_replay_events(self):
        with Workspace(strategy="serial") as ws:
            first = ws.repair(RepairRequest(benchmark="SIBench"))
            events = []
            ws.repair(
                RepairRequest(benchmark="SIBench", plan=first.plan),
                on_progress=events.append,
            )
        assert [e.stage for e in events] == ["search.start", "search.done"]
        assert events[0].detail["mode"] == "replay"

    def test_reused_searcher_does_not_leak_previous_callback(self):
        from repro.corpus import BY_NAME
        from repro.repair.search import GreedySearch

        searcher = GreedySearch()
        program = BY_NAME["SIBench"].program()
        events = []
        with Workspace(strategy="serial") as ws:
            ws.repair_program(program, search=searcher, on_progress=events.append)
            first = len(events)
            assert first > 0
            ws.repair_program(program, search=searcher)  # no callback
        assert len(events) == first, "stale progress callback kept firing"

    def test_event_json_shape(self):
        events = []
        with Workspace(strategy="serial") as ws:
            ws.analyze(
                AnalyzeRequest(benchmark="SIBench"), on_progress=events.append
            )
        doc = events[0].to_json()
        assert set(doc) == {"stage", "detail"}


class TestStrategyContract:
    def test_default_stays_serial(self):
        assert requested_strategy(None) == ("serial", None)

    def test_flags_upgrade_default_to_auto(self):
        strategy, note = requested_strategy(None, cache_dir="/tmp/x")
        assert strategy == "auto" and "--cache-dir" in note

    def test_explicit_serial_is_respected(self):
        strategy, note = requested_strategy("serial", cache_dir="/tmp/x")
        assert strategy == "serial" and "ignored" in note

    def test_explicit_choice_passes_through(self):
        assert requested_strategy("incremental", cache_dir="/tmp/x") == (
            "incremental",
            None,
        )

    def test_pooled_names_note_their_deprecation(self):
        for name in ("parallel", "parallel-incremental"):
            strategy, note = requested_strategy(name)
            assert strategy == name
            assert "deprecated" in note and "\n" not in note


class TestVersionSingleSourcing:
    def test_version_matches_pyproject(self):
        import os
        import re

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:
            declared = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(), re.M)
        assert declared, "pyproject.toml lost its version field"
        assert repro.__version__ == declared.group(1)

    def test_wrapper_signature_parity(self):
        """repro.repair / detect_anomalies stay drop-in replacements."""
        program = repro.parse_program(
            "schema T { key id; field v; }\n"
            "txn bump(k) {\n"
            "  x := select v from T where id = k;\n"
            "  update T set v = x.v + 1 where id = k;\n"
            "}\n"
        )
        pairs = repro.detect_anomalies(program, level=repro.EC, use_prefilter=True)
        assert len(pairs) == 1
        report = repro.repair(program, strategy="serial", search="greedy")
        assert report.residual_pairs == []
        assert "extras" in vars(report)


def test_repair_result_json_round_trip():
    with Workspace(strategy="serial") as ws:
        result = ws.repair(RepairRequest(benchmark="Courseware"))
    again = RepairResult.from_json(json.loads(json.dumps(result.to_json())))
    assert again == result
