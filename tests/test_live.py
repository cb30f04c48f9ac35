"""Live repair (:mod:`repro.live`): compilation, interception,
validation, overhead, and the protect surface end to end."""

import json
import random
import threading

import pytest

from repro.api import (
    InvalidRequestError,
    LiveProtectRequest,
    LiveProtectResult,
    Workspace,
    decode_request,
)
from repro.corpus import BY_NAME
from repro.errors import ReproError
from repro.live import (
    LiveInterceptor,
    LiveOpRewriter,
    build_rewriter,
    compile_plan,
    explore_anomalies,
    measure_overhead,
    validate_benchmark,
    validate_corpus,
)
from repro.refactor.migrate import migrate_database
from repro.repair import repair
from repro.semantics import run_serial
from repro.store import PerfConfig


def _compiled(name):
    bench = BY_NAME[name]
    program = bench.program()
    report = repair(program)
    return bench, program, report, compile_plan(program, report.plan)


class TestCompile:
    def test_every_original_db_command_gets_a_rule(self):
        from repro.lang import ast

        _, program, _, ruleset = _compiled("Courseware")
        labels = {
            (txn.name, cmd.label)
            for txn in program.transactions
            for cmd in ast.iter_commands(txn.body)
            if isinstance(cmd, (ast.Select, ast.Update, ast.Insert))
        }
        assert set(ruleset.rules) == labels

    def test_postprocess_is_the_only_unsupported_step(self):
        _, _, _, ruleset = _compiled("Courseware")
        assert [u.step["step"] for u in ruleset.unsupported] == ["postprocess"]
        assert "no sound runtime analogue" in ruleset.unsupported[0].reason

    def test_compile_is_deterministic(self):
        _, _, _, a = _compiled("SmallBank")
        _, _, _, b = _compiled("SmallBank")
        assert a.summary() == b.summary()
        assert [u.to_json() for u in a.unsupported] == [
            u.to_json() for u in b.unsupported
        ]

    def test_serving_labels_exist_in_live_program(self):
        _, _, _, ruleset = _compiled("SmallBank")
        for (txn, _), rule in ruleset.rules.items():
            for live_label in rule.serving:
                assert (txn, live_label) in ruleset.live_commands

    def test_identity_rules_are_not_counted_as_rewritten(self):
        _, _, _, ruleset = _compiled("Courseware")
        identity = sum(1 for r in ruleset.rules.values() if r.identity)
        assert ruleset.rewritten_rule_count() == len(ruleset.rules) - identity
        assert 0 < ruleset.rewritten_rule_count() < len(ruleset.rules)


class TestInterceptor:
    def _serial_pair(self, name, scale=2, seed=5):
        from repro.live.validate import corpus_calls

        bench, program, report, ruleset = _compiled(name)
        db = bench.database(scale=scale)
        live_db = migrate_database(db, ruleset.live_program, ruleset.rewrites)
        static_db = migrate_database(
            db, report.repaired_program, report.rewrites
        )
        calls = corpus_calls(bench, random.Random(seed), scale)
        static = run_serial(report.repaired_program, static_db, calls)
        live = run_serial(
            program, live_db, calls, executor=LiveInterceptor(ruleset)
        )
        return ruleset, static, live

    @pytest.mark.parametrize("name", ["Courseware", "SmallBank", "SIBench"])
    def test_serial_results_match_static_repair(self, name):
        _, static, live = self._serial_pair(name)
        assert static.results == live.results

    def test_counters_account_for_every_issuance(self):
        ruleset, _, _ = self._serial_pair("Courseware")
        counters = ruleset.counters()
        assert sum(c["hits"] for c in counters.values()) > 0
        for rule in ruleset.rules.values():
            if rule.hits:
                # Every issuance either executed live commands or was
                # skipped because a merge partner already ran them.
                assert rule.rewrites + rule.skips > 0

    @pytest.mark.parametrize("name", ["SmallBank", "Wikipedia", "TPC-C"])
    def test_shadow_state_survives_address_reuse(self, name, monkeypatch):
        """``run_serial`` drops each finished instance, so a later one
        may get its address.  Shadow state keyed by ``id(instance)``
        then leaked across instances (``unbound argument``); forcing
        every ``id`` in the interceptor module to collide shows the
        state is keyed by the instance itself."""
        import repro.live.intercept as intercept
        from repro.live.validate import corpus_calls

        bench, program, _, ruleset = _compiled(name)

        def replay():
            live_db = migrate_database(
                bench.database(2), ruleset.live_program, ruleset.rewrites
            )
            calls = corpus_calls(bench, random.Random(3), 2)
            return run_serial(
                program, live_db, calls, executor=LiveInterceptor(ruleset)
            )

        expected = replay().results
        monkeypatch.setattr(intercept, "id", lambda obj: 0, raising=False)
        assert replay().results == expected

    def test_reset_counters(self):
        ruleset, _, _ = self._serial_pair("Courseware")
        ruleset.reset_counters()
        assert all(
            c == {"hits": 0, "rewrites": 0, "skips": 0}
            for c in ruleset.counters().values()
        )


class TestValidate:
    def test_courseware_passes_the_differential(self):
        verdict = validate_benchmark(BY_NAME["Courseware"], samples=20)
        assert verdict.serial_match
        assert verdict.verdict_match
        assert verdict.passed
        assert verdict.original.anomalies > 0  # the bug it protects from
        assert verdict.live.anomalies == 0

    def test_external_plan_matches_own_repair(self):
        bench = BY_NAME["SIBench"]
        plan = repair(bench.program()).plan
        own = validate_benchmark(bench, samples=10)
        ext = validate_benchmark(bench, plan=plan, samples=10)
        assert own.rules == ext.rules
        assert own.passed and ext.passed

    def test_counters_keyed_like_summary_rows(self):
        verdict = validate_benchmark(BY_NAME["SIBench"], samples=5)
        _, _, _, ruleset = _compiled("SIBench")
        keys = {f"{r['txn']}/{r['label']}" for r in ruleset.summary()}
        assert set(verdict.counters) == keys

    def test_exploration_is_deterministic(self):
        bench = BY_NAME["SIBench"]
        program = bench.program()
        db = bench.database(scale=2)
        from repro.live.validate import corpus_calls

        calls = corpus_calls(bench, random.Random(3), 2)
        a = explore_anomalies(program, db, calls, samples=15, seed=4)
        b = explore_anomalies(program, db, calls, samples=15, seed=4)
        assert a == b

    def test_validate_corpus_rejects_unknown_names(self):
        with pytest.raises(ReproError, match="unknown benchmark"):
            validate_corpus(names=["Nope"], samples=1)

    def test_verdict_json_shape(self):
        verdict = validate_benchmark(BY_NAME["SIBench"], samples=5)
        doc = verdict.to_json()
        assert doc["benchmark"] == "SIBench"
        for side in ("original", "static", "target", "live"):
            assert set(doc[side]) == {"anomalies", "errors", "samples"}


class TestOverhead:
    CFG = PerfConfig(duration_ms=1000, warmup_ms=100, seed=7)

    def test_measurement_is_finite_and_live(self):
        m = measure_overhead(
            BY_NAME["SIBench"], config=self.CFG, clients=4, scale=2
        )
        assert m.live_throughput > 0
        assert m.predicted_throughput > 0
        assert m.overhead_ratio == pytest.approx(
            m.predicted_throughput / m.live_throughput
        )

    def test_measurement_is_deterministic(self):
        a = measure_overhead(
            BY_NAME["SIBench"], config=self.CFG, clients=4, scale=2
        )
        b = measure_overhead(
            BY_NAME["SIBench"], config=self.CFG, clients=4, scale=2
        )
        assert a.to_json() == b.to_json()

    def test_measures_the_plan_it_is_given(self):
        """A cut plan compiles fewer rewriting rules than the full
        repair; the measurement must price the cut plan's rules."""
        from repro.repair.plan import RewritePlan

        plan = repair(BY_NAME["TPC-C"].program()).plan
        cut = RewritePlan(plan.steps[:1])
        with Workspace(strategy="serial") as ws:
            ruleset, _, overhead = ws.protect_program(
                "TPC-C", cut, samples=5, measure=True, clients=4
            )
        assert overhead.rewritten_rules == ruleset.rewritten_rule_count()
        assert overhead.rewritten_rules < compile_plan(
            BY_NAME["TPC-C"].program(), plan
        ).rewritten_rule_count()

    def test_rewriter_falls_back_on_unknown_txn(self):
        from repro.store.profile import OpProfile

        rewriter = LiveOpRewriter({}, {})
        profile = OpProfile(
            txn="ghost", ops=(("r", "T"),), serializable=False
        )
        ops, extra = rewriter.rewrite(profile)
        assert tuple(ops) == (("r", "T"),)
        assert extra == 0.0

    def test_build_rewriter_covers_every_mix_txn(self):
        bench = BY_NAME["SIBench"]
        _, _, _, ruleset = _compiled("SIBench")
        rewriter = build_rewriter(bench, ruleset, scale=2, seed=3)
        for name, _, _ in bench.mix:
            assert name in rewriter.live_ops


class TestWire:
    def test_request_round_trip(self):
        request = LiveProtectRequest(
            benchmark="Courseware", samples=30, measure=True, tenant="t1"
        )
        assert LiveProtectRequest.from_json(request.to_json()) == request

    def test_decode_request_routes_the_kind(self):
        doc = LiveProtectRequest(benchmark="SIBench").to_json()
        decoded = decode_request(doc)
        assert isinstance(decoded, LiveProtectRequest)

    def test_nonpositive_knobs_rejected(self):
        base = LiveProtectRequest(benchmark="X").to_json()
        for field in ("samples", "scale", "clients"):
            bad = dict(base)
            bad[field] = 0
            with pytest.raises(InvalidRequestError, match=field):
                LiveProtectRequest.from_json(bad)

    def test_missing_benchmark_rejected(self):
        doc = LiveProtectRequest(benchmark="X").to_json()
        del doc["benchmark"]
        with pytest.raises(InvalidRequestError):
            LiveProtectRequest.from_json(doc)


@pytest.fixture(scope="module")
def protect_result():
    with Workspace(strategy="serial") as ws:
        yield ws.protect(
            LiveProtectRequest(
                benchmark="Courseware", samples=20, measure=True, clients=4
            )
        )


class TestWorkspaceProtect:
    def test_result_passes(self, protect_result):
        assert protect_result.passed
        assert protect_result.serial_match and protect_result.verdict_match
        assert protect_result.benchmark == "Courseware"
        assert protect_result.rules > 0
        assert protect_result.unsupported == 1

    def test_anomaly_sides_present(self, protect_result):
        assert set(protect_result.anomalies) == {
            "original",
            "static",
            "target",
            "live",
        }
        assert protect_result.anomalies["original"]["anomalies"] > 0

    def test_rule_summary_carries_serial_counters(self, protect_result):
        rows = protect_result.rule_summary
        assert rows
        assert sum(r["hits"] for r in rows) > 0
        for row in rows:
            assert {"txn", "label", "op", "table", "serving"} <= set(row)

    def test_overhead_present_when_measured(self, protect_result):
        assert protect_result.overhead is not None
        assert protect_result.overhead["overhead_ratio"] > 0

    def test_result_round_trips(self, protect_result):
        doc = protect_result.to_json()
        assert LiveProtectResult.from_json(doc) == protect_result

    def test_result_matches_committed_schema(self, protect_result):
        import os

        from repro.api.schema import iter_violations, schema_filename

        schema_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "schemas",
        )
        with open(
            os.path.join(schema_dir, schema_filename("live_protect_result"))
        ) as fh:
            schema = json.load(fh)
        assert not list(iter_violations(protect_result.to_json(), schema))

    def test_protect_program_accepts_external_plan(self):
        bench = BY_NAME["SIBench"]
        plan = repair(bench.program()).plan
        with Workspace(strategy="serial") as ws:
            ruleset, verdict, overhead = ws.protect_program(
                "SIBench", plan, samples=10
            )
        assert verdict.passed
        assert overhead is None
        assert len(ruleset.rules) == verdict.rules


class TestServiceProtect:
    @pytest.fixture(scope="class")
    def base(self):
        from repro.service import make_server

        srv = make_server(port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.server_address[:2]
        yield f"http://{host}:{port}"
        srv.close()
        thread.join(timeout=5)

    def _call(self, base, method, path, body=None):
        import urllib.error
        import urllib.request

        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=600) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_sync_protect_round_trip(self, base):
        status, payload = self._call(
            base,
            "POST",
            "/v1/protect",
            LiveProtectRequest(benchmark="SIBench", samples=10).to_json(),
        )
        assert status == 200, payload
        assert payload["kind"] == "live_protect_result"
        result = LiveProtectResult.from_json(payload)
        assert result.passed

    def test_async_protect_job(self, base):
        import time

        status, job = self._call(
            base,
            "POST",
            "/v1/jobs",
            LiveProtectRequest(benchmark="SIBench", samples=10).to_json(),
        )
        assert status == 202, job
        assert job["kind"] == "protect"
        deadline = time.time() + 600
        while time.time() < deadline:
            status, job = self._call(base, "GET", f"/v1/jobs/{job['id']}")
            assert status == 200
            if job["status"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert job["status"] == "done", job.get("error")
        assert job["result"]["kind"] == "live_protect_result"
        assert job["result"]["passed"] is True

    def test_unknown_benchmark_maps_to_api_error(self, base):
        status, payload = self._call(
            base,
            "POST",
            "/v1/protect",
            LiveProtectRequest(benchmark="Nope").to_json(),
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown-benchmark"


class TestChaosRegistry:
    def test_registry_names(self):
        from repro.service import SCENARIOS, scenario_help

        assert set(SCENARIOS) == {"faults", "tenant-isolation"}
        for name in SCENARIOS:
            assert name in scenario_help()

    def test_unknown_scenario_lists_the_valid_ones(self):
        from repro.service import run_scenario

        with pytest.raises(ReproError) as err:
            run_scenario("bogus")
        assert "faults" in str(err.value)
        assert "tenant-isolation" in str(err.value)

    def test_cli_help_enumerates_scenarios(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["chaos", "--help"])
        out = capsys.readouterr().out
        assert "'faults'" in out
        assert "'tenant-isolation'" in out

    def test_cli_rejects_unknown_scenario(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["chaos", "--scenario", "bogus"])
        err = capsys.readouterr().err
        assert "invalid choice" in err


class TestCliProtect:
    def test_protect_writes_a_report(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "protect.json"
        code = main(
            [
                "protect",
                "--benchmark",
                "SIBench",
                "--samples",
                "10",
                "--report",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "live protection: PASS" in out
        doc = json.loads(report.read_text())
        assert doc["kind"] == "live_protect_result"
        assert doc["passed"] is True

    def test_protect_plan_in(self, tmp_path, capsys):
        from repro.cli import main

        plan_file = tmp_path / "plan.json"
        assert (
            main(
                [
                    "repair",
                    "--benchmark",
                    "SIBench",
                    "--plan-out",
                    str(plan_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "protect",
                "--benchmark",
                "SIBench",
                "--plan-in",
                str(plan_file),
                "--samples",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"plan from {plan_file}" in out
