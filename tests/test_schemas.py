"""The schemas/ golden gate and the subset JSON-Schema validator."""

import json
import os

import pytest

from repro.api import (
    AnalyzeRequest,
    BenchRequest,
    InvalidRequestError,
    LiveProtectRequest,
    RepairRequest,
    SCHEMA_VERSION,
    Workspace,
)
from repro.api.types import WIRE_KINDS
from repro.api.schema import (
    all_schemas,
    check_schemas,
    dump_schemas,
    iter_violations,
    schema_filename,
    validate,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_DIR = os.path.join(ROOT, "schemas")


class TestGoldenGate:
    """The committed schemas/ directory must match the live wire types;
    the same comparison runs in CI (`repro schemas --check`)."""

    def test_every_schema_is_committed_and_identical(self):
        problems = check_schemas(SCHEMA_DIR)
        assert not problems, (
            "schema drift -- bump SCHEMA_VERSION or fix the change:\n"
            + "\n".join(problems)
        )

    def test_no_orphan_goldens(self):
        expected = {schema_filename(name) for name in all_schemas()}
        committed = {f for f in os.listdir(SCHEMA_DIR) if f.endswith(".json")}
        assert committed == expected

    def test_version_is_one(self):
        assert SCHEMA_VERSION == 1
        for name in all_schemas():
            assert schema_filename(name).endswith(".v1.json")

    def test_check_reports_drift(self, tmp_path):
        dump_schemas(str(tmp_path))
        assert check_schemas(str(tmp_path)) == []
        victim = tmp_path / schema_filename("error")
        doc = json.loads(victim.read_text())
        doc["properties"]["error"]["required"] = ["code"]
        victim.write_text(json.dumps(doc))
        problems = check_schemas(str(tmp_path))
        assert problems and "drift" in problems[0]
        victim.unlink()
        problems = check_schemas(str(tmp_path))
        assert any("missing" in p for p in problems)


class TestValidator:
    def test_type_checks(self):
        ok, _ = validate({"a": 1}, {"type": "object"})
        assert ok
        ok, why = validate(1, {"type": "string"})
        assert not ok and "expected string" in why
        ok, why = validate(True, {"type": "integer"})
        assert not ok, "bool must not satisfy integer"
        ok, _ = validate(None, {"type": ["object", "null"]})
        assert ok

    def test_object_keywords(self):
        schema = {
            "type": "object",
            "properties": {"a": {"type": "integer"}},
            "required": ["a"],
            "additionalProperties": False,
        }
        assert validate({"a": 1}, schema)[0]
        assert "missing required" in validate({}, schema)[1]
        assert "unexpected property" in validate({"a": 1, "b": 2}, schema)[1]
        counters = {"type": "object", "additionalProperties": {"type": "integer"}}
        assert validate({"x": 1, "y": 2}, counters)[0]
        assert not validate({"x": "no"}, counters)[0]

    def test_arrays_and_enums(self):
        schema = {"type": "array", "items": {"enum": ["a", "b"]}}
        assert validate(["a", "b"], schema)[0]
        ok, why = validate(["a", "c"], schema)
        assert not ok and "enum" in why
        violations = list(iter_violations(["a", "c", "d"], schema))
        assert len(violations) == 2

    @pytest.mark.parametrize("name", sorted(all_schemas()))
    def test_schemas_are_self_consistent(self, name):
        """Every golden is valid JSON with the keywords the validator
        knows (guards against typos like 'requried')."""
        allowed = {
            "type", "properties", "required", "additionalProperties",
            "items", "enum",
        }

        def walk(doc):
            assert isinstance(doc, dict)
            assert set(doc) <= allowed, set(doc) - allowed
            for sub in doc.get("properties", {}).values():
                walk(sub)
            if isinstance(doc.get("items"), dict):
                walk(doc["items"])
            if isinstance(doc.get("additionalProperties"), dict):
                walk(doc["additionalProperties"])

        walk(all_schemas()[name])


class TestLiveDocumentsValidate:
    """Real wire documents must satisfy their committed schemas."""

    def committed(self, name):
        with open(os.path.join(SCHEMA_DIR, schema_filename(name))) as fh:
            return json.load(fh)

    def test_requests_validate(self):
        cases = [
            (AnalyzeRequest(benchmark="SIBench", level="RR"), "analyze_request"),
            (RepairRequest(source="schema T { key id; }"), "repair_request"),
            (BenchRequest(benchmarks=("SIBench",), search="beam"), "bench_request"),
        ]
        for request, name in cases:
            ok, why = validate(request.to_json(), self.committed(name))
            assert ok, why

    def test_results_validate(self):
        with Workspace(strategy="serial") as ws:
            analyze = ws.analyze(AnalyzeRequest(benchmark="SIBench"))
            repair = ws.repair(RepairRequest(benchmark="SIBench"))
            bench = ws.bench(BenchRequest(benchmarks=("SIBench",)))
        for result, name in (
            (analyze, "analyze_result"),
            (repair, "repair_result"),
            (bench, "bench_result"),
        ):
            payload = json.loads(json.dumps(result.to_json()))
            ok, why = validate(payload, self.committed(name))
            assert ok, why

    def test_repair_request_with_plan_validates(self):
        with Workspace(strategy="serial") as ws:
            result = ws.repair(RepairRequest(benchmark="SIBench"))
        request = RepairRequest(benchmark="SIBench", plan=result.plan)
        ok, why = validate(request.to_json(), self.committed("repair_request"))
        assert ok, why


def _other_type(value):
    """A JSON value of another type than ``value``."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return "x"
    if isinstance(value, str):
        return 1
    if isinstance(value, list):
        return {}
    return []


def _mutations(obj):
    """``(label, mutated copy)`` for each one-step change of one object."""
    for key, value in obj.items():
        yield f"drop {key}", {k: v for k, v in obj.items() if k != key}
        yield f"{key}=null", {**obj, key: None}
        other = _other_type(value)
        yield f"{key}={other!r}", {**obj, key: other}
        if key in ("level", "search"):
            yield f"{key}='XX'", {**obj, key: "XX"}
    yield "unknown key", {**obj, "bogus": 1}


#: List fields whose items are wire objects; their first item is mutated too.
WIRE_LISTS = ("pairs", "rows", "initial_pairs", "residual_pairs", "outcomes")


@pytest.fixture(scope="module")
def sibench_documents():
    """One JSON document of every enveloped kind, on SIBench."""
    with Workspace(strategy="serial") as ws:
        objects = [
            AnalyzeRequest(benchmark="SIBench"),
            ws.analyze(AnalyzeRequest(benchmark="SIBench")),
            RepairRequest(benchmark="SIBench"),
            ws.repair(RepairRequest(benchmark="SIBench")),
            BenchRequest(benchmarks=("SIBench",)),
            ws.bench(BenchRequest(benchmarks=("SIBench",))),
            LiveProtectRequest(benchmark="SIBench"),
            ws.protect(LiveProtectRequest(
                benchmark="SIBench", samples=20, measure=True, clients=4
            )),
        ]
    return {o.kind: json.loads(json.dumps(o.to_json())) for o in objects}


class TestDecoderAgreesWithSchema:
    """``from_json`` and the committed v1 schema accept the same documents:
    every one-step mutation of a real document is rejected by both or by
    neither."""

    @pytest.mark.parametrize("kind", sorted(WIRE_KINDS))
    def test_mutations(self, kind, sibench_documents):
        doc = sibench_documents[kind]
        with open(os.path.join(SCHEMA_DIR, schema_filename(kind))) as fh:
            golden = json.load(fh)
        cases = list(_mutations(doc))
        for name in WIRE_LISTS:
            if doc.get(name):
                first, *others = doc[name]
                cases += [
                    (f"{name}[0]: {label}", {**doc, name: [item, *others]})
                    for label, item in _mutations(first)
                ]
        disagreements = []
        for label, mutated in cases:
            schema_ok, why = validate(mutated, golden)
            try:
                WIRE_KINDS[kind].from_json(mutated)
                decoded = True
            except InvalidRequestError:
                decoded = False
            if decoded != schema_ok:
                disagreements.append(
                    f"{label}: schema {'accepts' if schema_ok else why}, "
                    f"decoder {'accepts' if decoded else 'rejects'}"
                )
        assert not disagreements, "\n".join(disagreements)

    def test_null_program_selector_decodes_as_absent(self):
        for cls in (AnalyzeRequest, RepairRequest):
            doc = cls(benchmark="SIBench").to_json()
            assert cls.from_json(dict(doc, source=None)) == cls(benchmark="SIBench")
            doc = cls(source="schema T { key id; }").to_json()
            assert cls.from_json(dict(doc, benchmark=None)) == cls(
                source="schema T { key id; }"
            )
