"""Each output check passes on genuine outputs and fails on a corrupted one."""

import copy
import json

import pytest

from perfbench import checks, jobs
from perfbench.common import ROOT
from perfbench.table1 import TIMING_FIELDS

SEED = 3


# -- table1 -------------------------------------------------------------------


@pytest.fixture(scope="module")
def table1_pass():
    from repro.api import BenchRequest, Workspace
    from repro.corpus import BY_NAME

    names = ("Twitter", "SIBench")
    with Workspace(strategy="incremental") as ws:
        result = ws.bench(BenchRequest(benchmarks=names))
        pairs = {
            name: sorted(
                list(p.key()) for p in ws.analyze_program(BY_NAME[name].program()).pairs
            )
            for name in names
        }
    rows = []
    for row in result.rows:
        doc = row.to_json()
        for field in TIMING_FIELDS:
            doc.pop(field)
        rows.append(doc)
    return {"rows": rows, "pairs": pairs}


@pytest.fixture(scope="module")
def table1_reference(table1_pass):
    return checks.table1_reference(table1_pass["rows"])


def test_table1_accepts_genuine_rows(table1_pass, table1_reference):
    reordered = dict(table1_pass, rows=table1_pass["rows"][::-1])
    assert checks.check_table1([table1_pass, reordered], table1_reference, SEED) == []


def test_table1_rejects_a_plan_with_one_step_dropped(table1_pass, table1_reference):
    broken = copy.deepcopy(table1_pass)
    row = broken["rows"][0]
    assert len(row["plan"]["steps"]) > 1
    del row["plan"]["steps"][0]
    errors = checks.check_table1([broken], table1_reference, SEED)
    assert any(row["name"] in e for e in errors), errors


def test_table1_rejects_a_changed_pair_set(table1_pass, table1_reference):
    broken = copy.deepcopy(table1_pass)
    broken["pairs"]["Twitter"].pop()
    errors = checks.check_table1([broken], table1_reference, SEED)
    assert any("EC pair set" in e for e in errors), errors


def test_table1_rejects_passes_that_disagree(table1_pass, table1_reference):
    other = copy.deepcopy(table1_pass)
    other["rows"][1]["cc"] += 1
    errors = checks.check_table1([table1_pass, other], table1_reference, SEED)
    assert errors == ["pass 2 returned other rows than pass 1"]


# -- service ------------------------------------------------------------------


@pytest.fixture(scope="module")
def service_jobs():
    from repro.api import Workspace
    from repro.api.types import decode_request

    plan = jobs.JobPlan(SEED)
    records = []
    with Workspace(strategy="incremental") as ws:
        for index in range(6):
            key, doc, _ = plan.next()
            request = decode_request(doc)
            if doc["kind"] == "analyze_request":
                result = ws.analyze(request)
            else:
                result = ws.repair(request)
            job = {
                "id": f"job-{index}",
                "kind": doc["kind"].split("_")[0],
                "status": "done",
                "events": [],
                "created_at": 1.0,
                "started_at": 2.0,
                "finished_at": 3.0,
                "attempts": 1,
                "error": None,
                "result": result.to_json(),
                "tenant": "default",
                "worker": "w0-1",
            }
            records.append({"key": key, "doc": job})
    with open(ROOT / "schemas" / "job.v1.json") as fh:
        schema = json.load(fh)
    return records, checks.service_reference(plan.distinct, plan.shapes), schema


def test_service_reference_renumbers_like_direct_serial_calls():
    from benchmarks.service_load import job_request
    from repro.api import Workspace

    requests, shapes = {}, {}
    index = jobs.FIRST_INDEX
    for kind in jobs.KINDS:
        for txns in (2, 4):
            for _ in range(2):
                index += 417
                requests[str(index)] = job_request(index, kind=kind, txns=txns)
                shapes[str(index)] = (kind, txns)
    reference = checks.service_reference(requests, shapes)
    with Workspace(strategy="serial") as ws:
        direct = {key: checks.serial_result(ws, doc) for key, doc in requests.items()}
    assert reference == direct


def _ids(records):
    return [r["doc"]["id"] for r in records]


def test_service_accepts_genuine_jobs(service_jobs):
    records, reference, schema = service_jobs
    assert checks.check_service(
        records, _ids(records), _ids(records), reference, schema
    ) == []


def test_service_rejects_a_tampered_job_result(service_jobs):
    records, reference, schema = service_jobs
    broken = copy.deepcopy(records)
    result = broken[0]["doc"]["result"]
    if "pairs" in result:
        result["pairs_checked"] += 1
    else:
        result["repaired_program"] += "\n"
    errors = checks.check_service(broken, _ids(broken), _ids(broken), reference, schema)
    assert errors == ["job job-0: result differs from the serial loop's"]


def test_service_rejects_an_invalid_document_and_a_lost_job(service_jobs):
    records, reference, schema = service_jobs
    broken = copy.deepcopy(records)
    broken[1]["doc"]["status"] = "exploded"
    errors = checks.check_service(
        broken, _ids(broken)[1:], _ids(broken), reference, schema
    )
    assert any("not a job.v1 document" in e for e in errors)
    assert any("store holds other jobs" in e for e in errors)


# -- protect ------------------------------------------------------------------


@pytest.fixture(scope="module")
def protect_pass():
    from repro.api import Workspace
    from repro.corpus import BY_NAME

    from perfbench.protect import protect_one

    bench = BY_NAME["SmallBank"]
    with Workspace(strategy="incremental") as ws:
        report = ws.repair_program(bench.program())
    return {"SmallBank": protect_one(bench, report, SEED, samples=20)}


def test_protect_accepts_genuine_passes(protect_pass):
    assert checks.check_protect([protect_pass, copy.deepcopy(protect_pass)]) == []


def test_protect_rejects_a_flipped_verdict(protect_pass):
    broken = copy.deepcopy(protect_pass)
    sides = broken["SmallBank"]["anomalies"]
    assert sides["target"]["anomalies"] > 0
    sides["live"]["anomalies"] = 0
    errors = checks.check_protect([broken])
    assert errors and errors[0].startswith("SmallBank: live rules disagree")


def test_protect_rejects_passes_that_disagree(protect_pass):
    other = copy.deepcopy(protect_pass)
    other["SmallBank"]["anomalies"]["live"]["anomalies"] += 1
    assert checks.check_protect([protect_pass, other]) == [
        "pass 2: anomaly counts or throughputs differ from pass 1"
    ]


def _add_antidependency_cycle(history):
    """Two instances each read a field the other later overwrites, with
    neither write in view: rw edges both ways."""
    from repro.semantics.events import READ, WRITE, Event
    from repro.semantics.history import Step

    state = history.state
    a, b = history.instances[:2]
    record = ("CYCLE", (0,))
    for instance, kind, view in (
        (a, READ, frozenset()),
        (b, READ, frozenset()),
        (b, WRITE, frozenset()),
        (a, WRITE, frozenset()),
    ):
        ts = state.tick()
        event = Event(state.next_eid(), kind, ts, record, "f", 1, instance, "X")
        state.append_events([event], view)
        history.record(Step(instance, "cycle", "X", ts, view, (event,)))
    return history


def test_histories_accept_serial_runs_and_reject_the_lost_update():
    serial = checks.serial_histories(["SIBench", "SmallBank"], SEED)
    assert checks.check_histories(serial, checks.lost_update_history()) == []


def test_histories_reject_an_added_antidependency_cycle():
    serial = checks.serial_histories(["SmallBank"], SEED)
    _add_antidependency_cycle(serial["SmallBank"])
    errors = checks.check_histories(serial, checks.lost_update_history())
    assert errors == ["SmallBank: serial history judged non-serializable"]


def test_histories_reject_a_lost_update_judged_serializable():
    serial = checks.serial_histories(["SIBench"], SEED)
    errors = checks.check_histories(serial, serial["SIBench"])
    assert errors == ["lost-update history judged serializable"]


# -- inputs -------------------------------------------------------------------


def test_job_plan_is_a_function_of_the_seed():
    def take(seed):
        plan = jobs.JobPlan(seed)
        return [plan.next() for _ in range(60)]

    assert take(5) == take(5)
    assert take(5) != take(6)


def test_job_plan_mix():
    from repro.lang import parse_program

    plan = jobs.JobPlan(SEED)
    taken = [plan.next() for _ in range(600)]
    repeats = sum(repeat for _, _, repeat in taken)
    assert 0.25 < repeats / len(taken) < 0.42
    kinds = [doc["kind"] for doc in plan.distinct.values()]
    assert 0.4 < kinds.count("analyze_request") / len(kinds) < 0.6
    for key, doc in plan.distinct.items():
        txns = len(parse_program(doc["source"]).transactions)
        assert plan.shapes[key] == (doc["kind"], txns)
    assert {txns for _, txns in plan.shapes.values()} == {2, 3, 4, 5, 6}
