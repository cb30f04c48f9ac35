"""Cooperative cancellation: ``POST /v1/jobs/<id>/cancel`` end to end.

Three paths, all terminal ``cancelled``:

- a *queued* job is cancelled immediately (no worker involved);
- a *running* job aborts at its next progress event -- the worker's
  hook polls the ``cancel_requested`` flag and raises out of the
  operation, so cancellation lands within one oracle query;
- a *terminal* job answers idempotently with its final status.
"""

import json
import time

import pytest

from repro import faults
from repro.api import AnalyzeRequest, RepairRequest, Workspace
from repro.api.schema import all_schemas, validate
from repro.faults import FaultPlan, FaultRule
from repro.service.server import ReproService
from repro.service.workers import CANCEL_POLL_INTERVAL


def post(service, path, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    status, payload, _ = service.handle("POST", path, raw)
    return status, payload


def get(service, path):
    status, payload, _ = service.handle("GET", path, b"")
    return status, payload


def submit(service, benchmark="SIBench"):
    status, payload = post(
        service, "/v1/jobs", AnalyzeRequest(benchmark=benchmark).to_json()
    )
    assert status == 202, payload
    return payload["id"]


class TestQueuedCancel:
    """With no runner, jobs stay queued -- the immediate-cancel path."""

    @pytest.fixture()
    def service(self):
        svc = ReproService(start_runner=False)
        yield svc
        svc.close()

    def test_queued_job_cancels_immediately(self, service):
        job_id = submit(service)
        status, payload = post(service, f"/v1/jobs/{job_id}/cancel")
        assert status == 200
        assert payload == {"id": job_id, "status": "cancelled"}
        status, doc = get(service, f"/v1/jobs/{job_id}")
        assert doc["status"] == "cancelled"
        ok, why = validate(doc, all_schemas()["job"])
        assert ok, why

    def test_cancel_is_idempotent(self, service):
        job_id = submit(service)
        post(service, f"/v1/jobs/{job_id}/cancel")
        status, payload = post(service, f"/v1/jobs/{job_id}/cancel")
        assert status == 200
        assert payload["status"] == "cancelled"

    def test_cancel_unknown_job_is_404(self, service):
        status, payload = post(service, "/v1/jobs/nope/cancel")
        assert status == 404
        assert payload["error"]["code"] == "job-not-found"

    def test_cancel_requires_post(self, service):
        job_id = submit(service)
        status, payload = get(service, f"/v1/jobs/{job_id}/cancel")
        assert status == 405

    def test_cancelled_jobs_are_pruned_as_terminal(self, service):
        """The retention fix: cancelled rows age out like done/failed."""
        job_id = submit(service)
        post(service, f"/v1/jobs/{job_id}/cancel")
        service.store.max_finished = 0
        assert service.store.prune() == 1
        status, _ = get(service, f"/v1/jobs/{job_id}")
        assert status == 404

    def test_cancel_bypasses_admission(self, service):
        """Cancels shed work; a draining server must still take them."""
        job_id = submit(service)
        service.admission.draining = True
        try:
            status, payload = post(service, f"/v1/jobs/{job_id}/cancel")
        finally:
            service.admission.draining = False
        assert status == 200, payload
        assert payload["status"] == "cancelled"


class TestRunningCancel:
    def test_running_job_lands_cancelled(self):
        """Slow the job down (seeded delay faults), catch it mid-run,
        cancel, and watch it land terminal ``cancelled`` -- the
        acceptance criterion for cooperative cancellation.

        The delay sits on ``events.write``, which every persisted
        progress event of the job passes through, and outlasts the
        worker's cancel-poll interval, so every event polls the cancel
        flag.  A repair job emits dozens of events (an analyze job only
        three), so the cancel, which waits for the store lock the
        delayed write holds, lands long before the job's last poll."""
        plan = FaultPlan(
            0,
            [
                FaultRule(
                    site="events.write", action="delay",
                    p=1.0, times=0, delay_s=2 * CANCEL_POLL_INTERVAL,
                )
            ],
        )
        faults.activate(plan)
        workspace = Workspace(strategy="incremental")
        service = ReproService(workspace)
        try:
            status, payload = post(
                service, "/v1/jobs", RepairRequest(benchmark="TPC-C").to_json()
            )
            assert status == 202, payload
            job_id = payload["id"]
            deadline = time.monotonic() + 60
            status_seen = None
            while time.monotonic() < deadline:
                _, doc = get(service, f"/v1/jobs/{job_id}")
                status_seen = doc["status"]
                if status_seen != "queued" and plan.schedule:
                    break
                time.sleep(0.005)
            assert status_seen == "running", (
                f"job never observed running (last: {status_seen})"
            )
            # The delay fired: the job is being slowed, not racing.
            assert plan.schedule, "the events.write delay never fired"
            status, payload = post(service, f"/v1/jobs/{job_id}/cancel")
            assert status == 200
            assert payload["status"] == "cancelling"
            while time.monotonic() < deadline:
                _, doc = get(service, f"/v1/jobs/{job_id}")
                if doc["status"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.01)
            assert doc["status"] == "cancelled", doc["status"]
            stages = [e["stage"] for e in doc["events"]]
            assert "job.cancelled" in stages
        finally:
            faults.deactivate()
            service.close()
            workspace.close()
