"""Durable-service acceptance: crash recovery, restart persistence,
backpressure semantics, and the streamed event feed.

These are the properties the ISSUE's multi-process topology was built
for: kill a worker mid-job and the job completes anyway (byte-identical
to the library); restart the server mid-queue and zero submitted jobs
are lost; fill the queue and get a machine-readable 429, not an
unbounded backlog.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.api import AnalyzeRequest, RepairRequest, Workspace
from repro.faults import FaultPlan, FaultRule
from repro.service import JobStore, make_server


def start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return thread, f"http://{host}:{port}"


def call(base, method, path, body=None, timeout=300):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def wait_for(base, job_id, timeout=300):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, doc, _ = call(base, "GET", f"/v1/jobs/{job_id}")
        assert status == 200, doc
        if doc["status"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish within {timeout}s")


class TestRestartRecovery:
    def test_finished_results_survive_restart(self, tmp_path):
        """The old in-memory queue forgot every result on restart; the
        store must serve them back from disk in a brand-new server."""
        job_db = str(tmp_path / "jobs.sqlite")
        request = AnalyzeRequest(benchmark="SIBench").to_json()

        server = make_server(port=0, job_db=job_db)
        thread, base = start(server)
        status, job, _ = call(base, "POST", "/v1/jobs", request)
        assert status == 202
        done = wait_for(base, job["id"])
        server.close()
        thread.join(timeout=10)

        server = make_server(port=0, job_db=job_db)
        thread, base = start(server)
        try:
            status, again, _ = call(base, "GET", f"/v1/jobs/{job['id']}")
            assert status == 200
            assert again["status"] == "done"
            assert again["result"] == done["result"]
        finally:
            server.close()
            thread.join(timeout=10)

    def test_restart_mid_queue_loses_zero_jobs(self, tmp_path):
        """Submit a backlog, kill the server before it drains, restart:
        every job must finish, byte-identical to direct library calls."""
        job_db = str(tmp_path / "jobs.sqlite")
        benchmarks = ("SIBench", "Courseware", "SmallBank")

        # No runner: jobs stay queued, simulating a server that died
        # with a backlog (the worst restart case).
        server = make_server(port=0, job_db=job_db, start_runner=False)
        thread, base = start(server)
        submitted = {}
        for name in benchmarks:
            status, job, _ = call(
                base, "POST", "/v1/jobs",
                AnalyzeRequest(benchmark=name).to_json(),
            )
            assert status == 202
            submitted[name] = job["id"]
        # Simulate an unclean death mid-backlog: drop the sockets and
        # the store without any drain/checkpoint handshake.
        server.shutdown()
        server.server_close()
        server.service.store.close()
        thread.join(timeout=10)

        server = make_server(port=0, job_db=job_db)
        thread, base = start(server)
        try:
            with Workspace(strategy="serial") as ws:
                for name, job_id in submitted.items():
                    doc = wait_for(base, job_id)
                    assert doc["status"] == "done", doc["error"]
                    direct = ws.analyze(AnalyzeRequest(benchmark=name))
                    assert doc["result"]["pairs"] == [
                        p.to_json() for p in direct.pairs
                    ], name
        finally:
            server.close()
            thread.join(timeout=10)

    def test_orphaned_running_job_is_requeued_on_boot(self, tmp_path):
        """A job left `running` by a dead process generation must be
        re-enqueued when a new server opens the store."""
        job_db = str(tmp_path / "jobs.sqlite")
        with JobStore(job_db) as store:
            job = store.submit(AnalyzeRequest(benchmark="SIBench"))
            store.claim("w0-12345")  # owner from a previous life

        server = make_server(port=0, job_db=job_db)
        thread, base = start(server)
        try:
            assert server.service.recovered_jobs == 1
            doc = wait_for(base, job.id)
            assert doc["status"] == "done", doc["error"]
            status, stats, _ = call(base, "GET", "/v1/stats")
            assert stats["service"]["recovered_jobs"] == 1
        finally:
            server.close()
            thread.join(timeout=10)


class TestWorkerCrash:
    def test_sigkill_mid_job_reenqueues_and_completes(
        self, tmp_path, monkeypatch
    ):
        """Kill the only worker process mid-repair: the monitor must
        respawn it, the job must re-run, and the result must match the
        direct library call byte-for-byte.

        Worker processes arm the fault plan in ``REPRO_FAULTS``; its
        delay on every progress-event write keeps the repair running
        well past the status poll below, which an in-process repair of
        Courseware would otherwise outrun before the kill lands."""
        plan = FaultPlan(
            0,
            [
                FaultRule(
                    site="events.write", action="delay",
                    p=1.0, times=0, delay_s=0.05,
                )
            ],
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_spec())
        server = make_server(
            port=0, workers=1, job_db=str(tmp_path / "jobs.sqlite")
        )
        thread, base = start(server)
        try:
            pool = server.service.runner
            request = RepairRequest(benchmark="Courseware").to_json()
            status, job, _ = call(base, "POST", "/v1/jobs", request)
            assert status == 202

            # Wait until the worker has actually claimed it...
            deadline = time.time() + 60
            while time.time() < deadline:
                _, doc, _ = call(base, "GET", f"/v1/jobs/{job['id']}")
                if doc["status"] == "running":
                    break
                time.sleep(0.02)
            assert doc["status"] == "running", doc
            # ...then kill the worker mid-flight.
            os.kill(pool.pids()[0], signal.SIGKILL)

            done = wait_for(base, job["id"])
            assert done["status"] == "done", done["error"]
            assert done["attempts"] >= 2  # first claim died with the worker
            assert pool.counters()["restarts"] >= 1

            with Workspace(strategy="serial") as ws:
                direct = ws.repair(RepairRequest(benchmark="Courseware"))
            assert done["result"]["plan"] == direct.plan
            assert done["result"]["repaired_program"] == direct.repaired_program
        finally:
            server.close()
            thread.join(timeout=10)


class TestBackpressure:
    def test_full_queue_is_429_with_retry_after(self, tmp_path):
        """`start_runner=False` freezes the queue, so the depth cap is
        hit deterministically."""
        server = make_server(
            port=0,
            job_db=str(tmp_path / "jobs.sqlite"),
            max_queue_depth=2,
            start_runner=False,
        )
        thread, base = start(server)
        try:
            request = AnalyzeRequest(benchmark="SIBench").to_json()
            for _ in range(2):
                status, _, _ = call(base, "POST", "/v1/jobs", request)
                assert status == 202
            status, payload, headers = call(base, "POST", "/v1/jobs", request)
            assert status == 429
            assert payload["error"]["code"] == "queue-full"
            assert int(headers["Retry-After"]) >= 1
            _, stats, _ = call(base, "GET", "/v1/stats")
            assert stats["service"]["admission"]["queue_full"] == 1
            assert stats["service"]["queue_depth"] == 2
        finally:
            server.close()
            thread.join(timeout=10)

    def test_rate_limit_is_429(self, tmp_path):
        server = make_server(
            port=0,
            job_db=str(tmp_path / "jobs.sqlite"),
            rate_limit=1.0,
            rate_burst=1.0,
            start_runner=False,
        )
        thread, base = start(server)
        try:
            request = AnalyzeRequest(benchmark="SIBench").to_json()
            status, _, _ = call(base, "POST", "/v1/jobs", request)
            assert status == 202
            status, payload, headers = call(base, "POST", "/v1/jobs", request)
            assert status == 429
            assert payload["error"]["code"] == "rate-limited"
            assert "Retry-After" in headers
            # Reads are never rate limited.
            status, _, _ = call(base, "GET", "/v1/stats")
            assert status == 200
        finally:
            server.close()
            thread.join(timeout=10)

    def test_oversized_body_is_413(self, tmp_path):
        server = make_server(
            port=0,
            job_db=str(tmp_path / "jobs.sqlite"),
            max_request_bytes=512,
            start_runner=False,
        )
        thread, base = start(server)
        try:
            body = AnalyzeRequest(source="x" * 4096).to_json()
            status, payload, _ = call(base, "POST", "/v1/jobs", body)
            assert status == 413
            assert payload["error"]["code"] == "request-too-large"
        finally:
            server.close()
            thread.join(timeout=10)

    def test_draining_refuses_posts_but_serves_reads(self, tmp_path):
        server = make_server(port=0, job_db=str(tmp_path / "jobs.sqlite"))
        thread, base = start(server)
        try:
            request = AnalyzeRequest(benchmark="SIBench").to_json()
            status, job, _ = call(base, "POST", "/v1/jobs", request)
            assert status == 202
            done = wait_for(base, job["id"])

            assert server.service.drain(timeout=30)

            status, payload, headers = call(base, "POST", "/v1/jobs", request)
            assert status == 503
            assert payload["error"]["code"] == "draining"
            assert "Retry-After" in headers
            # Reads keep working so operators can watch the drain.
            status, health, _ = call(base, "GET", "/v1/health")
            assert status == 200 and health["status"] == "draining"
            status, again, _ = call(base, "GET", f"/v1/jobs/{job['id']}")
            assert status == 200 and again["result"] == done["result"]
        finally:
            server.close()
            thread.join(timeout=10)


class TestEventStream:
    def test_stream_is_ndjson_and_terminates(self, tmp_path):
        server = make_server(port=0, job_db=str(tmp_path / "jobs.sqlite"))
        thread, base = start(server)
        try:
            request = RepairRequest(benchmark="SIBench").to_json()
            status, job, _ = call(base, "POST", "/v1/jobs", request)
            assert status == 202
            # urllib transparently de-chunks, so lines arrive as sent.
            with urllib.request.urlopen(
                base + f"/v1/jobs/{job['id']}/events", timeout=300
            ) as resp:
                assert resp.headers["Content-Type"] == "application/x-ndjson"
                lines = [json.loads(line) for line in resp]
            assert lines, "stream yielded nothing"
            assert lines[-1]["stage"] == "job.end"
            assert lines[-1]["detail"]["status"] == "done"
            stages = [line["stage"] for line in lines[:-1]]
            assert "search.done" in stages
            for line in lines[:-1]:
                assert set(line) == {"stage", "detail"}
        finally:
            server.close()
            thread.join(timeout=10)

    def test_stream_for_finished_job_replays_and_ends(self, tmp_path):
        server = make_server(port=0, job_db=str(tmp_path / "jobs.sqlite"))
        thread, base = start(server)
        try:
            status, job, _ = call(
                base, "POST", "/v1/jobs",
                AnalyzeRequest(benchmark="SIBench").to_json(),
            )
            wait_for(base, job["id"])
            with urllib.request.urlopen(
                base + f"/v1/jobs/{job['id']}/events", timeout=60
            ) as resp:
                lines = [json.loads(line) for line in resp]
            assert lines[-1] == {
                "stage": "job.end", "detail": {"status": "done"},
            }
        finally:
            server.close()
            thread.join(timeout=10)

    def test_stream_for_unknown_job_is_404(self, tmp_path):
        server = make_server(port=0, job_db=str(tmp_path / "jobs.sqlite"))
        thread, base = start(server)
        try:
            status, payload, _ = call(
                base, "GET", "/v1/jobs/job-9999-deadbeef/events"
            )
            assert status == 404
            assert payload["error"]["code"] == "job-not-found"
        finally:
            server.close()
            thread.join(timeout=10)
