"""The event-driven job path: a submit wakes an idle worker, and every
job change wakes the event streams, so neither waits out its poll
timeout.

Each test patches the fallback timeouts it checks
(``workers.POLL_INTERVAL``, ``server.STREAM_POLL_INTERVAL``) to
:data:`SLOW`, which every bound below is far under: a test can only
pass if the wake-up arrived.
"""

import json
import os
import signal
import sys
import threading
import time

from repro import faults
from repro.api import AnalyzeRequest
from repro.faults import FaultPlan, FaultRule
from repro.service import server, workers
from repro.service.server import ReproService

#: A fallback timeout no passing test waits out.
SLOW = 30.0

REQUEST = json.dumps(AnalyzeRequest(benchmark="SIBench").to_json()).encode()


def submit(service):
    status, payload, _ = service.handle("POST", "/v1/jobs", REQUEST)
    assert status == 202, payload
    return payload["id"]


def read_stream(stream, timeout):
    """Every line of ``stream`` read on a daemon thread, failing if the
    stream has not ended within ``timeout`` seconds."""
    lines = []
    reader = threading.Thread(
        target=lambda: lines.extend(json.loads(raw) for raw in stream),
        daemon=True,
    )
    reader.start()
    reader.join(timeout=timeout)
    assert not reader.is_alive(), f"stream still open after {timeout}s: {lines}"
    return lines


def end_status(lines):
    assert lines and lines[-1]["stage"] == "job.end", lines
    return lines[-1]["detail"]["status"]


class TestInlineWakeups:
    def test_submit_wakes_worker_and_finish_wakes_stream(self, monkeypatch):
        monkeypatch.setattr(workers, "POLL_INTERVAL", SLOW)
        monkeypatch.setattr(server, "STREAM_POLL_INTERVAL", SLOW)
        # Hold the result back until the stream has read every progress
        # event and waits: only the final transition's wake-up ends it.
        plan = FaultPlan(0, [
            FaultRule(
                site="worker.pre_result", action="delay", nth=1, delay_s=0.3,
            ),
        ])
        faults.activate(plan)
        service = ReproService()
        try:
            time.sleep(0.2)  # the idle runner is now waiting for work
            job_id = submit(service)
            lines = read_stream(service.open_event_stream(job_id), 5.0)
        finally:
            faults.deactivate()
            service.close()
        assert end_status(lines) == "done"
        assert plan.schedule, "the result delay never fired"

    def test_concurrent_streams_all_wake(self, monkeypatch):
        """Many submitters and streams at once, with a short switch
        interval: a wake-up lost between a stream's read of the store
        and its wait would leave that stream waiting out :data:`SLOW`."""
        monkeypatch.setattr(workers, "POLL_INTERVAL", SLOW)
        monkeypatch.setattr(server, "STREAM_POLL_INTERVAL", SLOW)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        service = ReproService()
        statuses = []
        lock = threading.Lock()

        def client():
            for _ in range(3):
                lines = read_stream(
                    service.open_event_stream(submit(service)), 10.0
                )
                with lock:
                    statuses.append(end_status(lines))

        try:
            clients = [threading.Thread(target=client) for _ in range(6)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=20.0)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(previous)
            service.close()
        assert statuses == ["done"] * 18


class TestStreamWithoutRunner:
    def test_heartbeats_then_cancel_wakes_stream(self, monkeypatch):
        monkeypatch.setattr(server, "HEARTBEAT_INTERVAL", 0.05)
        service = ReproService(start_runner=False)
        try:
            job_id = submit(service)
            stream = service.open_event_stream(job_id)
            # Queued with no runner: the stream only keeps itself alive.
            assert json.loads(next(stream)) == {"kind": "heartbeat"}
            assert json.loads(next(stream)) == {"kind": "heartbeat"}
            # From here on nothing but the cancel's bump ends the wait.
            monkeypatch.setattr(server, "STREAM_POLL_INTERVAL", SLOW)
            monkeypatch.setattr(server, "HEARTBEAT_INTERVAL", SLOW)
            rest = []
            reader = threading.Thread(
                target=lambda: rest.extend(json.loads(raw) for raw in stream),
                daemon=True,
            )
            reader.start()
            time.sleep(0.2)  # the reader is now inside the stream's wait
            status, payload, _ = service.handle(
                "POST", f"/v1/jobs/{job_id}/cancel", b""
            )
            assert status == 200, payload
            reader.join(timeout=1.0)
            assert not reader.is_alive(), rest
        finally:
            service.close()
        assert rest == [{"stage": "job.end", "detail": {"status": "cancelled"}}]


class TestDeadWorker:
    def test_submit_after_sigkill_of_an_idle_worker(self, tmp_path):
        """A bell built on ``multiprocessing.Event`` or ``Condition``
        fails here: its ``set()`` waits for the killed sleeper to
        acknowledge, and the request handler blocks for good."""
        service = ReproService(workers=2, job_db=str(tmp_path / "jobs.sqlite"))
        try:
            seen = set()
            deadline = time.monotonic() + 120
            while len(seen) < 2:
                assert time.monotonic() < deadline, seen
                ids = [submit(service), submit(service)]
                for job_id in ids:
                    lines = read_stream(service.open_event_stream(job_id), 60.0)
                    assert end_status(lines) == "done"
                    seen.add(service.store.get(job_id).worker)
            assert service.store.depth() == 0
            time.sleep(0.2)  # both workers are now waiting for work
            os.kill(service.runner.pids()[0], signal.SIGKILL)

            answer = []
            poster = threading.Thread(
                target=lambda: answer.append(
                    service.handle("POST", "/v1/jobs", REQUEST)
                ),
                daemon=True,
            )
            poster.start()
            poster.join(timeout=2.0)
            assert not poster.is_alive(), "POST /v1/jobs blocked"
            status, payload, _ = answer[0]
            assert status == 202, payload
            lines = read_stream(service.open_event_stream(payload["id"]), 60.0)
            assert end_status(lines) == "done"
        finally:
            service.close()
