"""The ``service`` workload: ``repro serve --workers 2`` under two clients.

The server runs in its own process with the defaults users get (each
worker builds ``Workspace()``, strategy ``auto``).  Two closed-loop
clients -- the reference host has two cores -- each repeat three steps:
POST a job to ``/v1/jobs``, wait on ``/v1/jobs/<id>/events`` for
``job.end``, GET the job document.  Job inputs come from
:mod:`perfbench.jobs`.

HTTP, admission, the sqlite job store, the worker claim loop and the
event stream carry most of a small job's latency; the per-layer figures
split each job from the outside, using the client's clock and the job
document's ``created_at``/``started_at``/``finished_at`` stamps (same
host clock).  Teardown drains the server with SIGTERM and waits until
the server, its workers and their shard processes have all ended.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench import common, jobs

WORKERS = 2
CLIENTS = 2
HTTP_TIMEOUT = 60.0
#: The store keeps 1024 finished jobs (``store.MAX_FINISHED``); a run
#: stops short of that so its "store holds every submitted job" check
#: stays meaningful on a host fast enough to finish the window early.
MAX_JOBS = 900
#: Warm-up programs are numbered from here, far above any timed job's.
WARM_UP_INDEX = 1_000_000


class Client:
    """One HTTP/1.1 connection per request, as a plain client makes."""

    def __init__(self, port: int):
        self.port = port

    def _request(self, method: str, path: str, body: Optional[dict] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            payload = json.loads(resp.read() or b"{}")
            return resp.status, payload, resp.getheader("Retry-After")
        finally:
            conn.close()

    def get(self, path: str) -> dict:
        status, payload, _ = self._request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {payload}")
        return payload

    def submit(self, doc: dict) -> Tuple[str, int]:
        """POST a job, honouring backpressure; (job id, retries)."""
        retries = 0
        while True:
            status, payload, retry_after = self._request("POST", "/v1/jobs", doc)
            if status == 202:
                return payload["id"], retries
            if status in (429, 503):
                retries += 1
                time.sleep(float(retry_after) if retry_after else 1.0)
                continue
            raise RuntimeError(f"POST /v1/jobs answered {status}: {payload}")

    def await_end(self, job_id: str) -> str:
        """Read the job's NDJSON event stream to its ``job.end`` line."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(f"event stream answered {resp.status}")
            while True:
                line = resp.readline()
                if not line:
                    raise RuntimeError(f"event stream of {job_id} ended early")
                event = json.loads(line)
                if event.get("stage") == "job.end":
                    resp.read()  # the closing chunk, so the close is clean
                    return event["detail"]["status"]
        finally:
            conn.close()

    def job(self, doc: dict) -> dict:
        """Run one job end to end; returns its timings and document."""
        start = time.perf_counter()
        job_id, retries = self.submit(doc)
        submitted = time.perf_counter()
        self.await_end(job_id)
        ended = time.perf_counter()
        ended_wall = time.time()
        final = self.get(f"/v1/jobs/{job_id}")
        done = time.perf_counter()
        return {
            "id": job_id,
            "doc": final,
            "latency": done - start,
            "submit": submitted - start,
            "notify": ended_wall - (final.get("finished_at") or ended_wall),
            "fetch": done - ended,
            "retries": retries,
            "done": done,
        }


def _job_db():
    return common.out_dir("service") / "jobs.sqlite"


def stored_job_ids(db) -> List[str]:
    """Every job row in the store (``GET /v1/jobs`` lists only the newest
    256), read after the server has exited."""
    import sqlite3

    conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        return [job_id for (job_id,) in conn.execute("SELECT id FROM jobs")]
    finally:
        conn.close()


def _launch(logs) -> Tuple[object, float, int]:
    """Start ``repro serve``; (process, launch time, bound port)."""
    db = _job_db()
    for suffix in ("", "-wal", "-shm"):
        path = db.with_name(db.name + suffix)
        if path.exists():
            path.unlink()
    argv = [sys.executable, "-m", "repro", "serve", "--workers", str(WORKERS),
            "--port", "0", "--job-db", str(db), "--quiet"]
    err = open(logs / "service-server.err", "w")
    proc, launched = common.spawn(
        argv, stdout=subprocess.PIPE, stderr=err, text=True
    )
    err.close()
    line = proc.stdout.readline()
    # "repro service on http://127.0.0.1:<port>/v1/health (...)"
    try:
        port = int(line.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])
    except (IndexError, ValueError):
        proc.kill()
        common.reap(proc, timeout=30)
        raise RuntimeError(f"server did not start: {line!r}")
    # Keep draining stdout so the server can never block on a full pipe.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, launched, port


def _warm_up(client: Client) -> List[str]:
    """Submit pairs of warm-up jobs until every worker has finished one."""
    plan = jobs.JobPlan(seed=0, first_index=WARM_UP_INDEX)
    seen = set()
    ids: List[str] = []
    lock = threading.Lock()

    def one():
        _, doc, _ = plan.next()
        record = client.job(doc)
        with lock:
            ids.append(record["id"])
            seen.add(record["doc"].get("worker"))

    for _ in range(20):
        threads = [threading.Thread(target=one) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if len(seen - {None}) >= WORKERS:
            return ids
    raise RuntimeError(f"only workers {sorted(seen - {None})} took warm-up jobs")


def run(seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import checks

    logs = common.out_dir("logs")
    errors: List[str] = []
    proc, launched, port = _launch(logs)
    client = Client(port)
    records: List[dict] = []
    failures: List[str] = []
    try:
        while True:
            try:
                if client.get("/v1/health").get("status") == "ok":
                    break
            except OSError:
                pass
            if time.monotonic() - launched > 60:
                raise RuntimeError("server never answered /v1/health")
            time.sleep(0.01)
        warm_ids = _warm_up(client)
        setup_s = time.monotonic() - launched

        plan = jobs.JobPlan(seed)
        lock = threading.Lock()
        window_start = time.perf_counter()
        window_end = window_start + seconds

        taken = iter(range(MAX_JOBS))

        def loop():
            while time.perf_counter() < window_end:
                with lock:
                    if next(taken, None) is None:
                        return
                key, doc, repeat = plan.next()
                try:
                    record = client.job(doc)
                except Exception as exc:  # noqa: BLE001 - counted as a failed job
                    with lock:
                        failures.append(f"{type(exc).__name__}: {exc}")
                    continue
                record["key"] = key
                record["repeat"] = repeat
                with lock:
                    records.append(record)

        threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        proc.send_signal(signal.SIGTERM)
        peak_mb = common.reap(proc, timeout=90)
        left = common.await_session_gone(proc.pid)
    if proc.returncode != 0:
        errors.append(f"server exited {proc.returncode} after SIGTERM")
    if left:
        errors.append(f"server left processes running: {left}")

    errors += failures[:5]
    submitted = warm_ids + [r["id"] for r in records]
    with open(common.ROOT / "schemas" / "job.v1.json") as fh:
        schema = json.load(fh)
    errors += checks.check_service(
        records,
        stored_job_ids(_job_db()),
        submitted,
        checks.service_reference(plan.distinct, plan.shapes),
        schema,
    )
    done = [r for r in records if r["doc"].get("status") == "done"]
    result = {
        "attempted": len(records) + len(failures),
        "failed": len(failures) + len(records) - len(done),
        "errors": errors,
    }
    if not done:
        return result
    latencies = [r["latency"] for r in done]
    if trace:
        result["metrics"] = _layers(done)
    else:
        elapsed = max(r["done"] for r in done) - window_start
        result["metrics"] = {
            "setup_s": common.metric(setup_s, "s"),
            "peak_rss_mb": common.metric(peak_mb, "MB"),
            "op_p50_s": common.metric(common.median(latencies), "s"),
            "ops_per_s": common.metric(len(done) / elapsed, "1/s"),
        }
    return result


def _layers(done: List[dict]) -> Dict[str, dict]:
    from perfbench import layers

    def med(values):
        return common.median(values) if values else 0

    docs = [r["doc"] for r in done]
    values = {
        "service.submit_s": med([r["submit"] for r in done]),
        "service.queue_wait_s": med([d["started_at"] - d["created_at"] for d in docs]),
        "service.run_s": med([
            r["doc"]["finished_at"] - r["doc"]["started_at"]
            for r in done if not r["repeat"]
        ]),
        "service.run_repeat_s": med([
            r["doc"]["finished_at"] - r["doc"]["started_at"]
            for r in done if r["repeat"]
        ]),
        "service.notify_s": med([r["notify"] for r in done]),
        "service.fetch_s": med([r["fetch"] for r in done]),
        "service.job_p95_s": common.percentile([r["latency"] for r in done], 0.95),
        "op_traced_s": med([r["latency"] for r in done]),
        "service.backpressure_retries": sum(r["retries"] for r in done),
    }
    return layers.complete(values)
