"""Service throughput scaling: 1 worker process vs N, plus the
worker-path differential gate.

Boots the durable service twice -- once with a single worker process,
once with ``SERVICE_BENCH_WORKERS`` of them -- and drives both with the
closed-loop load driver (:mod:`benchmarks.service_load`): every job a
*unique* synthetic DSL program, so the memo cache cannot answer for the
solver and shard keys spread across the pool.  Records throughput,
latency percentiles, backpressure retries, and the single-vs-multi
speedup into ``BENCH_service.json``.

Correctness rides along as a hard gate: a sample of corpus benchmarks
is run through the multi-worker job path and the verdict/plan fields
must be byte-identical to a direct ``Workspace(strategy="serial")``
call -- the differential guarantee of ``tests/test_service.py``
extended across the process boundary.

Like the oracle bench, timing gates are host-shape-aware: the >= 1.5x
multi-worker speedup is asserted only on hosts with >= 2 CPUs (a
single core cannot run two solver processes faster than one -- the
recorded ``environment.cpu_count`` lets ``check_service_regression.py``
apply the same rule to the committed baseline).  Correctness and
zero-error gates are unconditional.

Environment knobs:

- ``SERVICE_BENCH_OUT`` -- output path (default
  ``benchmarks/out/BENCH_service.json``, git-ignored; point it at the
  committed ``BENCH_service.json`` to refresh the baseline);
- ``SERVICE_BENCH_JOBS`` -- jobs per pass (default 12; CI smoke uses
  fewer);
- ``SERVICE_BENCH_CONCURRENCY`` -- closed-loop clients (default 8);
- ``SERVICE_BENCH_WORKERS`` -- worker processes in the multi pass
  (default: ``min(4, cpu_count)``, at least 2);
- ``SERVICE_BENCH_AGGRESSOR`` / ``SERVICE_BENCH_VICTIM`` -- job counts
  for the two-tenant fairness pass (0 aggressors skips it).

The fairness pass floods tenant ``flood`` with a backlog of unique
jobs, then trickles tenant ``trickle`` through the same service one
job at a time.  Deficit-weighted claim scheduling must keep the victim
flowing: the gates (here and in ``check_service_regression.py
--require-fairness``) are full victim completion and zero lost or
duplicated jobs; victim latency is recorded for the report.
"""

import json
import os
import platform
import threading
import time
import urllib.request

from repro.api import AnalyzeRequest, RepairRequest, Workspace, WorkspaceConfig
from repro.service import make_server

from service_load import job_request, run_load

DIFFERENTIAL_BENCHMARKS = ("SIBench", "Courseware", "SmallBank")

#: Index offsets keeping the fairness pass's synthetic programs unique
#: against the throughput passes (and each tenant against the other).
AGGRESSOR_INDEX = 10_000
VICTIM_INDEX = 20_000


def _host_workers() -> int:
    env = os.environ.get("SERVICE_BENCH_WORKERS")
    if env:
        return int(env)
    return max(2, min(4, os.cpu_count() or 1))


def _serve(tmp_path, name, workers):
    """(server, base_url) with its own job db under ``tmp_path``."""
    server = make_server(
        port=0,
        workers=workers,
        job_db=str(tmp_path / f"{name}.sqlite"),
        worker_config=WorkspaceConfig(strategy="incremental"),
        max_queue_depth=4096,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


def _wait_workers(base, workers, timeout=60):
    """Block until every worker process reports alive, so the measured
    window contains solver work, not Python interpreter boot."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        with urllib.request.urlopen(base + "/v1/stats", timeout=10) as resp:
            stats = json.loads(resp.read())
        if stats["service"]["workers_alive"] >= workers:
            break
        time.sleep(0.1)
    else:
        raise TimeoutError(f"workers never came up: {stats['service']}")
    # A live process is not a ready worker (imports take a second or
    # two under spawn); push a few trivial warmup jobs through the
    # queue so the measured window starts with booted interpreters.
    warmups = [
        _post(
            base, "/v1/jobs",
            {
                "version": 1,
                "kind": "analyze_request",
                "source": (
                    f"schema Warm{i} {{ key w{i}_id; field w{i}_v; }}\n"
                    f"txn Touch{i}(k) {{\n"
                    f"  x := select w{i}_v from Warm{i} where w{i}_id = k;\n"
                    f"  update Warm{i} set w{i}_v = x.w{i}_v + 1"
                    f" where w{i}_id = k;\n"
                    f"}}\n"
                ),
            },
        )["id"]
        for i in range(workers * 2)
    ]
    for job_id in warmups:
        _wait(base, job_id, timeout=timeout)


def _post(base, path, body, tenant=None):
    data = json.dumps(body).encode()
    headers = {"Content-Type": "application/json"}
    if tenant is not None:
        headers["X-Repro-Tenant"] = tenant
    request = urllib.request.Request(
        base + path, data=data, method="POST", headers=headers,
    )
    with urllib.request.urlopen(request, timeout=300) as resp:
        return json.loads(resp.read())


def _wait(base, job_id, timeout=300):
    deadline = time.time() + timeout
    while time.time() < deadline:
        with urllib.request.urlopen(
            base + f"/v1/jobs/{job_id}", timeout=60
        ) as resp:
            doc = json.loads(resp.read())
        if doc["status"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise TimeoutError(job_id)


def _fairness_pass(tmp_path, workers):
    """Two-tenant isolation smoke: flood one tenant, trickle the other.

    Returns the ``fairness`` record for BENCH_service.json (or ``None``
    when disabled via ``SERVICE_BENCH_AGGRESSOR=0``).
    """
    aggressor_jobs = int(os.environ.get("SERVICE_BENCH_AGGRESSOR", "24"))
    victim_jobs = int(os.environ.get("SERVICE_BENCH_VICTIM", "5"))
    if aggressor_jobs <= 0 or victim_jobs <= 0:
        return None
    server, thread, base = _serve(tmp_path, "fairness", workers)
    try:
        _wait_workers(base, workers)
        # Flood: fire-and-forget submissions build a real backlog (a
        # closed-loop driver would cap it at its own concurrency).
        for i in range(aggressor_jobs):
            _post(
                base, "/v1/jobs",
                job_request(AGGRESSOR_INDEX + i, kind="analyze_request"),
                tenant="flood",
            )
        # Trickle: one closed-loop victim client submitting into the
        # standing backlog.
        victim = run_load(
            base, victim_jobs, 1, kind="analyze_request",
            first_index=VICTIM_INDEX, tenant="trickle",
        )
        with urllib.request.urlopen(base + "/v1/stats", timeout=30) as resp:
            stats = json.loads(resp.read())
        expected = workers * 2 + aggressor_jobs + victim_jobs  # + warmups
        total = stats["jobs"]["total"]
        tenants = stats["service"].get("tenants", {})
    finally:
        server.close()
        thread.join(timeout=10)
    return {
        "aggressor_jobs": aggressor_jobs,
        "victim": victim,
        "victim_completion_ratio": (
            victim["completed"] / victim_jobs if victim_jobs else 0.0
        ),
        "victim_p99_s": victim["latency_p99_s"],
        "jobs_expected": expected,
        "jobs_in_store": total,
        "lost_or_duplicated": total != expected,
        "tenants": tenants,
    }


def test_service_scaling(tmp_path, capsys, bench_out):
    jobs = int(os.environ.get("SERVICE_BENCH_JOBS", "12"))
    concurrency = int(os.environ.get("SERVICE_BENCH_CONCURRENCY", "8"))
    multi_workers = _host_workers()
    cpu_count = os.cpu_count()

    passes = {}
    for name, workers in (("single", 1), ("multi", multi_workers)):
        server, thread, base = _serve(tmp_path, name, workers)
        try:
            _wait_workers(base, workers)
            # Unique job indexes across passes: the second pass must not
            # re-submit programs the first one already solved.
            first_index = 0 if name == "single" else jobs
            record = run_load(
                base, jobs, concurrency, first_index=first_index
            )
            record["workers"] = workers
            passes[name] = record
        finally:
            server.close()
            thread.join(timeout=10)

    # Differential across the process boundary: corpus verdicts/plans
    # served by worker *processes* must equal direct library calls.
    differential = {"workers": multi_workers, "benchmarks": [], "identical": True}
    server, thread, base = _serve(tmp_path, "differential", multi_workers)
    try:
        submitted = []
        for bench in DIFFERENTIAL_BENCHMARKS:
            analyze = _post(base, "/v1/jobs", AnalyzeRequest(benchmark=bench).to_json())
            repair = _post(base, "/v1/jobs", RepairRequest(benchmark=bench).to_json())
            submitted.append((bench, analyze["id"], repair["id"]))
        with Workspace(strategy="serial") as ws:
            for bench, analyze_id, repair_id in submitted:
                analyzed = _wait(base, analyze_id)
                repaired = _wait(base, repair_id)
                assert analyzed["status"] == "done", analyzed["error"]
                assert repaired["status"] == "done", repaired["error"]
                direct_analyze = ws.analyze(AnalyzeRequest(benchmark=bench))
                direct_repair = ws.repair(RepairRequest(benchmark=bench))
                pairs_match = analyzed["result"]["pairs"] == [
                    p.to_json() for p in direct_analyze.pairs
                ]
                repair_match = (
                    repaired["result"]["plan"] == direct_repair.plan
                    and repaired["result"]["repaired_program"]
                    == direct_repair.repaired_program
                )
                differential["benchmarks"].append(
                    {
                        "name": bench,
                        "pairs_identical": pairs_match,
                        "repair_identical": repair_match,
                    }
                )
                differential["identical"] &= pairs_match and repair_match
                assert pairs_match, f"{bench}: worker-path pairs diverged"
                assert repair_match, f"{bench}: worker-path repair diverged"
    finally:
        server.close()
        thread.join(timeout=10)

    fairness = _fairness_pass(tmp_path, multi_workers)

    single = passes["single"]
    multi = passes["multi"]
    speedup = (
        multi["throughput_jobs_per_s"] / single["throughput_jobs_per_s"]
        if single["throughput_jobs_per_s"]
        else 0.0
    )
    payload = {
        "benchmark": "service-load",
        "workload": (
            "unique synthetic repair jobs over POST /v1/jobs "
            "(closed loop, Retry-After honoured)"
        ),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": cpu_count,
        },
        "jobs_per_pass": jobs,
        "concurrency": concurrency,
        "passes": passes,
        "multi_worker_speedup": round(speedup, 2),
        "differential": differential,
        "fairness": fairness,
    }
    out_path = bench_out("SERVICE_BENCH_OUT", "BENCH_service.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    with capsys.disabled():
        print(
            f"\nservice load: single={single['throughput_jobs_per_s']:.2f} "
            f"jobs/s, multi[{multi_workers}w]="
            f"{multi['throughput_jobs_per_s']:.2f} jobs/s "
            f"({speedup:.2f}x), p99 {multi['latency_p99_s']:.2f}s, "
            f"differential identical={differential['identical']} "
            + (
                f"fairness victim {fairness['victim_completion_ratio']:.0%} "
                f"@ p99 {fairness['victim_p99_s']:.2f}s "
                if fairness
                else ""
            )
            + f"-> {out_path}"
        )

    # Unconditional gates: no job may fail or error, and worker-path
    # results must be identical to the library.
    assert single["errors"] == 0, single["error_samples"]
    assert multi["errors"] == 0, multi["error_samples"]
    assert single["completed"] == jobs
    assert multi["completed"] == jobs
    assert differential["identical"]
    if fairness is not None:
        # The isolation gates: a flooded queue must not starve (or
        # lose) the trickling tenant's jobs.
        assert fairness["victim"]["errors"] == 0, (
            fairness["victim"]["error_samples"]
        )
        assert fairness["victim_completion_ratio"] == 1.0, fairness
        assert not fairness["lost_or_duplicated"], fairness
    # The scaling gate needs cores to scale onto: on a single-CPU host
    # N solver processes time-slice one core (the recorded cpu_count
    # tells check_service_regression.py the same thing about the
    # committed baseline).
    if (cpu_count or 1) >= 2:
        assert speedup >= 1.5, (
            f"multi-worker speedup {speedup:.2f}x < 1.5x on a "
            f"{cpu_count}-core host"
        )
