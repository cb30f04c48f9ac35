"""Stdlib load driver for the repro HTTP service.

Submits jobs over ``POST /v1/jobs``, polls each to completion, and
reports throughput and latency percentiles.  Three design points keep
the numbers honest:

- **unique programs**: every job carries a *distinct* synthetic DSL
  program (:func:`synthetic_source` -- index-suffixed schema, field,
  and transaction names), so nothing short-circuits through the memo
  cache and shard keys spread across the worker pool.  Replaying one
  corpus benchmark N times would measure HTTP overhead, not service
  throughput;
- **well-behaved backpressure**: a 429/503 answer is not an error --
  the driver sleeps exactly the advertised ``Retry-After`` and
  resubmits, counting the retry.  Anything else non-2xx is an error;
- **closed loop per client**: ``concurrency`` threads each run
  submit-poll-repeat, the standard closed-loop load model, so offered
  load tracks service capacity instead of overrunning the queue.

Usable standalone against any running server::

    python benchmarks/service_load.py --url http://127.0.0.1:8472 \
        --jobs 32 --concurrency 8

or programmatically (``benchmarks/test_service_scaling.py`` does) via
:func:`run_load`, which returns the metrics dict that becomes a pass
record in ``BENCH_service.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import threading
import time
import urllib.error
import urllib.request
from typing import List, Optional

#: Poll interval while waiting for a submitted job to finish.
POLL_INTERVAL = 0.05


def synthetic_source(index: int, txns: int = 4) -> str:
    """A unique-by-construction DSL program for job ``index``.

    Shaped like a small ledger workload (read two fields, write both
    back) so analysis and repair do real solver work (~0.1-0.2s each),
    but with every identifier suffixed by ``index`` so no two jobs share
    a fingerprint, a memo-cache line, or a shard.
    """
    parts = [
        f"schema Load{index} {{\n"
        f"  key l{index}_id;\n"
        f"  field l{index}_a;\n"
        f"  field l{index}_b;\n"
        f"}}\n"
    ]
    for t in range(txns):
        parts.append(
            f"txn Mix{index}x{t}(k) {{\n"
            f"  x := select l{index}_a from Load{index}"
            f" where l{index}_id = k;\n"
            f"  y := select l{index}_b from Load{index}"
            f" where l{index}_id = k;\n"
            f"  update Load{index} set l{index}_a = x.l{index}_a"
            f" + y.l{index}_b + {t} where l{index}_id = k;\n"
            f"  update Load{index} set l{index}_b = y.l{index}_b + 1"
            f" where l{index}_id = k;\n"
            f"}}\n"
        )
    return "\n".join(parts)


def job_request(index: int, kind: str = "repair_request", txns: int = 4) -> dict:
    """The wire request document for job ``index``."""
    return {
        "version": 1,
        "kind": kind,
        "source": synthetic_source(index, txns=txns),
    }


def _post_json(url: str, body: dict, timeout: float, tenant: Optional[str] = None):
    """(status, payload, retry_after_seconds) for one POST."""
    data = json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if tenant is not None:
        headers["X-Repro-Tenant"] = tenant
    request = urllib.request.Request(
        url, data=data, method="POST", headers=headers,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), None
    except urllib.error.HTTPError as exc:
        retry_after = exc.headers.get("Retry-After")
        return (
            exc.code,
            json.loads(exc.read() or b"{}"),
            float(retry_after) if retry_after else None,
        )


def submit_and_wait(
    base: str,
    body: dict,
    timeout: float = 300.0,
    poll_interval: float = POLL_INTERVAL,
    tenant: Optional[str] = None,
):
    """Submit one job, honouring backpressure, and poll it to the end.

    Returns ``(final_job_doc, latency_seconds, backpressure_retries)``;
    latency counts from the *first* submission attempt, so time spent
    backing off is charged to the request, exactly as a client feels it.
    ``tenant`` is sent as ``X-Repro-Tenant`` when given.
    """
    deadline = time.monotonic() + timeout
    started = time.monotonic()
    retries = 0
    while True:
        status, payload, retry_after = _post_json(
            base + "/v1/jobs", body, timeout=timeout, tenant=tenant
        )
        if status == 202:
            break
        if status in (429, 503):
            retries += 1
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"backpressure never cleared within {timeout}s: {payload}"
                )
            time.sleep(retry_after if retry_after is not None else 1.0)
            continue
        raise RuntimeError(f"submit failed with {status}: {payload}")
    job_id = payload["id"]
    url = base + f"/v1/jobs/{job_id}"
    while True:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            doc = json.loads(resp.read())
        if doc["status"] in ("done", "failed"):
            return doc, time.monotonic() - started, retries
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {doc['status']} after {timeout}s")
        time.sleep(poll_interval)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation, no numpy): the
    smallest value with at least ``q`` per cent of the samples at or
    below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered) / 100.0), 1), len(ordered))
    return ordered[rank - 1]


def run_load(
    base: str,
    jobs: int,
    concurrency: int,
    kind: str = "repair_request",
    txns: int = 4,
    timeout: float = 300.0,
    first_index: int = 0,
    tenant: Optional[str] = None,
) -> dict:
    """Closed-loop load: ``concurrency`` clients drain ``jobs`` unique
    jobs; returns the metrics record for one BENCH_service.json pass.
    ``tenant`` stamps every submission with that ``X-Repro-Tenant``
    identity (the two-tenant fairness smoke drives one flooding and one
    trickling instance of this function)."""
    indexes = iter(range(first_index, first_index + jobs))
    index_lock = threading.Lock()
    latencies: List[float] = []
    errors: List[str] = []
    retries_total = [0]
    results_lock = threading.Lock()

    def client():
        while True:
            with index_lock:
                index = next(indexes, None)
            if index is None:
                return
            try:
                doc, latency, retries = submit_and_wait(
                    base, job_request(index, kind=kind, txns=txns),
                    timeout=timeout, tenant=tenant,
                )
                with results_lock:
                    retries_total[0] += retries
                    if doc["status"] != "done":
                        errors.append(
                            f"job {doc['id']} failed: {doc['error']}"
                        )
                    else:
                        latencies.append(latency)
            except Exception as exc:  # noqa: BLE001 - load boundary
                with results_lock:
                    errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client) for _ in range(concurrency)]
    wall_start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - wall_start
    completed = len(latencies)
    return {
        "jobs": jobs,
        "concurrency": concurrency,
        "kind": kind,
        "tenant": tenant,
        "completed": completed,
        "errors": len(errors),
        "error_samples": errors[:5],
        "backpressure_retries": retries_total[0],
        "wall_seconds": round(wall, 4),
        "throughput_jobs_per_s": round(completed / wall, 4) if wall else 0.0,
        "latency_p50_s": round(percentile(latencies, 50), 4),
        "latency_p99_s": round(percentile(latencies, 99), 4),
        "latency_max_s": round(max(latencies), 4) if latencies else 0.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default="http://127.0.0.1:8472")
    parser.add_argument("--jobs", type=int, default=32)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument(
        "--kind",
        choices=("analyze_request", "repair_request"),
        default="repair_request",
    )
    parser.add_argument(
        "--tenant", default=None,
        help="send every request as this X-Repro-Tenant identity",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="also write the metrics as JSON"
    )
    args = parser.parse_args(argv)
    record = run_load(
        args.url, args.jobs, args.concurrency, kind=args.kind,
        tenant=args.tenant,
    )
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if record["errors"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
