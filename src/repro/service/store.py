"""The durable job store: every submitted job lives in sqlite, not RAM.

This is the spine of the multi-process service topology.  ``POST
/v1/jobs`` inserts a row; worker processes (:mod:`repro.service.workers`)
claim rows with an atomic ``queued -> running`` transition; results,
errors, and the progress-event log are written back to the same file.
Because the store *is* the queue, the properties the old in-memory
``JobQueue`` could not offer fall out of the schema:

- **restart-safe**: a server restart loses zero submitted jobs -- the
  new process reopens the file, :meth:`JobStore.recover` re-enqueues
  anything a dead owner left ``running``, and the workers drain the
  backlog exactly where it stood;
- **crash-safe**: a worker killed mid-job is detected by the pool
  monitor, its claimed jobs go back to ``queued`` (up to
  ``max_attempts``, then ``failed`` with code ``worker-crashed`` so a
  poison job cannot crash-loop the fleet);
- **result retention**: ``GET /v1/jobs/<id>`` for a finished job reads
  the stored result off disk for as long as the retention window keeps
  the row (:meth:`prune`), across restarts -- not until the next
  process exit.

Concurrency model: one sqlite file in WAL mode, opened by the server
process and by every worker process.  Claims run under ``BEGIN
IMMEDIATE`` so two workers can never claim the same row; everything
else is a single-statement autocommit write.  In-process callers
serialize on a lock (one connection per :class:`JobStore` instance,
``check_same_thread=False`` exactly like the persistent query cache).

Shard affinity: each job carries a ``shard_key`` -- a stable hash of
its canonical request document -- and :meth:`claim` prefers rows in the
calling worker's shard before stealing from others.  Identical or
re-submitted requests therefore land on the worker whose warm
:class:`~repro.analysis.oracle.OracleSession` pool already holds their
solver state (the PR 4 fingerprint-affinity routing, lifted from
threads to processes), while the steal fallback keeps a skewed shard
from idling the rest of the pool.

Tenancy: every job carries a ``tenant`` (resolved at admission from the
``X-Repro-Tenant`` header, the request envelope, or the client
address).  :meth:`claim` schedules *across* tenants with deficit-
weighted round-robin -- each claimer cycles tenants in sorted order,
granting each its weight in credit per pass and serving a job per
credit -- so a 1000-job backlog from one tenant delays another tenant's
first job by at most the in-flight job, not the whole backlog.  Shard
affinity still applies *within* the chosen tenant, and an optional
``max_running_per_tenant`` cap keeps one tenant from occupying every
worker at once.  DWRR state is per-claimer (per ``JobStore`` instance)
and needs no cross-process coordination: every claimer being locally
fair makes the fleet fair.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.api.errors import InvalidRequestError, JobNotFoundError
from repro.faults import failpoint

#: wire kind -> the short job kind reported in the job document.
JOB_KINDS = {
    "analyze_request": "analyze",
    "repair_request": "repair",
    "bench_request": "bench",
    "live_protect_request": "protect",
}

#: Cap on progress events retained per job (a runaway search must not
#: grow a job document without bound; the newest events win).
MAX_EVENTS = 500

#: Finished (done/failed) rows kept before :meth:`JobStore.prune`
#: deletes the oldest.  This is the retention window: within it, results
#: survive restarts; beyond it, eviction is explicit policy, not a
#: process lifetime accident.
MAX_FINISHED = 1024

#: Claims per job before the store gives up on it (a job whose worker
#: dies this many times is treated as the cause, not the victim).
MAX_ATTEMPTS = 3

#: The tenant jobs land under when nothing identifies one (no
#: ``X-Repro-Tenant`` header, no envelope ``tenant``, no client
#: address).  Also the sqlite column default, so pre-tenancy rows
#: migrate into this tenant.
DEFAULT_TENANT = "default"

#: Floor for configured DWRR weights: a zero or negative weight would
#: starve its tenant (or spin the scheduler loop); clamping keeps every
#: tenant schedulable and the credit loop bounded.
MIN_TENANT_WEIGHT = 0.05

#: Bounded retry-with-backoff for SQLITE_BUSY: beyond sqlite's own
#: ``busy_timeout``, a mutating statement that still loses the lock race
#: (or hits an injected busy fault) is retried this many times with
#: exponential backoff before the error propagates.
BUSY_RETRIES = 5
BUSY_BACKOFF_S = 0.01

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    status TEXT NOT NULL,
    request TEXT NOT NULL,
    shard_key INTEGER NOT NULL,
    result TEXT,
    error TEXT,
    created_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    owner TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    tenant TEXT NOT NULL DEFAULT 'default'
);
CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs (status);
CREATE TABLE IF NOT EXISTS events (
    job_id TEXT NOT NULL,
    seq INTEGER NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""


@dataclass
class Job:
    """One stored job, hydrated from its row (plus its event log)."""

    id: str
    kind: str  # analyze | repair | bench | protect
    status: str  # queued | running | done | failed | cancelled
    request: dict
    created_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    worker: Optional[str] = None
    events: List[dict] = field(default_factory=list)
    result: Optional[dict] = None
    error: Optional[dict] = None
    tenant: str = DEFAULT_TENANT

    def to_json(self) -> dict:
        """The wire job document (``schemas/job.v1.json``)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "tenant": self.tenant,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "worker": self.worker,
            "events": list(self.events),
            "result": self.result,
            "error": self.error,
        }


def shard_key_of(request_json: dict) -> int:
    """Stable shard key for a request document.

    Canonical-JSON sha1, truncated to a signed-53-bit-safe int so the
    value round-trips through sqlite and JSON untouched.  The same
    request always lands in the same shard -- that is the affinity the
    warm solver pools exploit.
    """
    canonical = json.dumps(request_json, sort_keys=True).encode("utf-8")
    return int(hashlib.sha1(canonical).hexdigest()[:12], 16)


class JobStore:
    """Sqlite-backed job queue + result archive (one file, many processes).

    ``path`` is the database file; parents are created.  Every process
    that touches the queue (the HTTP server, each worker) opens its own
    ``JobStore`` on the same path.  ``max_attempts``/``max_finished``
    bound crash-retry loops and on-disk retention.
    """

    def __init__(
        self,
        path: str,
        max_attempts: int = MAX_ATTEMPTS,
        max_finished: int = MAX_FINISHED,
        max_finished_per_tenant: Optional[int] = None,
    ):
        self.path = path
        self.max_attempts = max_attempts
        self.max_finished = max_finished
        # None means per-tenant retention equals the global window (a
        # single-tenant store behaves exactly as before tenancy).
        self.max_finished_per_tenant = max_finished_per_tenant
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        # DWRR scheduler state (per claimer; see _pick_tenant).
        self._dwrr_credit: Dict[str, float] = {}
        self._dwrr_last: Optional[str] = None
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        try:
            self._conn = sqlite3.connect(
                path, isolation_level=None, check_same_thread=False,
                timeout=30.0,
            )
            # WAL lets the server list/poll jobs while a worker writes
            # results; NORMAL (not the memo cache's OFF) because this
            # file is the source of truth for accepted work, not a memo.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)
            # Databases written before jobs grew cancel_requested lack
            # the column (CREATE TABLE IF NOT EXISTS never alters).
            cols = {
                row[1]
                for row in self._conn.execute("PRAGMA table_info(jobs)")
            }
            if "cancel_requested" not in cols:
                self._conn.execute(
                    "ALTER TABLE jobs ADD COLUMN cancel_requested"
                    " INTEGER NOT NULL DEFAULT 0"
                )
            if "tenant" not in cols:
                self._conn.execute(
                    "ALTER TABLE jobs ADD COLUMN tenant"
                    f" TEXT NOT NULL DEFAULT '{DEFAULT_TENANT}'"
                )
            # The per-tenant depth/stats index is created outside
            # _SCHEMA: on a pre-tenancy database the column only exists
            # after the ALTER above.
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS jobs_by_tenant_status"
                " ON jobs (tenant, status)"
            )
        except sqlite3.DatabaseError as exc:
            raise RuntimeError(
                f"job database {path!r} is unreadable ({exc}); move the "
                "corrupt file aside and restart (accepted jobs in it are "
                "lost -- see OPERATIONS.md, failure modes)"
            ) from exc

    def _retry_busy(self, op):
        """Run ``op`` with bounded retry-with-backoff on SQLITE_BUSY.

        The store is opened by several processes; sqlite's own
        ``busy_timeout`` already absorbs most lock contention, so a
        busy error that still escapes is either pathological load or an
        injected fault -- both deserve a few patient retries before the
        caller sees the failure.
        """
        for attempt in range(BUSY_RETRIES):
            try:
                return op()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                transient = "locked" in message or "busy" in message
                if not transient or attempt == BUSY_RETRIES - 1:
                    raise
                time.sleep(BUSY_BACKOFF_S * (2 ** attempt))

    # -- submission --------------------------------------------------------

    def submit(self, request, tenant: Optional[str] = None) -> Job:
        """Persist a decoded wire request as a ``queued`` job.

        ``tenant`` (usually the identity admission resolved from the
        ``X-Repro-Tenant`` header) wins over the request envelope's own
        ``tenant`` field; with neither, the job lands under
        :data:`DEFAULT_TENANT`.
        """
        kind = JOB_KINDS.get(getattr(request, "kind", None))
        if kind is None:
            raise InvalidRequestError(
                f"cannot run {type(request).__name__} as a job"
            )
        request_json = request.to_json()
        tenant = (
            tenant
            or getattr(request, "tenant", None)
            or DEFAULT_TENANT
        )
        job = Job(
            id=f"job-{next(self._counter):04d}-{uuid.uuid4().hex[:8]}",
            kind=kind,
            status="queued",
            request=request_json,
            created_at=time.time(),
            tenant=tenant,
        )
        with self._lock:
            self._retry_busy(
                lambda: self._conn.execute(
                    "INSERT INTO jobs (id, kind, status, request, shard_key,"
                    " created_at, attempts, tenant)"
                    " VALUES (?, ?, 'queued', ?, ?, ?, 0, ?)",
                    (
                        job.id,
                        kind,
                        json.dumps(request_json, sort_keys=True),
                        shard_key_of(request_json),
                        job.created_at,
                        tenant,
                    ),
                )
            )
        return job

    # -- worker side -------------------------------------------------------

    def claim(
        self,
        owner: str,
        shard: Optional[int] = None,
        shards: Optional[int] = None,
        weights: Optional[Dict[str, float]] = None,
        max_running_per_tenant: Optional[int] = None,
    ) -> Optional[Job]:
        """Atomically move the next ``queued`` job to ``running``.

        Tenant selection runs first: deficit-weighted round-robin over
        every tenant with backlog (``weights`` maps tenant -> relative
        share, default 1.0; ``max_running_per_tenant`` skips tenants
        already running that many jobs).  Within the chosen tenant,
        ``shard``/``shards`` prefer the caller's shard with a steal
        fallback, exactly as before tenancy.  Returns ``None`` when no
        eligible job exists.
        """
        return self._retry_busy(
            lambda: self._claim_once(
                owner, shard, shards, weights, max_running_per_tenant
            )
        )

    def _pick_tenant(
        self,
        eligible: List[str],
        weights: Optional[Dict[str, float]],
    ) -> str:
        """Deficit-weighted round-robin over ``eligible`` tenants.

        Classic DRR with unit-cost jobs: the claimer keeps a credit
        counter per tenant; a tenant is served while it holds a full
        credit, and earns its weight in credit each time the round-robin
        pointer reaches it.  Credits of tenants with no backlog are
        dropped (an empty queue must not bank credit for a later
        burst).  Caller holds ``self._lock``.
        """
        ring = sorted(eligible)
        for tenant in list(self._dwrr_credit):
            if tenant not in eligible:
                del self._dwrr_credit[tenant]
        if len(ring) == 1:
            self._dwrr_last = ring[0]
            return ring[0]

        def weight_of(tenant: str) -> float:
            value = (weights or {}).get(tenant, 1.0)
            return max(MIN_TENANT_WEIGHT, float(value))

        last = self._dwrr_last
        if last in self._dwrr_credit and self._dwrr_credit[last] >= 1.0:
            # Stay on the last-served tenant while it has credit: this
            # is what makes a weight of 2 mean two jobs per turn.
            self._dwrr_credit[last] -= 1.0
            return last
        start = (ring.index(last) + 1) if last in ring else 0
        # Each pass grants every tenant >= MIN_TENANT_WEIGHT credit, so
        # ceil(1 / MIN_TENANT_WEIGHT) passes guarantee a winner.
        limit = len(ring) * (int(1.0 / MIN_TENANT_WEIGHT) + 1)
        for step in range(limit):
            tenant = ring[(start + step) % len(ring)]
            credit = self._dwrr_credit.get(tenant, 0.0) + weight_of(tenant)
            if credit >= 1.0:
                self._dwrr_credit[tenant] = credit - 1.0
                self._dwrr_last = tenant
                return tenant
            self._dwrr_credit[tenant] = credit
        return ring[0]  # unreachable: the clamped weights bound the loop

    def _claim_once(
        self,
        owner: str,
        shard: Optional[int] = None,
        shards: Optional[int] = None,
        weights: Optional[Dict[str, float]] = None,
        max_running_per_tenant: Optional[int] = None,
    ) -> Optional[Job]:
        with self._lock:
            failpoint("jobstore.claim")
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                queued = dict(
                    self._conn.execute(
                        "SELECT tenant, COUNT(*) FROM jobs"
                        " WHERE status='queued' GROUP BY tenant"
                    ).fetchall()
                )
                eligible = list(queued)
                if eligible and max_running_per_tenant is not None:
                    running = dict(
                        self._conn.execute(
                            "SELECT tenant, COUNT(*) FROM jobs"
                            " WHERE status='running' GROUP BY tenant"
                        ).fetchall()
                    )
                    eligible = [
                        t for t in eligible
                        if running.get(t, 0) < max_running_per_tenant
                    ]
                if not eligible:
                    self._conn.execute("COMMIT")
                    return None
                tenant = self._pick_tenant(eligible, weights)
                row = None
                if shard is not None and shards:
                    row = self._conn.execute(
                        "SELECT id FROM jobs WHERE status='queued'"
                        " AND tenant=? AND (shard_key % ?) = ?"
                        " ORDER BY rowid LIMIT 1",
                        (tenant, shards, shard),
                    ).fetchone()
                if row is None:
                    row = self._conn.execute(
                        "SELECT id FROM jobs WHERE status='queued'"
                        " AND tenant=? ORDER BY rowid LIMIT 1",
                        (tenant,),
                    ).fetchone()
                job_id = row[0]
                self._conn.execute(
                    "UPDATE jobs SET status='running', owner=?,"
                    " started_at=?, attempts=attempts+1 WHERE id=?",
                    (owner, time.time(), job_id),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return self.get(job_id)

    def record_event(self, job_id: str, event) -> None:
        """Append one progress event to a job's log (oldest trimmed
        beyond :data:`MAX_EVENTS`)."""
        payload = json.dumps(event.to_json(), sort_keys=True)
        with self._lock:
            self._retry_busy(lambda: self._record_event(job_id, payload))

    def _record_event(self, job_id: str, payload: str) -> None:
        failpoint("events.write")
        cur = self._conn.execute(
            "SELECT COALESCE(MAX(seq), 0) FROM events WHERE job_id=?",
            (job_id,),
        )
        seq = cur.fetchone()[0] + 1
        self._conn.execute(
            "INSERT INTO events (job_id, seq, payload) VALUES (?, ?, ?)",
            (job_id, seq, payload),
        )
        if seq > MAX_EVENTS:
            self._conn.execute(
                "DELETE FROM events WHERE job_id=? AND seq<=?",
                (job_id, seq - MAX_EVENTS),
            )

    def finish(self, job_id: str, result: dict) -> None:
        """``running -> done`` with the result document persisted."""
        self._finish(job_id, "done", result=result)

    def fail(self, job_id: str, error: dict) -> None:
        """``running -> failed`` with the error payload persisted."""
        self._finish(job_id, "failed", error=error)

    def _finish(self, job_id, status, result=None, error=None):
        with self._lock:
            self._retry_busy(
                lambda: self._conn.execute(
                    "UPDATE jobs SET status=?, result=?, error=?,"
                    " finished_at=? WHERE id=?",
                    (
                        status,
                        json.dumps(result, sort_keys=True) if result else None,
                        json.dumps(error, sort_keys=True) if error else None,
                        time.time(),
                        job_id,
                    ),
                )
            )

    # -- cancellation ------------------------------------------------------

    def request_cancel(self, job_id: str) -> str:
        """Ask for a job's cooperative cancellation.

        ``queued`` jobs cancel immediately (terminal ``cancelled``);
        ``running`` jobs get their ``cancel_requested`` flag set -- the
        executing worker observes it at its next progress event and
        stops (returns ``"cancelling"``).  Terminal jobs are left
        untouched (idempotent; returns their status).
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT status FROM jobs WHERE id=?", (job_id,)
                ).fetchone()
                status = row[0] if row else None
                if status == "queued":
                    self._conn.execute(
                        "UPDATE jobs SET status='cancelled',"
                        " cancel_requested=1, finished_at=?, owner=NULL"
                        " WHERE id=?",
                        (time.time(), job_id),
                    )
                    status = "cancelled"
                elif status == "running":
                    self._conn.execute(
                        "UPDATE jobs SET cancel_requested=1 WHERE id=?",
                        (job_id,),
                    )
                    status = "cancelling"
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        if status is None:
            raise JobNotFoundError(f"no such job: {job_id}")
        return status

    def cancel_requested(self, job_id: str) -> bool:
        """Has :meth:`request_cancel` flagged this job?  The polling
        primitive the worker's progress hook uses."""
        with self._lock:
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
        return bool(row and row[0])

    def mark_cancelled(self, job_id: str) -> None:
        """``running -> cancelled`` (terminal), once the worker has
        actually stopped working on the job."""
        with self._lock:
            self._retry_busy(
                lambda: self._conn.execute(
                    "UPDATE jobs SET status='cancelled', finished_at=?,"
                    " owner=NULL WHERE id=? AND status='running'",
                    (time.time(), job_id),
                )
            )

    def release(self, job_id: str) -> str:
        """Give a claimed job back after a transient worker failure.

        The claim already burned an attempt; a job released at the
        attempt cap becomes ``failed`` (code ``worker-crashed``) so a
        poison job cannot bounce forever.  A release that finds the
        cancel flag set lands the job ``cancelled`` instead of
        re-queueing work nobody wants.  Returns the resulting status.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT status, attempts, cancel_requested FROM jobs"
                    " WHERE id=?",
                    (job_id,),
                ).fetchone()
                status = row[0] if row else None
                if status == "running":
                    _, attempts, cancel = row
                    if cancel:
                        self._conn.execute(
                            "UPDATE jobs SET status='cancelled',"
                            " finished_at=?, owner=NULL WHERE id=?",
                            (time.time(), job_id),
                        )
                        status = "cancelled"
                    elif attempts >= self.max_attempts:
                        error = json.dumps({
                            "error": {
                                "code": "worker-crashed",
                                "message": (
                                    f"job failed {attempts} attempt(s);"
                                    " giving up (max_attempts="
                                    f"{self.max_attempts})"
                                ),
                            }
                        }, sort_keys=True)
                        self._conn.execute(
                            "UPDATE jobs SET status='failed', error=?,"
                            " finished_at=?, owner=NULL WHERE id=?",
                            (error, time.time(), job_id),
                        )
                        status = "failed"
                    else:
                        self._conn.execute(
                            "UPDATE jobs SET status='queued', owner=NULL,"
                            " started_at=NULL WHERE id=?",
                            (job_id,),
                        )
                        status = "queued"
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        if status is None:
            raise JobNotFoundError(f"no such job: {job_id}")
        return status

    # -- recovery ----------------------------------------------------------

    def recover(self, active_owners: Iterable[str]) -> Tuple[List[str], List[str]]:
        """Re-enqueue orphaned ``running`` jobs; fail the over-retried.

        A ``running`` row whose ``owner`` is not in ``active_owners`` is
        an orphan: its worker (or the whole previous server process)
        died mid-job.  Orphans under the attempt cap go back to
        ``queued`` -- their next claim re-runs them from the pristine
        request, which is safe because jobs are pure functions of their
        request document.  Orphans at the cap become ``failed`` with
        code ``worker-crashed``.  Returns ``(requeued, failed)`` ids.
        """
        active: Set[str] = set(active_owners)
        requeued: List[str] = []
        failed: List[str] = []
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                rows = self._conn.execute(
                    "SELECT id, owner, attempts, cancel_requested FROM jobs"
                    " WHERE status='running' ORDER BY rowid"
                ).fetchall()
                for job_id, owner, attempts, cancel in rows:
                    if owner in active:
                        continue
                    if cancel:
                        # The caller asked for this job to stop; its
                        # worker dying obliged.  Land it terminal.
                        self._conn.execute(
                            "UPDATE jobs SET status='cancelled',"
                            " finished_at=?, owner=NULL WHERE id=?",
                            (time.time(), job_id),
                        )
                        continue
                    if attempts >= self.max_attempts:
                        error = json.dumps({
                            "error": {
                                "code": "worker-crashed",
                                "message": (
                                    f"job crashed its worker {attempts} "
                                    "time(s); giving up (max_attempts="
                                    f"{self.max_attempts})"
                                ),
                            }
                        }, sort_keys=True)
                        self._conn.execute(
                            "UPDATE jobs SET status='failed', error=?,"
                            " finished_at=?, owner=NULL WHERE id=?",
                            (error, time.time(), job_id),
                        )
                        failed.append(job_id)
                    else:
                        self._conn.execute(
                            "UPDATE jobs SET status='queued', owner=NULL,"
                            " started_at=NULL WHERE id=?",
                            (job_id,),
                        )
                        requeued.append(job_id)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return requeued, failed

    # -- read side ---------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """Hydrate one job (row + event log); raises
        :class:`~repro.api.errors.JobNotFoundError` for unknown ids."""
        with self._lock:
            row = self._conn.execute(
                "SELECT id, kind, status, request, created_at, started_at,"
                " finished_at, attempts, owner, result, error, tenant"
                " FROM jobs WHERE id=?",
                (job_id,),
            ).fetchone()
            if row is None:
                raise JobNotFoundError(f"no such job: {job_id}")
            events = [
                json.loads(payload)
                for (payload,) in self._conn.execute(
                    "SELECT payload FROM events WHERE job_id=? ORDER BY seq",
                    (job_id,),
                )
            ]
        return Job(
            id=row[0], kind=row[1], status=row[2],
            request=json.loads(row[3]),
            created_at=row[4], started_at=row[5], finished_at=row[6],
            attempts=row[7], worker=row[8],
            events=events,
            result=json.loads(row[9]) if row[9] else None,
            error=json.loads(row[10]) if row[10] else None,
            tenant=row[11],
        )

    def events_since(self, job_id: str, after: int) -> Tuple[List[Tuple[int, dict]], str]:
        """(new ``(seq, event)`` pairs, current status) -- what the
        ``/v1/jobs/<id>/events`` stream reads on each wake-up."""
        with self._lock:
            row = self._conn.execute(
                "SELECT status FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
            if row is None:
                raise JobNotFoundError(f"no such job: {job_id}")
            events = [
                (seq, json.loads(payload))
                for seq, payload in self._conn.execute(
                    "SELECT seq, payload FROM events"
                    " WHERE job_id=? AND seq>? ORDER BY seq",
                    (job_id, after),
                )
            ]
        return events, row[0]

    def list(self, limit: int = 256, tenant: Optional[str] = None) -> List[Job]:
        """The newest ``limit`` jobs, oldest first (the ``GET /v1/jobs``
        listing).  ``tenant`` scopes the listing to one tenant's jobs
        (``GET /v1/jobs?tenant=...``)."""
        with self._lock:
            if tenant is None:
                cursor = self._conn.execute(
                    "SELECT id FROM (SELECT id, rowid FROM jobs"
                    " ORDER BY rowid DESC LIMIT ?) ORDER BY rowid",
                    (limit,),
                )
            else:
                cursor = self._conn.execute(
                    "SELECT id FROM (SELECT id, rowid FROM jobs"
                    " WHERE tenant=? ORDER BY rowid DESC LIMIT ?)"
                    " ORDER BY rowid",
                    (tenant, limit),
                )
            ids = [job_id for (job_id,) in cursor]
        return [self.get(job_id) for job_id in ids]

    def depth(self, tenant: Optional[str] = None) -> int:
        """Jobs waiting to run -- the number admission control compares
        against ``max_queue_depth`` (or, with ``tenant``, against the
        per-tenant ``max_queued_per_tenant`` share)."""
        with self._lock:
            if tenant is None:
                return self._conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE status='queued'"
                ).fetchone()[0]
            return self._conn.execute(
                "SELECT COUNT(*) FROM jobs"
                " WHERE status='queued' AND tenant=?",
                (tenant,),
            ).fetchone()[0]

    def counters(self) -> Dict[str, int]:
        """Job totals by status, for ``/v1/stats``."""
        totals: Dict[str, int] = {
            "queued": 0, "running": 0, "done": 0, "failed": 0,
            "cancelled": 0,
        }
        with self._lock:
            for status, count in self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            ):
                totals[status] = count
            totals["total"] = self._conn.execute(
                "SELECT COUNT(*) FROM jobs"
            ).fetchone()[0]
        return totals

    def tenant_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant job totals by status (the store half of
        ``stats.service.tenants``); hits the (tenant, status) index."""
        per_tenant: Dict[str, Dict[str, int]] = {}
        with self._lock:
            for tenant, status, count in self._conn.execute(
                "SELECT tenant, status, COUNT(*) FROM jobs"
                " GROUP BY tenant, status"
            ):
                totals = per_tenant.setdefault(tenant, {
                    "queued": 0, "running": 0, "done": 0, "failed": 0,
                    "cancelled": 0,
                })
                totals[status] = count
        return per_tenant

    def tenant_failure_window(
        self, tenant: str, window_s: float, limit: int = 8
    ) -> Tuple[int, int]:
        """``(finished, failed)`` over the tenant's newest ``limit``
        finished jobs within the last ``window_s`` seconds -- the sample
        the per-tenant circuit breaker judges."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status FROM jobs WHERE tenant=?"
                " AND status IN ('done', 'failed')"
                " AND finished_at IS NOT NULL AND finished_at >= ?"
                " ORDER BY finished_at DESC LIMIT ?",
                (tenant, time.time() - window_s, limit),
            ).fetchall()
        finished = len(rows)
        failed = sum(1 for (status,) in rows if status == "failed")
        return finished, failed

    def prune(self) -> int:
        """Delete finished rows beyond the retention windows; returns
        how many were dropped.

        Two windows apply: each tenant keeps its newest
        ``max_finished_per_tenant`` finished rows (one tenant's burst of
        finished jobs cannot evict another tenant's results), and the
        store keeps ``max_finished`` overall.  With
        ``max_finished_per_tenant=None`` the per-tenant window equals
        the global one, so a single-tenant store prunes exactly as
        before tenancy.

        Workers prune after every job, so the common case -- nothing past
        either window -- is answered from counts over covering indexes
        before the queries that read every finished row.
        """
        per_cap = (
            self.max_finished_per_tenant
            if self.max_finished_per_tenant is not None
            else self.max_finished
        )
        doomed = set()
        with self._lock:
            finished = self._conn.execute(
                "SELECT COUNT(*) FROM jobs"
                " WHERE status IN ('done', 'failed', 'cancelled')"
            ).fetchone()[0]
            # No tenant can hold more finished rows than the store does.
            if finished <= self.max_finished and (
                finished <= per_cap
                or self._conn.execute(
                    "SELECT 1 FROM jobs INDEXED BY jobs_by_tenant_status"
                    " WHERE status IN ('done', 'failed', 'cancelled')"
                    " GROUP BY tenant HAVING COUNT(*) > ? LIMIT 1",
                    (per_cap,),
                ).fetchone() is None
            ):
                return 0
            for (tenant,) in self._conn.execute(
                "SELECT DISTINCT tenant FROM jobs"
                " WHERE status IN ('done', 'failed', 'cancelled')"
            ).fetchall():
                for (job_id,) in self._conn.execute(
                    "SELECT id FROM jobs WHERE tenant=?"
                    " AND status IN ('done', 'failed', 'cancelled')"
                    " ORDER BY rowid DESC LIMIT -1 OFFSET ?",
                    (tenant, per_cap),
                ):
                    doomed.add(job_id)
            for (job_id,) in self._conn.execute(
                "SELECT id FROM jobs"
                " WHERE status IN ('done', 'failed', 'cancelled')"
                " ORDER BY rowid DESC LIMIT -1 OFFSET ?",
                (self.max_finished,),
            ):
                doomed.add(job_id)
            for job_id in sorted(doomed):
                self._conn.execute("DELETE FROM jobs WHERE id=?", (job_id,))
                self._conn.execute(
                    "DELETE FROM events WHERE job_id=?", (job_id,)
                )
        return len(doomed)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
