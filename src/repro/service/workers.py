"""Worker processes: the execution tier of the service topology.

The HTTP process accepts and persists jobs; *these* processes run them.
Each worker is a real OS process (stdlib ``multiprocessing``, spawn
context) with its own :class:`~repro.api.Workspace` -- its own warm
:class:`~repro.analysis.oracle.OracleSession` pool and memo cache -- so
N workers put N cores to work where the old single-process queue was
GIL-bound.  Workers consume from the shared
:class:`~repro.service.store.JobStore` with shard preference (see
:func:`~repro.service.store.shard_key_of`): a worker's shard of the
request space keeps hitting the same warm solver state, and the steal
fallback keeps skewed shards from idling anyone.

Two semaphores make the job path event-driven.  The *work* semaphore
is released once per job that becomes claimable (``submit_job``, and
the pool monitor for each job ``recover()`` re-queues); an idle worker
blocks on it, so an idle fleet starts a job at once.  The *change*
semaphore is released by a worker after each store write an event
stream waits for (a progress event, the final ``done``/``failed``/
``cancelled`` transition, a release); the server relays it to its
streams.  Both are semaphores, not events or conditions, because
``release()`` never blocks: ``multiprocessing.Event.set()`` waits for
every sleeper to acknowledge, so it hangs for good once a worker has
been SIGKILLed inside ``wait()``.  No wake-up blocks on a dead process.

Crash handling is the pool monitor's job: a dead worker's claimed jobs
are re-enqueued through :meth:`~repro.service.store.JobStore.recover`
and a replacement process is spawned, so a SIGKILL mid-job delays that
job's result rather than losing it.  Graceful drain flips a shared stop
event; each worker finishes its in-flight job, checkpoints its caches
(``Workspace.close`` flushes the persistent query cache), and exits.

``workers=0`` keeps execution in the server process: an
:class:`InlineRunner` thread drains the same store with the server's
own shared workspace.  Same durability (the store is still sqlite),
no process fan-out -- the right default for tests and one-core hosts.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro import faults
from repro.api.errors import JobCancelledError, error_payload
from repro.api.events import ProgressEvent
from repro.api.types import decode_request
from repro.api.workspace import WorkspaceConfig
from repro.faults import FaultInjected, failpoint
from repro.service.store import DEFAULT_TENANT, Job, JobStore

#: Longest an idle worker waits on the work semaphore before it claims
#: again.  A job submitted through this server (or re-queued by the
#: pool monitor) wakes a waiting worker at once; this timeout is the
#: fallback for a job that arrives without a wake-up: one queued by a
#: second process on the same ``--job-db``, or one whose wake-up went to
#: a worker SIGKILLed just after taking it.  Jobs already queued at boot
#: need none, since a worker claims before it first waits.  The wake-up
#: is a semaphore because ``release()`` never blocks, even with a dead
#: process among the waiters (see the module docstring).
POLL_INTERVAL = 0.05

#: Floor between cancel-flag polls in the progress hook.  Every progress
#: event is a poll opportunity; this keeps a chatty phase from turning
#: each one into a store read.
CANCEL_POLL_INTERVAL = 0.05

#: Consecutive fast worker deaths before that worker slot's circuit
#: breaker opens (no respawn until the cooldown passes).
BREAKER_THRESHOLD = 3

#: How long an open breaker keeps its slot down.  Work keeps flowing:
#: the other workers steal the idle shard's jobs.
BREAKER_COOLDOWN_S = 30.0

#: A worker that survived at least this long before dying was doing real
#: work, not crash-looping; its death resets the streak.
BREAKER_HEALTHY_S = 10.0

#: Per-tenant workspaces a worker keeps warm at once.  Each open
#: workspace is a solver-session pool plus a memo cache, so the pool is
#: small; the least-recently-served tenant's workspace is closed (which
#: checkpoints its persistent cache) when a new tenant needs a slot.
MAX_TENANT_WORKSPACES = 4


class TenantWorkspaces:
    """Per-tenant workspace pool for one worker process.

    Tenancy must isolate *caches* too: tenant A's persistent query
    cache must not serve (or be poisoned by) tenant B's entries, so
    each non-default tenant gets a workspace built from
    :meth:`~repro.api.workspace.WorkspaceConfig.for_tenant` -- its own
    ``tenant-<id>`` cache subdirectory.  The default tenant (and every
    tenant when no ``cache_dir`` is configured, where there is nothing
    durable to isolate) shares the base workspace, which keeps the
    single-tenant hot path identical to the pre-tenancy behavior.
    """

    def __init__(self, config: WorkspaceConfig, max_open: int = MAX_TENANT_WORKSPACES):
        self.config = config
        self.max_open = max_open
        self.base = config.build()
        self._pool: "OrderedDict[str, object]" = OrderedDict()

    def get(self, tenant: str):
        if tenant == DEFAULT_TENANT or not self.config.cache_dir:
            return self.base
        workspace = self._pool.get(tenant)
        if workspace is None:
            workspace = self.config.for_tenant(tenant).build()
            self._pool[tenant] = workspace
            while len(self._pool) > self.max_open:
                _, evicted = self._pool.popitem(last=False)
                evicted.close()  # checkpoint before the slot is reused
        else:
            self._pool.move_to_end(tenant)
        return workspace

    def close(self) -> None:
        for workspace in self._pool.values():
            workspace.close()
        self._pool.clear()
        self.base.close()


def execute_job(workspace, store: JobStore, job: Job, changed) -> None:
    """Run one claimed job to completion against ``workspace``.

    Progress events stream into the store as they happen (the
    ``/v1/jobs/<id>/events`` endpoint tails them); the result or error
    document is persisted in the final state transition.  Jobs are pure
    functions of their request document, which is what makes crash-
    retry (re-claiming the same row) safe.

    The progress hook doubles as the cooperative-cancellation check:
    each event (time-gated) re-reads the job's ``cancel_requested``
    flag and aborts the operation by raising out of the callback (the
    :mod:`repro.events` contract), landing the job terminal
    ``cancelled`` without killing the worker.

    ``changed`` (the change semaphore) is released after every stored
    event and after the final state transition, so event streams wake
    on each write instead of polling for it.
    """
    last_poll = [0.0]

    def on_progress(event) -> None:
        now = time.monotonic()
        if now - last_poll[0] >= CANCEL_POLL_INTERVAL:
            last_poll[0] = now
            if store.cancel_requested(job.id):
                raise JobCancelledError(f"job {job.id} cancelled by request")
        if event.stage == "analyze.tick":
            # Ticks exist to give this hook something to poll on during
            # long fan-outs; persisting them would spam the event log.
            return
        try:
            store.record_event(job.id, event)
        except (FaultInjected, sqlite3.Error):
            # The event log is best-effort narration -- an injected or
            # real write failure must not fail the job itself.
            return
        changed.release()

    try:
        request = decode_request(job.request)
        if job.kind == "analyze":
            result = workspace.analyze(request, on_progress=on_progress)
        elif job.kind == "repair":
            result = workspace.repair(request, on_progress=on_progress)
        elif job.kind == "protect":
            result = workspace.protect(request, on_progress=on_progress)
        else:
            result = workspace.bench(request, on_progress=on_progress)
        failpoint("worker.pre_result")
        store.finish(job.id, result.to_json())
    except JobCancelledError:
        store.mark_cancelled(job.id)
        try:
            store.record_event(job.id, ProgressEvent("job.cancelled", {}))
        except (FaultInjected, sqlite3.Error):
            pass
    except FaultInjected:
        # An injected fault is transient by definition: give the job
        # back (burning the attempt the claim took) instead of failing
        # it -- the chaos gate requires every job to land terminal with
        # its fault-free result whenever attempts remain.
        store.release(job.id)
    except Exception as exc:  # noqa: BLE001 - job boundary
        store.fail(job.id, error_payload(exc))
    finally:
        changed.release()


def _drain_loop(
    store: JobStore,
    workspace,
    owner: str,
    should_stop: Callable[[], bool],
    shard: Optional[int] = None,
    shards: Optional[int] = None,
    weights: Optional[Dict[str, float]] = None,
    max_running_per_tenant: Optional[int] = None,
    workspace_for: Optional[Callable[[str], object]] = None,
    work=None,
    changed=None,
) -> None:
    """Claim-execute until told to stop; shared by both runner kinds.

    With nothing to claim the loop blocks on ``work`` (the work
    semaphore, released once per new job) for at most
    :data:`POLL_INTERVAL`, then claims again; a wake-up whose job a
    busy worker already took costs one empty claim.  ``changed`` is
    handed to :func:`execute_job`.  Either may be a ``threading`` or a
    ``multiprocessing`` semaphore; left out, each is a private one, so
    the loop just polls.  ``weights``/``max_running_per_tenant`` flow
    into the store's deficit-weighted claim; ``workspace_for`` (when
    given) selects the per-tenant workspace each claimed job runs
    against.
    """
    work = threading.Semaphore(0) if work is None else work
    changed = threading.Semaphore(0) if changed is None else changed
    while not should_stop():
        try:
            job = store.claim(
                owner, shard=shard, shards=shards,
                weights=weights,
                max_running_per_tenant=max_running_per_tenant,
            )
        except sqlite3.ProgrammingError:
            # The store was closed under us: the inline tier's daemon
            # thread can lose the race with server shutdown between the
            # stop check and the claim.  Nothing left to drain.
            return
        except (FaultInjected, sqlite3.OperationalError):
            # A claim that failed (injected, or a real lock pile-up
            # outliving the store's bounded retry) claimed nothing:
            # back off and try again rather than killing the runner.
            time.sleep(POLL_INTERVAL)
            continue
        if job is None:
            # Positional: the keyword is ``block`` on a multiprocessing
            # semaphore and ``blocking`` on a threading one.
            work.acquire(True, POLL_INTERVAL)
            continue
        target = workspace_for(job.tenant) if workspace_for else workspace
        try:
            execute_job(target, store, job, changed)
            store.prune()
        except sqlite3.ProgrammingError:
            # Closed under us mid-job (a non-draining shutdown stops
            # claiming but lets the in-flight job run): the claimed row
            # is re-enqueued on restart by owner expiry, so dropping
            # this result loses nothing durable.
            return
        except sqlite3.OperationalError:
            pass  # retention is periodic; the next pass catches up
    # Drain exit is a retention checkpoint too: a worker told to stop
    # while idle still leaves the store pruned, so retention does not
    # depend on one more job arriving first.  sqlite3.Error (not just
    # OperationalError): the inline tier's daemon thread can observe
    # the stop flag after the server already closed the shared store.
    try:
        store.prune()
    except sqlite3.Error:
        pass


def worker_main(
    index: int,
    shards: int,
    job_db: str,
    config: WorkspaceConfig,
    stop_event,
    work,
    changed,
    tenant_weights: Optional[Dict[str, float]] = None,
    max_running_per_tenant: Optional[int] = None,
) -> None:
    """Entry point of one worker process (must be importable: spawn)."""
    # Spawned processes inherit the environment, not the parent's
    # in-process fault plan: re-arm it here (crash actions included --
    # killing a worker is exactly what the pool monitor must survive).
    faults.install_from_env()
    store = JobStore(job_db)
    workspaces = TenantWorkspaces(config)
    owner = f"w{index}-{os.getpid()}"
    try:
        _drain_loop(
            store, workspaces.base, owner,
            stop_event.is_set,
            shard=index, shards=shards,
            weights=tenant_weights,
            max_running_per_tenant=max_running_per_tenant,
            workspace_for=workspaces.get,
            work=work, changed=changed,
        )
    finally:
        # Graceful exit checkpoints the worker's persistent query caches
        # (Workspace.close flushes them) -- the warm state a drain hands
        # to the next process generation.
        workspaces.close()
        store.close()


class WorkerPool:
    """N worker processes over one job database, with crash recovery.

    The pool owns only process lifecycle; all work state lives in the
    store.  The monitor thread restarts dead workers and re-enqueues
    whatever they had claimed; :meth:`drain` is the graceful path
    (finish in-flight, then exit), :meth:`stop` the immediate one.
    ``work`` and ``changed`` are the pool's two wake-up semaphores,
    shared with every worker process it spawns.
    """

    def __init__(
        self,
        job_db: str,
        config: WorkspaceConfig,
        workers: int,
        tenant_weights: Optional[Dict[str, float]] = None,
        max_running_per_tenant: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        self.job_db = job_db
        self.config = config
        self.workers = workers
        self.tenant_weights = dict(tenant_weights or {})
        self.max_running_per_tenant = max_running_per_tenant
        self.restarts = 0
        self.breaker_trips = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._stop_event = self._ctx.Event()
        self.work = self._ctx.Semaphore(0)
        self.changed = self._ctx.Semaphore(0)
        self._procs: List[Optional[multiprocessing.Process]] = [None] * workers
        # Per-slot circuit breaker: consecutive fast deaths trip it,
        # opening the slot (no respawn) for a cooldown; the shard-steal
        # fallback in JobStore.claim keeps that shard's jobs flowing
        # through the surviving workers meanwhile.
        self._streaks = [0] * workers
        self._spawned_at = [0.0] * workers
        self._cooldown_until = [0.0] * workers
        self._store = JobStore(job_db)
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for index in range(self.workers):
            self._spawn(index)
        self._monitor = threading.Thread(
            target=self._watch, name="repro-worker-monitor", daemon=True
        )
        self._monitor.start()

    def _spawn(self, index: int) -> None:
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                index,
                self.workers,
                self.job_db,
                self.config.for_worker(index),
                self._stop_event,
                self.work,
                self.changed,
                self.tenant_weights,
                self.max_running_per_tenant,
            ),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        proc.start()
        self._procs[index] = proc
        self._spawned_at[index] = time.monotonic()

    def active_owners(self) -> List[str]:
        """Owner ids of currently live workers (dead workers' claims are
        orphans by definition)."""
        with self._lock:
            return [
                f"w{index}-{proc.pid}"
                for index, proc in enumerate(self._procs)
                if proc is not None and proc.is_alive()
            ]

    def pids(self) -> List[int]:
        with self._lock:
            return [
                proc.pid
                for proc in self._procs
                if proc is not None and proc.pid is not None
            ]

    def _watch(self) -> None:
        """Restart dead workers and rescue their claimed jobs.

        Respawns back off exponentially (0.2s -> 5s) while workers keep
        dying, so a worker that cannot even boot (bad cache dir, broken
        environment) costs a few respawns per second, not thousands.
        A slot that dies :data:`BREAKER_THRESHOLD` times in quick
        succession trips its circuit breaker instead: no respawn for
        :data:`BREAKER_COOLDOWN_S`, the remaining workers steal its
        shard's jobs."""
        delay = 0.2
        while not self._monitor_stop.wait(delay):
            if self._stop_event.is_set():
                continue
            died = False
            now = time.monotonic()
            with self._lock:
                for index, proc in enumerate(self._procs):
                    if proc is None:
                        if now >= self._cooldown_until[index]:
                            # Breaker half-open: try one fresh worker.
                            self._streaks[index] = 0
                            self._spawn(index)
                        continue
                    if not proc.is_alive():
                        died = True
                        self.restarts += 1
                        proc.join(timeout=0)
                        healthy = (
                            now - self._spawned_at[index] >= BREAKER_HEALTHY_S
                        )
                        self._streaks[index] = (
                            1 if healthy else self._streaks[index] + 1
                        )
                        if self._streaks[index] >= BREAKER_THRESHOLD:
                            self.breaker_trips += 1
                            self._cooldown_until[index] = (
                                now + BREAKER_COOLDOWN_S
                            )
                            self._procs[index] = None
                        else:
                            self._spawn(index)
            delay = min(5.0, delay * 2) if died else 0.2
            if died:
                # Recover *after* respawning: the replacement's owner id
                # is live, the dead one is not, so exactly the orphaned
                # claims go back to queued.
                requeued, _ = self._store.recover(self.active_owners())
                for _ in requeued:
                    self.work.release()
                # Orphans may also have landed failed or cancelled.
                self.changed.release()

    def drain(self, timeout: float = 60.0) -> bool:
        """Graceful stop: finish in-flight jobs, checkpoint caches, exit.
        Returns whether every worker exited within ``timeout``."""
        self._monitor_stop.set()
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
        deadline = time.monotonic() + timeout
        clean = True
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
                clean = False
        self._store.close()
        return clean

    def stop(self) -> None:
        """Immediate teardown (tests, error paths); claimed jobs become
        orphans for the next :meth:`~repro.service.store.JobStore.recover`."""
        self._monitor_stop.set()
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._store.close()

    def counters(self) -> Dict[str, int]:
        return {
            "workers": self.workers,
            "alive": sum(
                1
                for proc in self._procs
                if proc is not None and proc.is_alive()
            ),
            "restarts": self.restarts,
            "breaker_trips": self.breaker_trips,
        }


class InlineRunner:
    """The ``workers=0`` execution tier: one daemon thread, the server's
    own workspace, the same durable store semantics, and the same two
    wake-up semaphores (``threading`` ones: nothing leaves the
    process)."""

    def __init__(
        self,
        store: JobStore,
        workspace,
        tenant_weights: Optional[Dict[str, float]] = None,
        max_running_per_tenant: Optional[int] = None,
    ):
        self.store = store
        self.workspace = workspace
        self.work = threading.Semaphore(0)
        self.changed = threading.Semaphore(0)
        self.tenant_weights = dict(tenant_weights or {})
        self.max_running_per_tenant = max_running_per_tenant
        self.owner = f"inline-{os.getpid()}"
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-inline-runner", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        # The inline tier shares the server's one workspace for every
        # tenant: per-tenant cache isolation is a worker-process
        # concern (workers own their cache directories; the server's
        # is also serving the sync endpoints).
        _drain_loop(
            self.store, self.workspace, self.owner,
            self._stop.is_set,
            weights=self.tenant_weights,
            max_running_per_tenant=self.max_running_per_tenant,
            work=self.work, changed=self.changed,
        )

    def active_owners(self) -> List[str]:
        return [self.owner]

    def drain(self, timeout: float = 60.0) -> bool:
        self._stop.set()
        self.work.release()  # an idle loop sees the stop flag at once
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            return not self._thread.is_alive()
        return True

    def stop(self) -> None:
        # A thread cannot be killed; "immediate" stop for the inline
        # tier means stop claiming and let the in-flight job finish in
        # the daemon thread (the process is usually exiting anyway).
        self._stop.set()
        self.work.release()

    def counters(self) -> Dict[str, int]:
        alive = self._thread is not None and self._thread.is_alive()
        return {
            "workers": 0, "alive": int(alive),
            "restarts": 0, "breaker_trips": 0,
        }
