"""The JSON-over-HTTP front door: stdlib only, durable jobs, N workers.

``repro serve`` (or :func:`serve`) exposes the :mod:`repro.api` façade
over a :class:`http.server.ThreadingHTTPServer`:

=======  =========================  =========================================
method   path                       body / response
=======  =========================  =========================================
POST     ``/v1/analyze``            ``analyze_request`` -> ``analyze_result``
POST     ``/v1/repair``             ``repair_request`` -> ``repair_result``
POST     ``/v1/bench``              ``bench_request`` -> ``bench_result``
POST     ``/v1/protect``            ``live_protect_request`` ->
                                    ``live_protect_result`` (live repair)
POST     ``/v1/jobs``               any request kind -> ``job`` (202) or
                                    429 ``queue-full`` when the durable
                                    queue is at ``max_queue_depth``
GET      ``/v1/jobs``               ``{"jobs": [job, ...]}``
GET      ``/v1/jobs/<id>``          ``job`` (status, events, stored result)
POST     ``/v1/jobs/<id>/cancel``   cooperative cancel -> ``{"id",
                                    "status"}`` (queued jobs cancel
                                    immediately; running jobs stop at
                                    their next progress event)
GET      ``/v1/jobs/<id>/events``   chunked NDJSON progress-event stream
                                    (idle streams carry ``{"kind":
                                    "heartbeat"}`` keep-alive lines)
POST     ``/v1/tenants/<id>/suspend``  operator kill-switch: shed every
                                    mutating request from ``<id>`` with
                                    429 ``tenant-suspended``
POST     ``/v1/tenants/<id>/resume``   lift a suspension (and any open
                                    circuit-breaker cooldown)
GET      ``/v1/health``             ``{"status": "ok", "version", ...}``
GET      ``/v1/stats``              cache/session/job/admission counters
                                    plus per-tenant ``service.tenants``
=======  =========================  =========================================

Multi-tenancy: requests carrying an ``X-Repro-Tenant`` header (or a
``tenant`` field on the job envelope) act as that tenant; everything
else is keyed by client address.  Tenants get their own rate bucket,
an optional queued-jobs share (``max_queued_per_tenant``), an optional
running cap (``max_running_per_tenant``), deficit-weighted-fair claim
scheduling across the worker fleet (``tenant_weights``), and a circuit
breaker that sheds a tenant whose recent jobs keep failing.

The topology (see DESIGN.md for the diagram, OPERATIONS.md for the
runbook): this process parses, validates, and *admits*; accepted jobs
are rows in a sqlite :class:`~repro.service.store.JobStore`; worker
processes (:class:`~repro.service.workers.WorkerPool`, ``workers=N``)
or an in-process thread (``workers=0``) claim and run them.  Sync
endpoints still execute on the shared in-process workspace -- they are
the low-latency path for small programs; jobs are the scalable path.

Admission control (:mod:`repro.service.admission`) refuses work with
stable codes before it costs anything: 429 ``rate-limited`` /
``queue-full`` (with ``Retry-After``), 413 ``request-too-large``, 503
``draining``.  SIGTERM starts a graceful drain: stop admitting, finish
in-flight jobs, checkpoint caches, exit.  All other errors serialize as
``{"error": {"code", "message"}}`` with the status each error class
declares; unexpected faults become ``internal-error`` 500s without
leaking a traceback.

Results are byte-identical to direct library calls -- on the sync path
*and* through the worker processes -- by differential test gate.
"""

from __future__ import annotations

import json
import shutil
import signal
import socket
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api.errors import (
    ApiError,
    InvalidRequestError,
    QueueFullError,
    TenantQueueFullError,
    error_payload,
    http_status_of,
)
from repro.api.types import (
    SCHEMA_VERSION,
    AnalyzeRequest,
    BenchRequest,
    LiveProtectRequest,
    RepairRequest,
    decode_request,
)
from repro.api.workspace import Workspace, WorkspaceConfig
from repro.errors import ReproError
from repro.service.admission import (
    BREAKER_SAMPLE,
    BREAKER_WINDOW_S,
    DEFAULT_MAX_QUEUE_DEPTH,
    AdmissionController,
    resolve_tenant,
)
from repro.service.store import DEFAULT_TENANT, JobStore
from repro.service.workers import InlineRunner, WorkerPool

#: How often the event stream polls the store for new rows.
STREAM_POLL_INTERVAL = 0.05

#: Idle seconds before an event stream emits a ``{"kind": "heartbeat"}``
#: keep-alive line (documented in ``schemas/job_event.v1.json``), so
#: proxies and client read-timeouts don't sever a quiet long stream.
HEARTBEAT_INTERVAL = 15.0

#: How often the server-side timer prunes finished jobs past the
#: retention window (finished includes terminal ``cancelled``).
PRUNE_INTERVAL = 60.0

#: Statuses a job can never leave (the event stream's end condition).
TERMINAL_STATUSES = ("done", "failed", "cancelled")


class NotFoundError(ApiError):
    """No route matches the request path."""

    code = "not-found"
    http_status = 404


class MethodNotAllowedError(ApiError):
    """The route exists but not under this HTTP method."""

    code = "method-not-allowed"
    http_status = 405


def _headers_of(exc: BaseException) -> Dict[str, str]:
    """Extra response headers an error wants sent (``Retry-After``)."""
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        return {"Retry-After": str(retry_after)}
    return {}


class ReproService:
    """Transport-independent request router over one workspace + store.

    Separating routing from :class:`http.server` keeps the whole
    surface unit-testable without sockets: :meth:`handle` is the JSON
    request/response path, :meth:`open_event_stream` the streaming one.

    ``workers=0`` (default) runs jobs on an in-process thread against
    the shared workspace; ``workers=N`` spawns N worker processes, each
    building its own workspace from ``worker_config``.  ``job_db`` is
    the sqlite queue path -- pass a real path to survive restarts; the
    default is a private temp file deleted on :meth:`close` (durable
    against worker crashes, not against losing the server's temp dir).
    """

    def __init__(
        self,
        workspace: Optional[Workspace] = None,
        *,
        job_db: Optional[str] = None,
        workers: int = 0,
        worker_config: Optional[WorkspaceConfig] = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        max_request_bytes: Optional[int] = None,
        jitter_seed: Optional[int] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        max_queued_per_tenant: Optional[int] = None,
        max_running_per_tenant: Optional[int] = None,
        start_runner: bool = True,
    ):
        self._owns_workspace = workspace is None
        self.workspace = workspace if workspace is not None else Workspace()
        self._tmpdir = None
        if job_db is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-jobs-")
            job_db = f"{self._tmpdir}/jobs.sqlite"
        self.store = JobStore(job_db)
        self.max_queue_depth = max_queue_depth
        self.tenant_weights = dict(tenant_weights or {})
        self.max_queued_per_tenant = max_queued_per_tenant
        self.max_running_per_tenant = max_running_per_tenant
        admission_kwargs = {}
        if max_request_bytes is not None:
            admission_kwargs["max_request_bytes"] = max_request_bytes
        self.admission = AdmissionController(
            rate_limit=rate_limit, rate_burst=rate_burst,
            jitter_seed=jitter_seed,
            failure_probe=lambda tenant: self.store.tenant_failure_window(
                tenant, BREAKER_WINDOW_S, BREAKER_SAMPLE
            ),
            **admission_kwargs,
        )
        self.workers = workers
        if workers > 0:
            config = worker_config or WorkspaceConfig(strategy="incremental")
            self.runner = WorkerPool(
                job_db, config, workers,
                tenant_weights=self.tenant_weights,
                max_running_per_tenant=max_running_per_tenant,
            )
        else:
            self.runner = InlineRunner(
                self.store, self.workspace,
                tenant_weights=self.tenant_weights,
                max_running_per_tenant=max_running_per_tenant,
            )
        # Anything still `running` in a reopened store belongs to a
        # previous process generation: re-enqueue before workers start,
        # so a restart loses zero accepted jobs.
        requeued, _ = self.store.recover(set())
        self.recovered_jobs = len(requeued)
        if start_runner:
            self.runner.start()
        self._started_runner = start_runner
        self._closed = False
        # Retention is a policy, not an accident of traffic: prune on a
        # timer too, so a server that stops receiving jobs still honours
        # the window (satellite fix: cancelled rows are now pruned).
        self._prune_stop = threading.Event()
        self._prune_thread = threading.Thread(
            target=self._prune_loop, name="repro-prune", daemon=True
        )
        if start_runner:
            self._prune_thread.start()

    def _prune_loop(self) -> None:
        while not self._prune_stop.wait(PRUNE_INTERVAL):
            try:
                self.store.prune()
            except Exception:  # noqa: BLE001 - maintenance must not die
                pass

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: float = 60.0) -> bool:
        """Graceful shutdown, phase one: stop admitting (503
        ``draining``), let workers finish in-flight jobs and checkpoint
        their caches.  Read endpoints stay up throughout so operators
        can watch the queue empty via ``/v1/stats``."""
        self.admission.draining = True
        return self.runner.drain(timeout=timeout)

    def close(self) -> None:
        """Release everything: runner, store, owned workspace (closing
        the workspace checkpoints the server-side persistent cache)."""
        if self._closed:
            return
        self._closed = True
        self._prune_stop.set()
        if self._prune_thread.is_alive():
            self._prune_thread.join(timeout=5)
        if self._started_runner:
            if self.admission.draining:
                self.runner.drain(timeout=5)
            else:
                self.runner.stop()
        self.store.close()
        if self._owns_workspace:
            self.workspace.close()
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)

    # -- routing -----------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: bytes,
        client: Optional[str] = None,
        tenant_header: Optional[str] = None,
    ) -> Tuple[int, dict, Dict[str, str]]:
        """(status, JSON-ready payload, extra headers) for one request.

        ``tenant_header`` is the raw ``X-Repro-Tenant`` value (or
        ``None``); :func:`resolve_tenant` maps it -- with degradation,
        never an error -- to the identity every gate below keys on.
        """
        tenant = resolve_tenant(tenant_header, client)
        # Tenant-scoped error codes only apply to explicitly identified
        # tenants; address-derived identities keep the pre-tenancy codes
        # so header-less clients see an unchanged wire surface.
        explicit = (
            tenant_header is not None and tenant == tenant_header.strip()
        )
        try:
            if method == "POST" and not self._is_admission_exempt(path):
                # Cancels and tenant suspend/resume bypass admission
                # entirely: they *shed* work, so refusing them while
                # draining or rate-limited would be backwards.
                self.admission.admit(tenant, len(body), explicit_tenant=explicit)
            status, payload = self._dispatch(method, path, body, tenant, explicit)
            return status, payload, {}
        except ReproError as exc:
            return http_status_of(exc), error_payload(exc), _headers_of(exc)
        except Exception as exc:  # noqa: BLE001 - service boundary
            return 500, error_payload(exc), {}

    def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        tenant: str = DEFAULT_TENANT,
        explicit: bool = False,
    ) -> Tuple[int, dict]:
        parts = [p for p in urlparse(path).path.split("/") if p]
        if not parts or parts[0] != "v1":
            raise NotFoundError(f"no such endpoint: {path} (try /v1/health)")
        route = parts[1:]
        if route == ["health"]:
            self._require(method, "GET", path)
            return 200, self.health()
        if route == ["stats"]:
            self._require(method, "GET", path)
            return 200, self.stats()
        if route == ["analyze"]:
            self._require(method, "POST", path)
            request = AnalyzeRequest.from_json(self._json(body))
            return 200, self.workspace.analyze(request).to_json()
        if route == ["repair"]:
            self._require(method, "POST", path)
            request = RepairRequest.from_json(self._json(body))
            return 200, self.workspace.repair(request).to_json()
        if route == ["bench"]:
            self._require(method, "POST", path)
            request = BenchRequest.from_json(self._json(body))
            return 200, self.workspace.bench(request).to_json()
        if route == ["protect"]:
            self._require(method, "POST", path)
            request = LiveProtectRequest.from_json(self._json(body))
            return 200, self.workspace.protect(request).to_json()
        if route == ["jobs"]:
            if method == "POST":
                request = decode_request(self._json(body))
                return 202, self.submit_job(
                    request, tenant=tenant, explicit=explicit
                ).to_json()
            self._require(method, "GET", path)
            query = parse_qs(urlparse(path).query)
            tenant_filter = (query.get("tenant") or [None])[0]
            jobs = self.store.list(tenant=tenant_filter)
            return 200, {"jobs": [j.to_json() for j in jobs]}
        if len(route) == 3 and route[0] == "jobs" and route[2] == "cancel":
            self._require(method, "POST", path)
            status = self.store.request_cancel(route[1])
            return 200, {"id": route[1], "status": status}
        if len(route) == 2 and route[0] == "jobs":
            self._require(method, "GET", path)
            return 200, self.store.get(route[1]).to_json()
        if (
            len(route) == 3
            and route[0] == "tenants"
            and route[2] in ("suspend", "resume")
        ):
            self._require(method, "POST", path)
            if route[2] == "suspend":
                self.admission.suspend(route[1])
            else:
                self.admission.resume(route[1])
            return 200, {
                "tenant": route[1],
                "suspended": self.admission.is_suspended(route[1]),
            }
        raise NotFoundError(f"no such endpoint: {path}")

    @staticmethod
    def _is_admission_exempt(path: str) -> bool:
        """POSTs that shed or govern load -- job cancels and tenant
        suspend/resume -- bypass admission: refusing a cancel while
        rate-limited, or a resume while that tenant's breaker is open,
        would be backwards."""
        parts = [p for p in urlparse(path).path.split("/") if p]
        return len(parts) == 4 and (
            (parts[:2] == ["v1", "jobs"] and parts[3] == "cancel")
            or (parts[:2] == ["v1", "tenants"]
                and parts[3] in ("suspend", "resume"))
        )

    def submit_job(
        self,
        request,
        tenant: Optional[str] = None,
        explicit: bool = False,
    ):
        """Admit one job into the durable queue (the queue-depth gates
        live here because they need the store).

        Identity precedence: ``X-Repro-Tenant`` header, then the
        ``tenant`` field on the request envelope, then the resolved
        fallback (client address / default).  The per-tenant share gate
        -- opt-in via ``max_queued_per_tenant`` -- fires before the
        global cap, so one tenant's backlog refuses *that tenant*, not
        everyone.
        """
        if not explicit:
            body_tenant = getattr(request, "tenant", None)
            if body_tenant:
                tenant, explicit = body_tenant, True
        tenant = tenant or DEFAULT_TENANT
        if self.max_queued_per_tenant is not None:
            tenant_depth = self.store.depth(tenant=tenant)
            if tenant_depth >= self.max_queued_per_tenant:
                self.admission.note_queue_full(tenant)
                raise TenantQueueFullError(
                    f"tenant {tenant} already has {tenant_depth} queued "
                    f"jobs (per-tenant cap {self.max_queued_per_tenant}); "
                    "other tenants are unaffected",
                    retry_after=self.admission.retry_after(2),
                )
        depth = self.store.depth()
        if depth >= self.max_queue_depth:
            self.admission.note_queue_full(tenant)
            raise QueueFullError(
                f"job queue is full ({depth} waiting, cap "
                f"{self.max_queue_depth}); retry later",
                retry_after=self.admission.retry_after(2),
            )
        return self.store.submit(request, tenant=tenant)

    # -- streaming ---------------------------------------------------------

    def match_event_stream(self, path: str) -> Optional[str]:
        """The job id iff ``path`` is ``/v1/jobs/<id>/events``."""
        parts = [p for p in urlparse(path).path.split("/") if p]
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "events":
            return parts[2]
        return None

    def open_event_stream(
        self, job_id: str, poll: float = STREAM_POLL_INTERVAL,
        timeout: float = 3600.0,
        heartbeat: float = HEARTBEAT_INTERVAL,
    ) -> Iterator[bytes]:
        """NDJSON lines: every stored progress event as it lands, then a
        terminal ``job.end`` line once the job reaches a terminal status
        (``done``/``failed``/``cancelled``).  A stream idle for
        ``heartbeat`` seconds emits ``{"kind": "heartbeat"}`` keep-alive
        lines so intermediaries don't time the connection out.  Raises
        :class:`~repro.api.errors.JobNotFoundError` before the first
        byte, so the HTTP layer can still answer 404."""
        self.store.get(job_id)  # 404 now, not mid-stream

        def lines() -> Iterator[bytes]:
            after = 0
            deadline = time.monotonic() + timeout
            last_line = time.monotonic()
            while True:
                events, status = self.store.events_since(job_id, after)
                for seq, event in events:
                    after = seq
                    last_line = time.monotonic()
                    yield json.dumps(event, sort_keys=True).encode() + b"\n"
                if status in TERMINAL_STATUSES:
                    end = {"stage": "job.end", "detail": {"status": status}}
                    yield json.dumps(end, sort_keys=True).encode() + b"\n"
                    return
                now = time.monotonic()
                if now > deadline:
                    end = {"stage": "job.end", "detail": {"status": "timeout"}}
                    yield json.dumps(end, sort_keys=True).encode() + b"\n"
                    return
                if now - last_line >= heartbeat:
                    last_line = now
                    yield json.dumps({"kind": "heartbeat"}).encode() + b"\n"
                time.sleep(poll)

        return lines()

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise MethodNotAllowedError(f"{path} only accepts {expected}")

    @staticmethod
    def _json(body: bytes) -> object:
        if not body:
            raise InvalidRequestError("request body must be a JSON object")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidRequestError(f"request body is not valid JSON: {exc}")

    # -- leaf endpoints ----------------------------------------------------

    def health(self) -> dict:
        from repro import __version__

        return {
            "status": "draining" if self.admission.draining else "ok",
            "version": __version__,
            "protocol": SCHEMA_VERSION,
            "strategy": self.workspace.strategy_name,
        }

    def stats(self) -> dict:
        payload = self.workspace.stats()
        payload["jobs"] = self.store.counters()
        runner = self.runner.counters()
        payload["service"] = {
            "workers": runner.get("workers", 0),
            "workers_alive": runner.get("alive", 0),
            "worker_restarts": runner.get("restarts", 0),
            "breaker_trips": runner.get("breaker_trips", 0),
            "queue_depth": self.store.depth(),
            "max_queue_depth": self.max_queue_depth,
            "draining": self.admission.draining,
            "recovered_jobs": self.recovered_jobs,
            "admission": self.admission.counters(),
            "tenants": self._tenant_stats(),
        }
        return payload

    def _tenant_stats(self) -> Dict[str, dict]:
        """Per-tenant view for ``stats.service.tenants``: job-state
        counts from the store merged with admission shed/breaker
        counters and the suspension flag."""
        tenants: Dict[str, dict] = {}
        for tenant, counts in self.store.tenant_counters().items():
            tenants[tenant] = dict(counts)
        for tenant, counts in self.admission.tenant_counters().items():
            tenants.setdefault(tenant, {}).update(counts)
        for tenant, entry in tenants.items():
            if self.admission.is_suspended(tenant):
                entry["suspended"] = True
        return tenants


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    quiet = True

    @property
    def service(self) -> ReproService:
        return self.server.service  # type: ignore[attr-defined]

    def version_string(self) -> str:
        from repro import __version__

        return f"repro/{__version__}"

    def log_message(self, fmt, *args):  # noqa: A002
        if not self.quiet:  # pragma: no cover - operator mode
            super().log_message(fmt, *args)

    def _respond(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _stream(self, chunks: "Iterator[bytes]") -> None:
        """Chunked transfer: one NDJSON line per chunk, flushed as it
        happens, so a client sees events live, not on job completion."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for chunk in chunks:
                self.wfile.write(f"{len(chunk):x}\r\n".encode())
                self.wfile.write(chunk)
                self.wfile.write(b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-stream; nothing to clean up

    def _handle(self, method: str) -> None:
        if method == "GET":
            job_id = self.service.match_event_stream(self.path)
            if job_id is not None:
                try:
                    chunks = self.service.open_event_stream(job_id)
                except ReproError as exc:
                    self._respond(http_status_of(exc), error_payload(exc))
                    return
                self._stream(chunks)
                return
        length = int(self.headers.get("Content-Length") or 0)
        cap = self.service.admission.max_request_bytes
        # Never buffer more than the cap: read one byte past it so the
        # oversized request is detected without swallowing gigabytes.
        body = self.rfile.read(min(length, cap + 1)) if length else b""
        if length > len(body):
            # Part of the body is still on the socket; this connection
            # cannot be reused.
            self.close_connection = True
        status, payload, headers = self.service.handle(
            method, self.path, body, client=self.client_address[0],
            tenant_header=self.headers.get("X-Repro-Tenant"),
        )
        self._respond(status, payload, headers)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")


class ReproHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer owning a :class:`ReproService`."""

    daemon_threads = True
    # socketserver's default listen backlog is 5: a burst of a few more
    # concurrent connects overflows it, the kernel drops the SYN, and
    # that client waits for the ~1 s TCP retransmit.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address, service: ReproService, quiet: bool = True):
        self.service = service
        handler = type("_BoundHandler", (_Handler,), {"quiet": quiet})
        super().__init__(address, handler)

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self.service.close()


def make_server(
    workspace: Optional[Workspace] = None,
    host: str = "127.0.0.1",
    port: int = 8472,
    quiet: bool = True,
    **service_options,
) -> ReproHTTPServer:
    """Bind (but do not run) a service; ``port=0`` picks a free port
    (read it back from ``server.server_address``).  ``service_options``
    are forwarded to :class:`ReproService` (``workers=``, ``job_db=``,
    ``max_queue_depth=``, ``rate_limit=``, ...)."""
    return ReproHTTPServer(
        (host, port), ReproService(workspace, **service_options), quiet=quiet
    )


def serve(
    workspace: Optional[Workspace] = None,
    host: str = "127.0.0.1",
    port: int = 8472,
    quiet: bool = False,
    drain_timeout: float = 60.0,
    **service_options,
) -> None:
    """Run the service until SIGTERM/SIGINT (the ``repro serve``
    command).  SIGTERM drains gracefully: admission flips to 503
    ``draining``, in-flight jobs finish and caches checkpoint, then the
    listener stops."""
    server = make_server(workspace, host, port, quiet=quiet, **service_options)
    service = server.service
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro service on http://{bound_host}:{bound_port}/v1/health "
        f"(strategy: {service.workspace.strategy_name}; "
        f"workers: {service.workers or 'in-process'}; "
        f"queue: {service.store.path}; SIGTERM drains, Ctrl-C stops)"
    )

    def _drain_and_stop(signum, frame):  # pragma: no cover - signal path
        import threading

        def run():
            service.drain(timeout=drain_timeout)
            server.shutdown()

        threading.Thread(target=run, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _drain_and_stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
