"""``repro.api``: the versioned façade every caller goes through.

One :class:`Workspace` (corpus + cache + execution strategy) answers
four operations -- **analyze**, **repair**, **bench**, **protect**
(live repair; see :mod:`repro.live`) -- over frozen,
versioned request/response dataclasses with ``to_json``/``from_json``
(see :mod:`repro.api.types`: one codec derives both, and each class's
JSON Schema, from the dataclass fields; the schemas are pinned by the
golden documents under ``schemas/``).  Errors are :class:`~repro.errors.
ReproError` subclasses with stable machine-readable codes
(:mod:`repro.api.errors`); long operations narrate themselves through
:class:`~repro.api.events.ProgressEvent` callbacks.

The package shortcuts (:func:`repro.detect_anomalies`,
:func:`repro.repair`), the :mod:`repro.exp` drivers, the CLI, and the
HTTP service (:mod:`repro.service`) are all thin wrappers over this
module::

    from repro.api import Workspace, AnalyzeRequest, RepairRequest

    with Workspace(strategy="auto", cache_dir=".cache") as ws:
        verdict = ws.analyze(AnalyzeRequest(benchmark="Courseware"))
        fix = ws.repair(RepairRequest(benchmark="Courseware"))
        print(fix.repaired_program)
        payload = fix.to_json()          # versioned, schema-validated

When a workspace must be built in another process -- the service's
worker pool does this for every worker -- describe it with a picklable
:class:`WorkspaceConfig` and call :meth:`WorkspaceConfig.build` on the
far side::

    from repro.api import WorkspaceConfig

    config = WorkspaceConfig(strategy="incremental", cache_dir=".cache")
    ws = config.for_worker(3).build()    # private cache subdir worker-3

Browse this surface with ``python -m pydoc repro.api`` (every exported
name carries reference-grade docs); the service's own additions --
admission-control errors like :class:`QueueFullError` -- live here too
so clients never import from :mod:`repro.service` just to catch them.
"""

from repro.api.errors import (
    ApiError,
    BackpressureError,
    BudgetExhaustedError,
    DeadlineExceededError,
    InvalidRequestError,
    JobCancelledError,
    JobNotFoundError,
    QueueFullError,
    RateLimitedError,
    RequestTooLargeError,
    SchemaVersionError,
    ServiceDrainingError,
    UnknownBenchmarkError,
    error_payload,
    http_status_of,
)
from repro.budget import Budget
from repro.api.events import ProgressCallback, ProgressEvent, emit
from repro.api.schema import all_schemas, check_schemas, dump_schemas, validate
from repro.api.types import (
    LEVELS,
    SCHEMA_VERSION,
    SEARCHES,
    AnalyzeRequest,
    AnalyzeResult,
    BenchRequest,
    BenchResult,
    BenchRow,
    LiveProtectRequest,
    LiveProtectResult,
    OutcomeData,
    PairData,
    RepairRequest,
    RepairResult,
    decode_request,
)
from repro.api.workspace import (
    DEFAULT_STRATEGY,
    STRATEGIES,
    Workspace,
    WorkspaceConfig,
    requested_strategy,
)

__all__ = [
    "Workspace",
    "WorkspaceConfig",
    "DEFAULT_STRATEGY",
    "STRATEGIES",
    "requested_strategy",
    "SCHEMA_VERSION",
    "LEVELS",
    "SEARCHES",
    "AnalyzeRequest",
    "AnalyzeResult",
    "RepairRequest",
    "RepairResult",
    "BenchRequest",
    "BenchResult",
    "BenchRow",
    "LiveProtectRequest",
    "LiveProtectResult",
    "PairData",
    "OutcomeData",
    "decode_request",
    "ApiError",
    "Budget",
    "BudgetExhaustedError",
    "DeadlineExceededError",
    "InvalidRequestError",
    "SchemaVersionError",
    "UnknownBenchmarkError",
    "JobCancelledError",
    "JobNotFoundError",
    "BackpressureError",
    "QueueFullError",
    "RateLimitedError",
    "RequestTooLargeError",
    "ServiceDrainingError",
    "error_payload",
    "http_status_of",
    "ProgressEvent",
    "ProgressCallback",
    "emit",
    "all_schemas",
    "dump_schemas",
    "check_schemas",
    "validate",
]
