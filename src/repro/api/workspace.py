"""The one front door: a :class:`Workspace` owning corpus, cache, and
execution strategy.

Every supported way of invoking the system -- the ``repro`` package
shortcuts (:func:`repro.detect_anomalies` / :func:`repro.repair`), the
experiment drivers under :mod:`repro.exp`, the CLI, and the HTTP service
-- is a thin wrapper over a workspace.  The workspace owns exactly the
state worth sharing between calls:

- one resolved oracle **execution strategy** (for the warm strategies
  that means the long-lived :class:`~repro.analysis.oracle.OracleSession`
  pool survives across requests);
- one **memo cache** (optionally a
  :class:`~repro.analysis.pipeline.PersistentQueryCache` under
  ``cache_dir``, shared by every analysis the workspace runs);
- request counters and uptime for ``/v1/stats``.

Two API tiers coexist deliberately:

- the **object tier** -- :meth:`analyze_program` / :meth:`repair_program`
  take and return library objects (:class:`~repro.lang.ast.Program`,
  :class:`~repro.analysis.oracle.AnalysisReport`,
  :class:`~repro.repair.engine.RepairReport`) for in-process callers;
- the **wire tier** -- :meth:`analyze` / :meth:`repair` / :meth:`bench`
  take and return the frozen, versioned dataclasses of
  :mod:`repro.api.types`, which is what the service serializes.

A workspace is thread-safe: calls serialize on an internal lock (the
solver sessions and memo cache are single-threaded structures; the
service runs jobs in parallel on separate worker processes, each with
its own workspace).  Results are independent of the execution strategy
by hard test gate, so any two workspaces agree on every verdict and
plan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.errors import InvalidRequestError, UnknownBenchmarkError
from repro.api.events import ProgressCallback, emit
from repro.api.types import (
    AnalyzeRequest,
    AnalyzeResult,
    BenchRequest,
    BenchResult,
    BenchRow,
    LiveProtectRequest,
    LiveProtectResult,
    PairData,
    RepairRequest,
    RepairResult,
)
from repro.analysis.consistency import EC, ConsistencyLevel, by_name
from repro.analysis.pipeline import DEPRECATED_NAMES
from repro.budget import Budget
from repro.errors import DeadlineExceededError

#: Strategy names the façade accepts (``None`` means :data:`DEFAULT_STRATEGY`).
STRATEGIES = (
    "serial",
    "cached",
    "parallel",
    "incremental",
    "parallel-incremental",
    "auto",
)

#: What a workspace runs when the caller does not choose: ``"auto"``,
#: the in-process ``"incremental"`` strategy.
DEFAULT_STRATEGY = "auto"


def requested_strategy(
    strategy: Optional[str],
    cache_dir: Optional[str] = None,
) -> Tuple[str, Optional[str]]:
    """The CLI/default strategy contract, in one place.

    Returns ``(effective_strategy, note)``.  The seed ``"serial"`` loop
    has no cache, so ``--cache-dir`` silently doing nothing under the
    *implicit* default would betray its contract: an unset strategy
    upgrades to ``"auto"`` (with a note saying so) when the flag is
    given.  An **explicit** ``"serial"`` is always respected -- the flag
    is then genuinely unused, the note says so, and the caller must not
    open a cache on its behalf.  The deprecated pooled names get a note
    saying what they run now.
    """
    if strategy in DEPRECATED_NAMES:
        return strategy, (
            f"note: --strategy {strategy} is deprecated; it runs the "
            "in-process incremental strategy"
        )
    if cache_dir:
        if strategy is None:
            return "auto", (
                "note: --cache-dir needs a caching strategy; "
                "using --strategy auto (pass --strategy to override)"
            )
        if strategy == "serial":
            return "serial", (
                "note: --strategy serial runs the uncached, single-"
                "threaded seed loop; --cache-dir ignored"
            )
    return strategy or "serial", None


@dataclass(frozen=True)
class WorkspaceConfig:
    """A picklable recipe for building a :class:`Workspace`.

    The multi-process service ships one of these to every worker
    process (:mod:`repro.service.workers`): the config crosses the
    process boundary, the workspace it :meth:`build`\\ s -- warm solver
    sessions, caches, locks -- never does.  Fields mirror the
    :class:`Workspace` constructor's keyword arguments; everything is a
    plain value, so a config is safe to pickle, hash into logs, or
    embed in an operator playbook.

    ``for_worker`` derives the per-worker variant: when a persistent
    ``cache_dir`` is set, each worker gets its own subdirectory
    (``<cache_dir>/worker-<i>``), because the sqlite memo cache batches
    writes in long transactions and is not built for concurrent
    writers.
    """

    strategy: str = DEFAULT_STRATEGY
    cache_dir: Optional[str] = None
    search: str = "greedy"
    use_prefilter: bool = True
    distinct_args: bool = True

    def build(self) -> "Workspace":
        """Construct the workspace this config describes."""
        return Workspace(
            strategy=self.strategy,
            cache_dir=self.cache_dir,
            search=self.search,
            use_prefilter=self.use_prefilter,
            distinct_args=self.distinct_args,
        )

    def for_worker(self, index: int) -> "WorkspaceConfig":
        """The variant worker ``index`` should build (private cache
        subdirectory; everything else shared)."""
        if self.cache_dir is None:
            return self
        import dataclasses
        import os

        return dataclasses.replace(
            self, cache_dir=os.path.join(self.cache_dir, f"worker-{index}")
        )

    def for_tenant(self, tenant: str) -> "WorkspaceConfig":
        """The variant serving ``tenant``: its own ``tenant-<id>`` cache
        subdirectory, so one tenant's persistent cache entries can
        neither serve nor poison another's.  Identity-free configs
        (``cache_dir=None``) have nothing durable to isolate and are
        returned unchanged."""
        if self.cache_dir is None:
            return self
        import dataclasses
        import os
        import re

        safe = re.sub(r"[^A-Za-z0-9._-]", "_", tenant) or "_"
        return dataclasses.replace(
            self, cache_dir=os.path.join(self.cache_dir, f"tenant-{safe}")
        )


class Workspace:
    """Shared execution context for analyze/repair/bench calls.

    ``strategy`` is a name from :data:`STRATEGIES` or a strategy
    *instance* (anything with ``run_levels``/``close``); named strategies are
    resolved once and owned by the workspace (torn down on
    :meth:`close`), instances stay the caller's.  ``cache`` follows the
    same ownership rule; without one, a caching strategy gets a fresh
    memo cache -- persistent under ``cache_dir`` when given.

    ``strategy="serial"`` selects the seed oracle loop: no pipeline, no
    cache, no solver sessions -- the reference configuration the
    differential tests compare everything else against.
    """

    def __init__(
        self,
        strategy: object = DEFAULT_STRATEGY,
        cache: Optional[object] = None,
        cache_dir: Optional[str] = None,
        search: object = "greedy",
        use_prefilter: bool = True,
        distinct_args: bool = True,
    ):
        from repro.analysis.pipeline import make_query_cache, resolve_strategy

        if isinstance(strategy, str) and strategy not in STRATEGIES:
            raise InvalidRequestError(
                f"unknown strategy {strategy!r} "
                f"(expected one of {', '.join(STRATEGIES)})"
            )
        self.search = search
        self.use_prefilter = use_prefilter
        self.distinct_args = distinct_args
        self._serial = strategy == "serial"
        self._owns_runner = isinstance(strategy, str) and not self._serial
        self._owns_cache = False
        if self._serial:
            self._runner = None
            self.cache = None
        else:
            self._runner = (
                resolve_strategy(strategy)
                if self._owns_runner
                else strategy
            )
            if cache is None:
                cache = make_query_cache(cache_dir)
                self._owns_cache = True
            self.cache = cache
        self._lock = threading.RLock()
        self._started = time.time()
        self._requests: Dict[str, int] = {
            "analyze": 0, "repair": 0, "bench": 0, "protect": 0,
        }
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def strategy_name(self) -> str:
        """The resolved strategy's reported name (``"serial"`` for the
        seed loop)."""
        if self._runner is None:
            return "serial"
        return getattr(self._runner, "name", type(self._runner).__name__)

    def close(self) -> None:
        """Release owned resources (solver sessions, the persistent cache).
        Caller-provided strategy/cache instances are left running."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns_runner and self._runner is not None:
                self._runner.close()
            if self._owns_cache and self.cache is not None:
                self.cache.close()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- object tier -------------------------------------------------------

    def analyze_program(
        self,
        program,
        level: ConsistencyLevel = EC,
        use_prefilter: Optional[bool] = None,
        distinct_args: Optional[bool] = None,
        on_progress: Optional[ProgressCallback] = None,
        budget: Optional[Budget] = None,
    ):
        """Run the anomaly oracle; returns an
        :class:`~repro.analysis.oracle.AnalysisReport`."""
        with self._lock:
            self._requests["analyze"] += 1
        return self._analyze(
            program, level, use_prefilter, distinct_args, on_progress,
            budget=budget,
        )

    def _analyze(
        self,
        program,
        level: ConsistencyLevel = EC,
        use_prefilter: Optional[bool] = None,
        distinct_args: Optional[bool] = None,
        on_progress: Optional[ProgressCallback] = None,
        budget: Optional[Budget] = None,
    ):
        """Uncounted core of :meth:`analyze_program` (bench rows go
        through here so one bench request does not inflate the
        analyze/repair counters in ``/v1/stats``)."""
        from repro.analysis.oracle import AnomalyOracle

        with self._lock:
            oracle = AnomalyOracle(
                level,
                use_prefilter=self.use_prefilter
                if use_prefilter is None
                else use_prefilter,
                distinct_args=self.distinct_args
                if distinct_args is None
                else distinct_args,
                strategy="serial" if self._serial else self._runner,
                cache=self.cache,
                progress=on_progress,
                budget=budget,
            )
            return oracle.analyze(program)

    def analyze_program_levels(
        self,
        program,
        levels,
        use_prefilter: Optional[bool] = None,
        distinct_args: Optional[bool] = None,
        on_progress: Optional[ProgressCallback] = None,
        budget: Optional[Budget] = None,
    ):
        """Run the anomaly oracle at several consistency levels in one
        sweep; returns one report per level, in order.

        On a warm strategy every focus triple's levels are discharged
        as one incremental solve sequence (:meth:`~repro.analysis.
        pipeline.AnalysisPipeline.analyze_levels`); the seed serial loop
        simply analyzes level by level.  One call counts once per level
        in the ``/v1/stats`` analyze counter, matching what it
        replaces."""
        levels = list(levels)
        with self._lock:
            self._requests["analyze"] += len(levels)
        return self._analyze_levels(
            program, levels, use_prefilter, distinct_args, on_progress,
            budget=budget,
        )

    def _analyze_levels(
        self,
        program,
        levels,
        use_prefilter: Optional[bool] = None,
        distinct_args: Optional[bool] = None,
        on_progress: Optional[ProgressCallback] = None,
        budget: Optional[Budget] = None,
    ):
        """Uncounted core of :meth:`analyze_program_levels` (bench rows
        go through here)."""
        from repro.analysis.oracle import AnomalyOracle

        with self._lock:
            oracle = AnomalyOracle(
                levels[0] if levels else EC,
                use_prefilter=self.use_prefilter
                if use_prefilter is None
                else use_prefilter,
                distinct_args=self.distinct_args
                if distinct_args is None
                else distinct_args,
                strategy="serial" if self._serial else self._runner,
                cache=self.cache,
                progress=on_progress,
                budget=budget,
            )
            return oracle.analyze_levels(program, levels)

    def repair_program(
        self,
        program,
        level: ConsistencyLevel = EC,
        search: object = None,
        use_prefilter: Optional[bool] = None,
        on_progress: Optional[ProgressCallback] = None,
        budget: Optional[Budget] = None,
        **search_options,
    ):
        """Run the full repair pipeline; returns a
        :class:`~repro.repair.engine.RepairReport`."""
        with self._lock:
            self._requests["repair"] += 1
        return self._repair(
            program, level, search, use_prefilter, on_progress,
            budget=budget, **search_options
        )

    def _repair(
        self,
        program,
        level: ConsistencyLevel = EC,
        search: object = None,
        use_prefilter: Optional[bool] = None,
        on_progress: Optional[ProgressCallback] = None,
        budget: Optional[Budget] = None,
        **search_options,
    ):
        """Uncounted core of :meth:`repair_program`."""
        from repro.repair.engine import RepairEngine

        with self._lock:
            engine = RepairEngine(
                level,
                self.use_prefilter if use_prefilter is None else use_prefilter,
                strategy="serial" if self._serial else self._runner,
                cache=self.cache,
                search=self.search if search is None else search,
                progress=on_progress,
                budget=budget,
                **search_options,
            )
            # The engine borrowed the workspace's runner/cache; nothing
            # to tear down here -- close() owns that.
            return engine.repair(program)

    def protect_program(
        self,
        benchmark,
        plan=None,
        *,
        samples: int = 120,
        seed: int = 11,
        scale: int = 2,
        measure: bool = False,
        clients: int = 16,
        on_progress: Optional[ProgressCallback] = None,
    ):
        """Compile a rewrite plan into live mutation rules and run the
        live-vs-static differential (:mod:`repro.live`).

        ``benchmark`` is a corpus name or Benchmark; ``plan`` an
        optional :class:`~repro.repair.plan.RewritePlan` (the
        benchmark's own repair -- through this workspace's strategy --
        supplies it by default).  Returns ``(ruleset, verdict,
        overhead)``: the compiled :class:`~repro.live.rules.RuleSet`,
        the :class:`~repro.live.validate.BenchmarkVerdict`, and an
        :class:`~repro.live.overhead.OverheadMeasurement` when
        ``measure`` is set (else ``None``).
        """
        from repro.live import compile_plan, measure_overhead, validate_benchmark

        with self._lock:
            self._requests["protect"] += 1
        if isinstance(benchmark, str):
            benchmark = self._resolve_benchmarks((benchmark,))[0]
        program = benchmark.program()
        if plan is None:
            plan = self._repair(program, on_progress=on_progress).plan
        emit(on_progress, "protect.compile", benchmark=benchmark.name,
             steps=len(plan))
        ruleset = compile_plan(program, plan)
        emit(on_progress, "protect.validate", benchmark=benchmark.name,
             rules=len(ruleset.rules),
             unsupported=len(ruleset.unsupported), samples=samples)
        verdict = validate_benchmark(
            benchmark, plan=plan, samples=samples, seed=seed, scale=scale
        )
        overhead = None
        if measure:
            emit(on_progress, "protect.measure", benchmark=benchmark.name,
                 clients=clients)
            overhead = measure_overhead(benchmark, plan=plan, clients=clients)
        emit(on_progress, "protect.done", benchmark=benchmark.name,
             passed=verdict.passed)
        return ruleset, verdict, overhead

    # -- wire tier ---------------------------------------------------------

    def analyze(
        self,
        request: AnalyzeRequest,
        on_progress: Optional[ProgressCallback] = None,
    ) -> AnalyzeResult:
        program, _ = self._resolve_program(
            request.source, request.benchmark, request.kind
        )
        try:
            report = self.analyze_program(
                program,
                level=_level(request.level),
                use_prefilter=request.use_prefilter,
                distinct_args=request.distinct_args,
                on_progress=on_progress,
                budget=Budget.start(request.deadline_ms, request.budget),
            )
        except DeadlineExceededError as exc:
            raise _with_partial(exc)
        return AnalyzeResult.from_report(report)

    def repair(
        self,
        request: RepairRequest,
        on_progress: Optional[ProgressCallback] = None,
    ) -> RepairResult:
        program, _ = self._resolve_program(
            request.source, request.benchmark, request.kind
        )
        if request.plan is not None:
            from repro.repair.engine import replay_plan
            from repro.repair.plan import RewritePlan

            with self._lock:
                self._requests["repair"] += 1
                emit(on_progress, "search.start", mode="replay",
                     steps=len(request.plan.get("steps", [])))
                report = replay_plan(program, RewritePlan.from_json(request.plan))
                emit(on_progress, "search.done", mode="replay",
                     steps=len(report.plan))
            return RepairResult.from_report(report, strategy="replay")
        try:
            report = self.repair_program(
                program,
                level=_level(request.level),
                search=request.search,
                use_prefilter=request.use_prefilter,
                on_progress=on_progress,
                budget=Budget.start(request.deadline_ms, request.budget),
            )
        except DeadlineExceededError as exc:
            raise _with_partial(exc)
        return RepairResult.from_report(report, strategy=self.strategy_name)

    def protect(
        self,
        request: LiveProtectRequest,
        on_progress: Optional[ProgressCallback] = None,
    ) -> LiveProtectResult:
        start = time.perf_counter()
        bench = self._resolve_benchmarks((request.benchmark,))[0]
        plan = None
        if request.plan is not None:
            from repro.repair.plan import RewritePlan

            plan = RewritePlan.from_json(request.plan)
        ruleset, verdict, overhead = self.protect_program(
            bench,
            plan,
            samples=request.samples,
            seed=request.seed,
            scale=request.scale,
            measure=request.measure,
            clients=request.clients,
            on_progress=on_progress,
        )
        # The summary rows come from the compiled rule set (zeroed
        # counters); splice in the validation run's counters so the wire
        # document shows what actually fired.
        summary = []
        for row in ruleset.summary():
            row.update(verdict.counters.get(f"{row['txn']}/{row['label']}", {}))
            summary.append(row)
        return LiveProtectResult(
            benchmark=bench.name,
            rules=verdict.rules,
            identity_rules=verdict.identity_rules,
            unsupported=verdict.unsupported,
            unsupported_steps=tuple(u.to_json() for u in ruleset.unsupported),
            serial_match=verdict.serial_match,
            verdict_match=verdict.verdict_match,
            passed=verdict.passed,
            samples=request.samples,
            seed=request.seed,
            scale=request.scale,
            anomalies={
                "original": verdict.original.to_json(),
                "static": verdict.static.to_json(),
                "target": verdict.target.to_json(),
                "live": verdict.live.to_json(),
            },
            rule_summary=tuple(summary),
            overhead=overhead.to_json() if overhead is not None else None,
            elapsed_seconds=round(time.perf_counter() - start, 6),
        )

    def bench(
        self,
        request: BenchRequest,
        on_progress: Optional[ProgressCallback] = None,
    ) -> BenchResult:
        """The Table-1 workload per benchmark: repair at EC plus the
        CC/RR sweeps, all through this workspace's shared strategy.

        Deliberately *not* one long critical section: each inner
        repair/analyze call takes the workspace lock on its own, so
        concurrent API callers (``/v1/stats``, a sync analyze) interleave
        between rows of a minutes-long sweep instead of queueing behind
        it."""
        benches = self._resolve_benchmarks(request.benchmarks)
        with self._lock:
            self._requests["bench"] += 1
        start = time.perf_counter()
        rows: List[BenchRow] = []
        from repro.analysis.consistency import CC, RR

        for bench in benches:
            row_start = time.perf_counter()
            program = bench.program()
            report = self._repair(
                program, search=request.search, on_progress=on_progress
            )
            cc, rr = self._analyze_levels(
                program, (CC, RR), on_progress=on_progress
            )
            rows.append(
                BenchRow(
                    name=bench.name,
                    txns=len(program.transactions),
                    tables_before=len(program.schemas),
                    tables_after=len(report.repaired_program.schemas),
                    ec=len(report.initial_pairs),
                    at=len(report.residual_pairs),
                    cc=cc.count,
                    rr=rr.count,
                    time_s=time.perf_counter() - row_start,
                    repair_seconds=report.elapsed_seconds,
                    plan_steps=len(report.plan),
                    plan=report.plan.to_json(),
                )
            )
            emit(on_progress, "bench.row", benchmark=bench.name,
                 ec=rows[-1].ec, at=rows[-1].at,
                 plan_steps=rows[-1].plan_steps)
        return BenchResult(
            rows=tuple(rows),
            search=request.search,
            strategy=self.strategy_name,
            elapsed_seconds=time.perf_counter() - start,
        )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Operational counters for ``/v1/stats``: cache hit rates,
        warm-session counters, request totals."""
        from repro import __version__

        with self._lock:
            cache = self.cache
            cache_stats = None
            if cache is not None:
                cache_stats = {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "hit_rate": round(cache.hit_rate, 4),
                    "persistent_hits": getattr(cache, "persistent_hits", 0),
                    "entries": len(cache),
                }
            sessions: Dict[str, int] = {}
            pool = getattr(self._runner, "pool", None)
            if pool is not None and hasattr(pool, "counters"):
                sessions = dict(pool.counters())
            return {
                "version": __version__,
                "strategy": self.strategy_name,
                "uptime_seconds": round(time.time() - self._started, 3),
                "requests": dict(self._requests),
                "cache": cache_stats,
                "sessions": sessions,
            }

    # -- helpers -----------------------------------------------------------

    def _resolve_program(self, source, benchmark, kind):
        """(program, label) from a request's source/benchmark fields."""
        if (source is None) == (benchmark is None):
            raise InvalidRequestError(
                f"{kind} needs exactly one of 'source' or 'benchmark'"
            )
        if benchmark is not None:
            bench = self._resolve_benchmarks((benchmark,))[0]
            return bench.program(), bench.name
        from repro.lang import parse_program

        return parse_program(source), "<source>"

    @staticmethod
    def _resolve_benchmarks(names: Tuple[str, ...]):
        from repro.corpus import ALL_BENCHMARKS, BY_NAME

        if not names:
            return list(ALL_BENCHMARKS)
        picked = []
        for name in names:
            if name not in BY_NAME:
                known = ", ".join(sorted(BY_NAME))
                raise UnknownBenchmarkError(
                    f"unknown benchmark {name!r} (known: {known})"
                )
            picked.append(BY_NAME[name])
        return picked


def _with_partial(exc: DeadlineExceededError) -> DeadlineExceededError:
    """Attach the wire form of a deadline error's partial result.

    The oracle tags the exception with library objects (AccessPair
    lists); the wire tier converts them once, here, so every surface
    (HTTP 504 body, CLI error report) shows the same document.
    """
    exc.partial = {
        "level": getattr(exc, "level", ""),
        "pairs": [
            PairData.from_pair(p).to_json()
            for p in getattr(exc, "partial_pairs", None) or []
        ],
        "pairs_checked": getattr(exc, "pairs_checked", 0),
        "pairs_total": getattr(exc, "pairs_total", 0),
    }
    return exc


def _level(name: str) -> ConsistencyLevel:
    try:
        return by_name(name)
    except (KeyError, ValueError) as exc:
        raise InvalidRequestError(f"unknown consistency level {name!r}") from exc
