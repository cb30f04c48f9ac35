"""The repair driver (Figure 10's ``repair``), now a thin shell.

The actual repair logic lives in two layers beneath this module:

- :mod:`repro.repair.plan` -- the rewrite-plan IR: every rule
  application (split, merge, redirect, logger, intro rho / intro rho.f,
  postprocess) is a serializable :class:`~repro.repair.plan.RewriteStep`
  with uniform ``applicable``/``apply``/``explain``, and a repair is a
  replayable :class:`~repro.repair.plan.RewritePlan`;
- :mod:`repro.repair.search` -- the planner: pluggable strategies
  (``greedy`` -- the default, reproducing the paper's Figure 10 control
  flow exactly; ``beam``; ``random``) searched under a
  :class:`~repro.repair.search.CostModel`.

The engine's job is reduced to: own the anomaly oracle (with its
execution strategy and caches), hand the program to a search strategy,
and wrap the result in a :class:`RepairReport`.  Label-rename threading
across chained merges -- formerly the engine's private ``_current`` /
``_note_merge`` dictionaries -- is handled by
:class:`~repro.repair.plan.PlanContext` inside the plan layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

from repro.analysis.consistency import EC, ConsistencyLevel
from repro.analysis.oracle import AccessPair, AnomalyOracle
from repro.lang import ast
from repro.refactor.correspondence import ValueCorrespondence
from repro.refactor.logger import LoggerRewrite
from repro.refactor.redirect import RedirectRewrite
from repro.repair.plan import RewritePlan
from repro.repair.search import RepairOutcome, resolve_search

Rewrite = Union[RedirectRewrite, LoggerRewrite]


@dataclass
class RepairReport:
    """Complete output of the repair pipeline."""

    original_program: ast.Program
    repaired_program: ast.Program
    initial_pairs: List[AccessPair]
    residual_pairs: List[AccessPair]
    outcomes: List[RepairOutcome]
    correspondences: List[ValueCorrespondence]
    rewrites: List[Rewrite]
    elapsed_seconds: float
    # Plan provenance: replaying `plan` on `original_program` reproduces
    # `repaired_program` byte-for-byte (via the printer).
    plan: RewritePlan = RewritePlan()
    strategy: str = "greedy"
    # Strategy-specific extras passed through from the search (random:
    # per-round anomaly counts; beam: the score trajectory).
    extras: dict = field(default_factory=dict)

    @property
    def repaired_count(self) -> int:
        return len(self.initial_pairs) - len(self.residual_pairs)

    @property
    def repair_ratio(self) -> float:
        if not self.initial_pairs:
            return 1.0
        return self.repaired_count / len(self.initial_pairs)

    def serializable_variant(self) -> ast.Program:
        """The AT-SC program: transactions still carrying anomalies are
        marked ``serializable``; the rest stay weakly consistent."""
        flagged = {p.txn for p in self.residual_pairs}
        txns = tuple(
            replace(t, serializable=True) if t.name in flagged else t
            for t in self.repaired_program.transactions
        )
        return replace(self.repaired_program, transactions=txns)

    def summary(self) -> str:
        lines = [
            f"anomalous pairs: {len(self.initial_pairs)} -> "
            f"{len(self.residual_pairs)} "
            f"({self.repair_ratio:.0%} repaired)",
            f"tables: {len(self.original_program.schemas)} -> "
            f"{len(self.repaired_program.schemas)}",
            f"time: {self.elapsed_seconds:.2f}s",
        ]
        for outcome in self.outcomes:
            lines.append(f"  [{outcome.action}] {outcome.pair.describe()}")
        return "\n".join(lines)


class RepairEngine:
    """Stateful driver for one repair run.

    ``strategy``/``cache`` configure the anomaly oracle's execution
    pipeline (see :class:`~repro.analysis.oracle.AnomalyOracle`); with a
    caching strategy repeated re-analyses across the search only
    re-solve queries whose transactions a rewrite actually touched, and
    with ``strategy="incremental"`` every re-analysis shares one warm
    solver session per focus triple -- which is what makes cost-guided
    searches (``search="beam"``) affordable: every candidate plan's
    residual count lands on the same
    :class:`~repro.analysis.oracle.OracleSession` pool, and beam search
    scores each candidate generation through one batched oracle call.

    ``search`` selects the plan-search strategy: ``"greedy"`` (default;
    reproduces the historical engine exactly), ``"beam"``, ``"random"``,
    or any instance with a ``search(program, oracle)`` method (see
    :func:`repro.repair.search.resolve_search`).  ``search_options`` are
    forwarded to the named strategy's constructor (e.g. ``width`` and
    ``cost_model`` for beam).
    """

    def __init__(
        self,
        level: ConsistencyLevel = EC,
        use_prefilter: bool = True,
        strategy: object = "serial",
        cache: Optional[object] = None,
        search: object = "greedy",
        progress=None,
        budget=None,
        **search_options: object,
    ):
        self.oracle = AnomalyOracle(
            level,
            use_prefilter,
            strategy=strategy,
            cache=cache,
            progress=progress,
            budget=budget,
        )
        self.searcher = resolve_search(search, **search_options)
        # The bundled strategies declare a `progress` slot; custom
        # searchers may not -- observing them is best-effort.  Always
        # assign (None included): a caller-owned searcher reused across
        # engines must not keep emitting to a previous call's callback.
        try:
            self.searcher.progress = progress
        except AttributeError:  # pragma: no cover - exotic searcher
            pass

    def close(self) -> None:
        """Release the oracle's strategy resources (solver sessions)."""
        self.oracle.close()

    def repair(self, program: ast.Program) -> RepairReport:
        result = self.searcher.search(program, self.oracle)
        return RepairReport(
            original_program=program,
            repaired_program=result.repaired_program,
            initial_pairs=result.initial_pairs,
            residual_pairs=result.residual_pairs,
            outcomes=result.outcomes,
            correspondences=list(result.context.correspondences),
            rewrites=list(result.context.rewrites),
            elapsed_seconds=result.elapsed_seconds,
            plan=result.plan,
            strategy=result.strategy,
            extras=dict(result.extras),
        )


def repair(
    program: ast.Program,
    level: ConsistencyLevel = EC,
    use_prefilter: bool = True,
    strategy: object = "serial",
    cache: Optional[object] = None,
    search: object = "greedy",
    progress=None,
    **search_options: object,
) -> RepairReport:
    """Run the full repair pipeline on ``program``.

    A strategy given by name is owned by this call and torn down (warm
    solver sessions included) before returning; a strategy *instance*
    belongs to the caller and is left running for reuse.  ``cache`` may
    be a :class:`~repro.analysis.pipeline.PersistentQueryCache` to
    warm-start the oracle from an earlier run's outcomes.
    """
    engine = RepairEngine(
        level,
        use_prefilter,
        strategy=strategy,
        cache=cache,
        search=search,
        progress=progress,
        **search_options,
    )
    try:
        return engine.repair(program)
    finally:
        if isinstance(strategy, str):
            engine.close()


def replay_plan(program: ast.Program, plan: RewritePlan) -> RepairReport:
    """Replay a serialized plan on ``program`` without any oracle work.

    The report's pair lists are empty (no analysis ran); the repaired
    program, correspondences, and rewrites are reproduced exactly.
    Raises :class:`~repro.errors.PlanError` when the plan does not fit.
    """
    import time

    start = time.perf_counter()
    application = plan.apply(program)
    return RepairReport(
        original_program=program,
        repaired_program=application.program,
        initial_pairs=[],
        residual_pairs=[],
        outcomes=[],
        correspondences=application.correspondences,
        rewrites=application.rewrites,
        elapsed_seconds=time.perf_counter() - start,
        plan=plan,
        strategy="replay",
    )
