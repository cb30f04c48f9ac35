"""The anomaly oracle ``O(P)``: enumerate anomalous access pairs.

For every transaction ``T`` of the program and every ordered pair of its
database commands, the oracle asks whether any interfering transaction
(any transaction of the program, including a second instance of ``T``)
admits an anomalous execution under the chosen consistency level, by
discharging the SAT query of :mod:`repro.analysis.encoding`.

The result is the paper's set of chi tuples
``(c1, f1-bar, c2, f2-bar)`` -- see the Section 3.2 examples
``(S1, {st_name}, S2, {em_addr})`` etc. -- enriched with the interfering
transactions that witness them.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.accesses import (
    CommandInfo,
    TransactionSummary,
    summarize_program,
)
from repro.analysis.consistency import EC, ConsistencyLevel
from repro.analysis.encoding import PairEncoder, PairSession, PairWitness
from repro.errors import BudgetExhaustedError, DeadlineExceededError
from repro.lang import ast


def deadline_error(
    level_name: str,
    pairs: List["AccessPair"],
    checked: int,
    total: int,
) -> DeadlineExceededError:
    """A structured deadline error carrying the partial per-pair results
    established before the cut.  ``partial_pairs`` are oracle-level
    :class:`AccessPair` objects; the API façade converts them to wire
    ``PairData`` and fills ``exc.partial`` for serialization."""
    exc = DeadlineExceededError(
        f"analysis budget exhausted after {checked}/{total} pair checks"
        f" at {level_name}"
    )
    exc.partial_pairs = list(pairs)
    exc.pairs_checked = checked
    exc.pairs_total = total
    exc.level = level_name
    return exc


@dataclass(frozen=True)
class AccessPair:
    """An anomalous database access pair (the paper's chi)."""

    txn: str
    c1: str
    fields1: FrozenSet[str]
    c2: str
    fields2: FrozenSet[str]
    interferers: Tuple[str, ...]
    patterns: Tuple[str, ...]

    def key(self) -> Tuple[str, str, str]:
        return (self.txn, self.c1, self.c2)

    def describe(self) -> str:
        f1 = "{" + ", ".join(sorted(self.fields1)) + "}"
        f2 = "{" + ", ".join(sorted(self.fields2)) + "}"
        return f"{self.txn}: ({self.c1}, {f1}, {self.c2}, {f2})"


@dataclass
class AnalysisReport:
    """Oracle output: the anomalous pairs plus bookkeeping.

    ``sat_queries`` counts actual solver invocations; with a memo cache
    attached, hits skip the solver entirely and show up in
    ``cache_hits`` instead.  ``solver_stats`` aggregates the CDCL
    solver's counters (decisions, propagations, conflicts, ...) over
    every query the report's run solved.
    """

    level: str
    pairs: List[AccessPair]
    pairs_checked: int
    sat_queries: int
    elapsed_seconds: float
    strategy: str = "serial"
    cache_hits: int = 0
    cache_misses: int = 0
    solver_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.pairs)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return (self.cache_hits + self.sat_queries) / self.elapsed_seconds


SessionKey = Tuple[str, str, str, bool]


class OracleSession:
    """The warm-solver pool behind the ``"incremental"`` strategy.

    Owns one :class:`~repro.analysis.encoding.PairSession` per focus
    triple, keyed by the same structural fingerprints as the memo cache
    minus the consistency level -- so the repair fixpoint's EC queries,
    the CC/RR sweeps, and any later re-analysis of a structurally
    unchanged triple all land on the same incremental solver and reuse
    its registered skeleton, learned clauses, and variable activity.

    Sessions are evicted least-recently-used past ``max_sessions``.
    Like the memo cache, the pool never needs explicit invalidation for
    correctness -- a rewritten transaction fingerprints to a new key --
    but sessions for superseded program versions linger until evicted,
    and a warm session is far heavier than a cache entry (a full solver
    with its clause database).  The default cap bounds a long repair
    fixpoint's memory; shrink it for memory-constrained runs.
    """

    def __init__(self, distinct_args: bool = True, max_sessions: int = 4096):
        self.distinct_args = distinct_args
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[SessionKey, PairSession]" = OrderedDict()
        self.created = 0
        self.reused = 0
        self.evicted = 0
        self._retired_queries = 0
        self._retired_model_hits = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def session(
        self,
        c1: CommandInfo,
        c2: CommandInfo,
        summary_b: TransactionSummary,
        distinct_args: Optional[bool] = None,
        key: Optional[SessionKey] = None,
    ) -> PairSession:
        """The (possibly warm) session for a focus triple."""
        if distinct_args is None:
            distinct_args = self.distinct_args
        if key is None:
            from repro.analysis.pipeline import (
                fingerprint_command,
                fingerprint_summary,
            )

            key = (
                fingerprint_command(c1),
                fingerprint_command(c2),
                fingerprint_summary(summary_b),
                distinct_args,
            )
        sess = self._sessions.get(key)
        if sess is None:
            sess = PairSession(c1, c2, summary_b, distinct_args)
            self.created += 1
            self._sessions[key] = sess
            if len(self._sessions) > self.max_sessions:
                _, evicted = self._sessions.popitem(last=False)
                self._retired_queries += evicted.queries
                self._retired_model_hits += evicted.model_hits
                evicted.close()
                self.evicted += 1
        else:
            self.reused += 1
            self._sessions.move_to_end(key)
        return sess

    def solve(
        self,
        c1: CommandInfo,
        c2: CommandInfo,
        summary_b: TransactionSummary,
        level: ConsistencyLevel,
        distinct_args: Optional[bool] = None,
        use_prefilter: bool = True,
        key: Optional[SessionKey] = None,
        budget=None,
    ):
        """Discharge one anomaly query on the triple's warm session;
        returns a :class:`~repro.analysis.pipeline.QueryOutcome`."""
        from repro.analysis.pipeline import QueryOutcome, WitnessData

        sess = self.session(c1, c2, summary_b, distinct_args, key=key)
        witness, solved, stats = sess.query(
            level, use_prefilter=use_prefilter, budget=budget
        )
        data = (
            WitnessData(
                pattern=witness.pattern,
                fields1=witness.fields1,
                fields2=witness.fields2,
            )
            if witness is not None
            else None
        )
        return QueryOutcome(witness=data, solved=solved, stats=stats)

    def solve_batch(
        self,
        c1: CommandInfo,
        c2: CommandInfo,
        summary_b: TransactionSummary,
        levels: List[ConsistencyLevel],
        distinct_args: Optional[bool] = None,
        use_prefilter: bool = True,
        key: Optional[SessionKey] = None,
        budget=None,
    ):
        """Discharge one anomaly query per level on the triple's warm
        session as a single incremental sweep (see
        :meth:`PairSession.query_batch`); returns one
        :class:`~repro.analysis.pipeline.QueryOutcome` per level, in
        order."""
        from repro.analysis.pipeline import QueryOutcome, WitnessData

        sess = self.session(c1, c2, summary_b, distinct_args, key=key)
        outcomes = []
        for witness, solved, stats in sess.query_batch(
            list(levels), use_prefilter=use_prefilter, budget=budget
        ):
            data = (
                WitnessData(
                    pattern=witness.pattern,
                    fields1=witness.fields1,
                    fields2=witness.fields2,
                )
                if witness is not None
                else None
            )
            outcomes.append(
                QueryOutcome(witness=data, solved=solved, stats=stats)
            )
        return outcomes

    def counters(self) -> Dict[str, int]:
        """Pool accounting: sessions created/reused/evicted/live, plus
        query and model-reuse totals (including closed sessions)."""
        queries = self._retired_queries
        model_hits = self._retired_model_hits
        for sess in self._sessions.values():
            queries += sess.queries
            model_hits += sess.model_hits
        return {
            "created": self.created,
            "reused": self.reused,
            "evicted": self.evicted,
            "live": len(self._sessions),
            "queries": queries,
            "model_hits": model_hits,
        }

    def close(self) -> None:
        """Drop every session (counters survive for reporting)."""
        for sess in self._sessions.values():
            self._retired_queries += sess.queries
            self._retired_model_hits += sess.model_hits
            sess.close()
        self._sessions.clear()


class AnomalyOracle:
    """Static anomaly detector, parameterised by consistency level.

    ``use_prefilter`` controls the cheap static screen that skips SAT
    queries with no conflict candidates (the DESIGN.md ablation knob);
    results are identical either way, only running time differs.

    ``strategy`` selects how the SAT queries are executed:

    - ``"serial"`` (default): the seed execution loop -- inline,
      uncached, one query at a time.  Kept verbatim as the reference
      both for results and for benchmark baselines.
    - ``"incremental"``: the :mod:`repro.analysis.pipeline` planner and
      structural memo cache with warm per-triple solver sessions (an
      :class:`OracleSession` pool): each focus triple's skeleton is
      encoded once on a persistent incremental solver, and re-queries
      at other consistency levels activate that level's axiom groups by
      assumption, retaining learned clauses and variable activity
      across the repair fixpoint and the level sweeps.
    - ``"auto"``, and the deprecated ``"cached"``, ``"parallel"`` and
      ``"parallel-incremental"``: the same as ``"incremental"``, which
      :attr:`AnalysisReport.strategy` records.
    - any object with a ``run_levels(specs, spec_levels, distinct_args,
      use_prefilter, budget=...)`` method (see
      :class:`~repro.analysis.pipeline.IncrementalStrategy`).

    Every strategy produces the same pair set; ``cache`` (a
    :class:`~repro.analysis.pipeline.QueryCache`) may be shared across
    oracles so repeated analyses only re-solve queries whose
    transactions actually changed.
    """

    def __init__(
        self,
        level: ConsistencyLevel = EC,
        use_prefilter: bool = True,
        distinct_args: bool = True,
        strategy: object = "serial",
        cache: Optional[object] = None,
        progress=None,
        budget=None,
    ):
        self.level = level
        self.use_prefilter = use_prefilter
        self.distinct_args = distinct_args
        self.strategy = strategy
        self.progress = progress
        self.budget = budget
        if strategy == "serial":
            self._pipeline = None
        else:
            from repro.analysis.pipeline import AnalysisPipeline

            self._pipeline = AnalysisPipeline(
                level,
                use_prefilter=use_prefilter,
                distinct_args=distinct_args,
                strategy=strategy,
                cache=cache,
                progress=progress,
                budget=budget,
            )

    @property
    def cache(self):
        """The pipeline's memo cache (None for the serial seed path)."""
        return self._pipeline.cache if self._pipeline is not None else None

    def close(self) -> None:
        """Release strategy resources (warm solver sessions); serial is a
        no-op."""
        if self._pipeline is not None:
            self._pipeline.close()

    def analyze_many(self, programs) -> List[AnalysisReport]:
        """Analyze several programs, deduplicating and solving their SAT
        queries together (see :meth:`~repro.analysis.pipeline.
        AnalysisPipeline.analyze_many`).  The serial seed path has no
        batching machinery and simply analyzes in order."""
        if self._pipeline is not None:
            return self._pipeline.analyze_many(programs)
        return [self.analyze(program) for program in programs]

    def analyze_levels(self, program: ast.Program, levels) -> List[
        AnalysisReport
    ]:
        """Analyze one program at several consistency levels in one
        sweep, sharing each focus triple's (warm) solver work across
        the levels (see :meth:`~repro.analysis.pipeline.
        AnalysisPipeline.analyze_levels`).  The serial seed path simply
        analyzes level by level."""
        levels = list(levels)
        if self._pipeline is not None:
            return self._pipeline.analyze_levels(program, levels)
        saved = self.level
        try:
            reports = []
            for level in levels:
                self.level = level
                reports.append(self.analyze(program))
            return reports
        finally:
            self.level = saved

    def analyze(self, program: ast.Program) -> AnalysisReport:
        if self._pipeline is not None:
            return self._pipeline.analyze(program)
        from repro.events import emit

        start = time.perf_counter()
        summaries = summarize_program(program)
        emit(
            self.progress,
            "analyze.start",
            level=self.level.name,
            programs=1,
            transactions=len(summaries),
        )
        pairs: List[AccessPair] = []
        checked = 0
        sat_queries = 0
        work = [
            (summary, c1, c2)
            for summary in summaries.values()
            for c1, c2 in summary.ordered_pairs()
        ]
        for summary, c1, c2 in work:
            if self.budget is not None and self.budget.expired():
                raise deadline_error(
                    self.level.name, pairs, checked, len(work)
                )
            checked += 1
            witnesses: List[PairWitness] = []
            for other in summaries.values():
                encoder = PairEncoder(
                    summary, c1, c2, other, self.level,
                    distinct_args=self.distinct_args,
                )
                if self.use_prefilter and not encoder.collect_disjuncts():
                    continue
                sat_queries += 1
                try:
                    witness = encoder.solve(budget=self.budget)
                except BudgetExhaustedError:
                    # The current pair is half-checked: report only the
                    # fully established ones.
                    raise deadline_error(
                        self.level.name, pairs, checked - 1, len(work)
                    ) from None
                if witness is not None:
                    witnesses.append(witness)
            if witnesses:
                pairs.append(_merge_witnesses(summary, c1, c2, witnesses))
        elapsed = time.perf_counter() - start
        emit(
            self.progress,
            "analyze.done",
            level=self.level.name,
            pairs=len(pairs),
            elapsed_seconds=elapsed,
        )
        return AnalysisReport(
            level=self.level.name,
            pairs=pairs,
            pairs_checked=checked,
            sat_queries=sat_queries,
            elapsed_seconds=elapsed,
        )


def _merge_witnesses(
    summary: TransactionSummary,
    c1: CommandInfo,
    c2: CommandInfo,
    witnesses: List[PairWitness],
) -> AccessPair:
    fields1: FrozenSet[str] = frozenset()
    fields2: FrozenSet[str] = frozenset()
    interferers: List[str] = []
    patterns: List[str] = []
    for w in witnesses:
        fields1 |= w.fields1
        fields2 |= w.fields2
        if w.interferer not in interferers:
            interferers.append(w.interferer)
        if w.pattern not in patterns:
            patterns.append(w.pattern)
    return AccessPair(
        txn=summary.name,
        c1=c1.label,
        fields1=fields1,
        c2=c2.label,
        fields2=fields2,
        interferers=tuple(interferers),
        patterns=tuple(patterns),
    )


def detect_anomalies(
    program: ast.Program,
    level: ConsistencyLevel = EC,
    use_prefilter: bool = True,
) -> List[AccessPair]:
    """Convenience wrapper returning just the anomalous pairs."""
    return AnomalyOracle(level, use_prefilter).analyze(program).pairs
