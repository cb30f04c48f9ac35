"""Table 1: anomalous access pairs before/after repair, per level.

For each benchmark the driver reports the columns of the paper's Table 1:
transaction count, table counts before and after refactoring, anomaly
counts under EC for the original (EC) and refactored (AT) programs,
anomaly counts under causal consistency (CC) and repeatable read (RR)
for the original program, and the total analysis+repair time.

Since the façade landed (:mod:`repro.api`) this driver is a thin
wrapper over one :class:`~repro.api.workspace.Workspace`: the workspace
owns the oracle execution strategy and the memo cache, and every row's
repair run and CC/RR sweeps go through it -- sharing warm solver
sessions and cache entries across rows exactly like the service does
across requests.  ``strategy``/``cache``/``cache_dir`` keep their
historical meanings and ownership rules (named strategies and
``cache_dir`` caches are owned here and torn down; instances stay the
caller's).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis import CC, RR
from repro.analysis.pipeline import QueryCache
from repro.corpus import ALL_BENCHMARKS, Benchmark
from repro.repair.engine import RepairReport


@dataclass
class Table1Row:
    """One benchmark's measured row, paired with the paper's numbers."""

    name: str
    txns: int
    tables_before: int
    tables_after: int
    ec: int
    at: int
    cc: int
    rr: int
    time_s: float
    report: RepairReport
    paper_ec: int
    paper_at: int
    # Oracle execution counters accumulated over the row's analyses.
    oracle_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def plan(self):
        """The rewrite plan that produced the row's repaired program."""
        return self.report.plan

    @property
    def repair_seconds(self) -> float:
        """Wall-clock of the repair search alone (excludes CC/RR sweeps)."""
        return self.report.elapsed_seconds

    def plan_provenance(self) -> Dict[str, object]:
        """Plan metadata for reports/JSON: step counts by kind plus the
        full serialized plan, so any row is reproducible from its JSON."""
        by_kind: Dict[str, int] = {}
        for step in self.report.plan:
            by_kind[step.kind] = by_kind.get(step.kind, 0) + 1
        return {
            "benchmark": self.name,
            "strategy": self.report.strategy,
            "steps": len(self.report.plan),
            "steps_by_kind": by_kind,
            "plan": self.report.plan.to_json(),
        }

    def columns(self) -> List[str]:
        return [
            self.name,
            str(self.txns),
            f"{self.tables_before}, {self.tables_after}",
            str(self.ec),
            str(self.at),
            str(self.cc),
            str(self.rr),
            f"{self.time_s:.1f}",
        ]


def _merge_stats(into: Dict[str, int], report) -> None:
    into["sat_queries"] = into.get("sat_queries", 0) + report.sat_queries
    into["cache_hits"] = into.get("cache_hits", 0) + report.cache_hits
    into["cache_misses"] = into.get("cache_misses", 0) + report.cache_misses
    for key, value in report.solver_stats.items():
        into[key] = into.get(key, 0) + value


def run_table1_row(
    benchmark: Benchmark,
    strategy: object = "serial",
    cache: Optional[QueryCache] = None,
    search: object = "greedy",
    cache_dir: Optional[str] = None,
    workspace=None,
) -> Table1Row:
    """Analyse and repair one benchmark (a thin wrapper over
    :class:`repro.api.Workspace`).

    A strategy named by string is resolved once, shared by the repair
    run and the CC/RR sweeps, and torn down before returning; a strategy
    instance is the caller's to close.  ``search`` selects the plan
    search (see :func:`repro.repair.engine.repair`); the produced plan
    rides on the row (``row.plan`` / ``row.plan_provenance()``).
    ``cache_dir`` (ignored when an explicit ``cache`` is given) backs
    the row's memo cache with a
    :class:`~repro.analysis.pipeline.PersistentQueryCache`, so repeated
    runs warm-start from disk.  ``workspace`` short-circuits all of the
    above: the row runs entirely on the caller's workspace (this is how
    :func:`run_table1` shares one strategy/cache across the sweep).
    """
    from repro.api import Workspace

    owns_workspace = workspace is None
    if owns_workspace:
        workspace = Workspace(
            strategy=strategy, cache=cache, cache_dir=cache_dir, search=search
        )
    start = time.perf_counter()
    program = benchmark.program()
    try:
        report = workspace.repair_program(program, search=search)
        oracle_stats: Dict[str, int] = {}
        # One batched CC+RR sweep: on a warm strategy each focus triple
        # is discharged at both levels in one incremental solve
        # sequence; the serial workspace analyzes level by level.
        cc_report, rr_report = workspace.analyze_program_levels(
            program, (CC, RR)
        )
    finally:
        if owns_workspace:
            workspace.close()
    for analysis in (cc_report, rr_report):
        _merge_stats(oracle_stats, analysis)
    elapsed = time.perf_counter() - start
    return Table1Row(
        name=benchmark.name,
        txns=len(program.transactions),
        tables_before=len(program.schemas),
        tables_after=len(report.repaired_program.schemas),
        ec=len(report.initial_pairs),
        at=len(report.residual_pairs),
        cc=len(cc_report.pairs),
        rr=len(rr_report.pairs),
        time_s=elapsed,
        report=report,
        paper_ec=benchmark.paper.ec,
        paper_at=benchmark.paper.at,
        oracle_stats=oracle_stats,
    )


def run_table1(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    strategy: object = "serial",
    cache: Optional[QueryCache] = None,
    search: object = "greedy",
    cache_dir: Optional[str] = None,
    workspace=None,
) -> List[Table1Row]:
    """The full Table 1 sweep (a thin wrapper over
    :class:`repro.api.Workspace`).

    One workspace -- one strategy instance (and its warm solver
    sessions, if any) plus one memo cache -- is shared across all rows.  A
    ``cache_dir`` (ignored when an explicit ``cache`` is given) makes
    that shared cache persistent, so a repeated sweep -- even in a fresh
    process -- warm-starts from the previous run's query outcomes.
    """
    from repro.api import Workspace

    benches = benchmarks or ALL_BENCHMARKS
    if workspace is not None:
        return [run_table1_row(b, search=search, workspace=workspace) for b in benches]
    with Workspace(
        strategy=strategy, cache=cache, cache_dir=cache_dir, search=search
    ) as ws:
        return [run_table1_row(b, search=search, workspace=ws) for b in benches]
