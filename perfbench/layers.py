"""The per-layer metrics a traced run reports, and how each is read.

Every traced run reports every metric below; a layer that the workload
does not run in a traced process reads 0 (the service workload's
analysis runs inside ``repro serve`` workers, which are not traced).
Times are per operation of the workload (a pass or a job), medians over
the run's operations; counts are per operation too.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (metric, unit, span or counter, how): "s" = inclusive seconds of the
#: span, "self" = self seconds, "count" = a counter.
TRACED: List[Tuple[str, str, str, str]] = [
    ("lang.parse_s", "s", "lang.parse", "s"),
    ("analysis.summarize_s", "s", "analysis.summarize", "s"),
    ("analysis.plan_s", "s", "analysis.plan", "s"),
    ("analysis.oracle_s", "s", "analysis.oracle", "s"),
    ("analysis.strategy_s", "s", "analysis.strategy", "s"),
    ("analysis.queries", "count", "analysis.queries", "count"),
    ("analysis.cache_hits", "count", "analysis.cache_hits", "count"),
    ("analysis.cache_misses", "count", "analysis.cache_misses", "count"),
    ("analysis.sat_queries", "count", "analysis.sat_queries", "count"),
    ("smt.decisions", "count", "smt.decisions", "count"),
    ("smt.props", "count", "smt.props", "count"),
    ("smt.conflicts", "count", "smt.conflicts", "count"),
    ("repair.search_s", "s", "repair.search", "self"),
    ("repair.candidates", "count", "repair.candidates", "count"),
    ("refactor.apply_s", "s", "refactor.apply", "s"),
    ("api.bench_s", "s", "api.bench", "s"),
    ("live.compile_s", "s", "live.compile", "s"),
    ("refactor.migrate_s", "s", "refactor.migrate", "s"),
    ("semantics.run_serial_s", "s", "semantics.run_serial", "s"),
    ("semantics.run_interleaved_s", "s", "semantics.run_interleaved", "s"),
    ("semantics.histories", "count", "semantics.histories", "count"),
    ("semantics.is_serializable_s", "s", "semantics.is_serializable", "s"),
    ("live.intercept_s", "s", "live.intercept", "s"),
    ("store.profile_s", "s", "store.profile", "s"),
    ("store.simulate_s", "s", "store.simulate", "s"),
]

#: Metrics derived from other metrics or measured outside the tracer.
OTHER: List[Tuple[str, str]] = [
    # the operation's wall time in the traced run; minus the untraced
    # op_p50_s it is the tracing overhead
    ("op_traced_s", "s"),
    # hits over planned queries; its base is analysis.queries
    ("analysis.cache_hit_ratio", "ratio"),
    ("store.repaired_sim_tps", "txn/s"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.run_repeat_s", "s"),
    ("service.notify_s", "s"),
    ("service.fetch_s", "s"),
    ("service.job_p95_s", "s"),
    ("service.backpressure_retries", "count"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in TRACED}
UNITS.update(OTHER)


def from_tracer(tracer) -> Dict[str, float]:
    """One operation's traced metrics (call between ``reset``\\ s)."""
    values: Dict[str, float] = {}
    for name, _, source, how in TRACED:
        if how == "count":
            values[name] = tracer.counts.get(source, 0)
        elif how == "self":
            values[name] = tracer.self_seconds(source)
        else:
            values[name] = tracer.seconds(source)
    return values


def complete(values: Dict[str, float]) -> Dict[str, dict]:
    """The full per-layer metric set, zero where the workload has no
    such layer in a traced process."""
    out = {}
    for name, unit in UNITS.items():
        out[name] = {"value": values.get(name, 0), "unit": unit}
    queries = values.get("analysis.queries", 0)
    out["analysis.cache_hit_ratio"]["value"] = (
        values.get("analysis.cache_hits", 0) / queries if queries else 0
    )
    return out
