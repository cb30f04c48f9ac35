"""Oracle execution scaling: serial seed loop vs incremental
warm-solver sessions, plus the persistent cross-run cache.

Runs the full-corpus Table 1 workload (repair fixpoint plus CC/RR
sweeps) two ways -- the seed serial oracle and the incremental session
strategy -- verifies the outputs agree, then runs a cold+warm
persistent-cache pair (same on-disk store, fresh cache objects,
standing in for separate processes) and records the wall-clock
speedup, cache hit-rates (including the warm-start gain), session
reuse, queries/sec, solver counters, per-strategy worker shapes, and
per-benchmark repair timings (``rows[*].repair_seconds``, the plan
search alone) as JSON, so CI tracks the perf trajectory on every run.

Environment knobs:

- ``ORACLE_BENCH_CORPUS=small`` restricts to a three-benchmark smoke
  subset (the CI benchmark job uses this);
- ``BENCH_ORACLE_OUT`` sets the JSON output path (default
  ``benchmarks/out/BENCH_oracle.json``, git-ignored; point it at the
  committed ``BENCH_oracle.json`` to refresh the baseline);
- ``ORACLE_BENCH_CACHE_DIR`` pins the persistent-cache directory (a
  temp dir by default), letting CI warm-start a second full run.
"""

import json
import os
import platform
import tempfile
import time

from repro.analysis import AnomalyOracle, EC, PersistentQueryCache, QueryCache
from repro.analysis.pipeline import resolve_strategy
from repro.corpus import ALL_BENCHMARKS, BY_NAME
from repro.exp import run_table1

SMOKE_CORPUS = ("TPC-C", "SmallBank", "Courseware")


def _corpus():
    if os.environ.get("ORACLE_BENCH_CORPUS") == "small":
        return tuple(BY_NAME[name] for name in SMOKE_CORPUS)
    return ALL_BENCHMARKS


def _canonical(pairs):
    return [
        (
            p.txn,
            p.c1,
            p.c2,
            tuple(sorted(p.fields1)),
            tuple(sorted(p.fields2)),
            p.interferers,
            p.patterns,
        )
        for p in pairs
    ]


def _count_signature(rows):
    """Level counts only: CC/RR pair *fields* may legitimately differ
    between strategies (an equally-valid witness of the same anomaly),
    the counts and the repair-facing EC pairs may not."""
    return [(r.name, r.ec, r.at, r.cc, r.rr, r.tables_after) for r in rows]


def _repair_signature(rows):
    """The repair-facing output: EC pair sets, field-exact."""
    return [
        (
            row.name,
            _canonical(row.report.initial_pairs),
            _canonical(row.report.residual_pairs),
        )
        for row in rows
    ]


class TestStrategyEquivalence:
    """Acceptance gate: the incremental oracle must reproduce the serial
    seed oracle exactly on TPC-C, SmallBank, and Courseware."""

    def test_identical_access_pairs(self):
        for name in SMOKE_CORPUS:
            program = BY_NAME[name].program()
            serial = AnomalyOracle(EC).analyze(program)
            for strategy in ("incremental", "auto"):
                oracle = AnomalyOracle(EC, strategy=strategy)
                try:
                    report = oracle.analyze(program)
                finally:
                    oracle.close()
                assert _canonical(serial.pairs) == _canonical(report.pairs), (
                    name,
                    strategy,
                )
                assert serial.pairs_checked == report.pairs_checked, (name, strategy)


def test_oracle_scaling(capsys, bench_out):
    corpus = _corpus()

    # Serial seed baseline (best of three to damp scheduler noise).
    serial_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        serial_rows = run_table1(corpus)
        serial_seconds = min(serial_seconds, time.perf_counter() - start)

    # Incremental warm-solver sessions, cold cache + pool each
    # repetition.  Pool and cache counters are deterministic across
    # repetitions, so the last repetition's stand for all; close each
    # runner so the three warm pools don't stack up in memory.
    incremental_seconds = float("inf")
    session_counters = {}
    best_repair_seconds = {}
    for _ in range(3):
        cache = QueryCache()
        with resolve_strategy("incremental") as runner:
            start = time.perf_counter()
            incremental_rows = run_table1(corpus, strategy=runner, cache=cache)
            incremental_seconds = min(
                incremental_seconds, time.perf_counter() - start
            )
            session_counters = runner.pool.counters()
        # Like the aggregate seconds, per-benchmark repair timings keep
        # the best of the three repetitions to damp scheduler noise.
        for r in incremental_rows:
            best_repair_seconds[r.name] = min(
                best_repair_seconds.get(r.name, float("inf")),
                r.repair_seconds,
            )

    # Persistent cross-run cache: one cold and one warm pass over the
    # same on-disk store, each with a *fresh* cache object (standing in
    # for a fresh process).  The warm pass must hit strictly more and
    # produce identical rows.
    cache_dir = os.environ.get("ORACLE_BENCH_CACHE_DIR")
    cache_dir_ctx = None
    if cache_dir is None:
        cache_dir_ctx = tempfile.TemporaryDirectory(prefix="oracle-bench-cache-")
        cache_dir = cache_dir_ctx.name
    persistent = {}
    persistent_rows = {}
    for phase in ("cold", "warm"):
        disk_cache = PersistentQueryCache(cache_dir)
        if phase == "cold":
            # A pinned ORACLE_BENCH_CACHE_DIR may carry a previous
            # run's store; the cold pass must actually be cold.
            disk_cache.clear()
        with resolve_strategy("incremental") as runner:
            start = time.perf_counter()
            persistent_rows[phase] = run_table1(
                corpus, strategy=runner, cache=disk_cache
            )
            persistent[phase] = {
                "seconds": round(time.perf_counter() - start, 4),
                "hits": disk_cache.hits,
                "misses": disk_cache.misses,
                "hit_rate": round(disk_cache.hit_rate, 4),
                "persistent_hits": disk_cache.persistent_hits,
                "entries": len(disk_cache),
            }
        disk_cache.close()
    if cache_dir_ctx is not None:
        cache_dir_ctx.cleanup()

    # Hard equivalence gates: the warm-session runs (incremental and
    # both persistent-cache passes) match every count and the
    # repair-facing EC pair sets field-for-field (their first,
    # witness-bearing solve per session runs on a virgin solver).
    # CC/RR witness fields may differ only by picking another model of
    # the same encoding, which tests/test_oracle_session.py validates
    # semantically per query.
    assert _count_signature(serial_rows) == _count_signature(incremental_rows)
    assert _repair_signature(serial_rows) == _repair_signature(incremental_rows)
    for phase_rows in persistent_rows.values():
        assert _count_signature(serial_rows) == _count_signature(phase_rows)
        assert _repair_signature(serial_rows) == _repair_signature(phase_rows)
    # The warm pass reads everything it can from disk: strictly higher
    # hit rate, nothing re-solved.
    assert persistent["warm"]["hit_rate"] > persistent["cold"]["hit_rate"]
    assert persistent["warm"]["persistent_hits"] > 0

    queries = cache.hits + cache.misses
    solver_stats = {}
    for row in incremental_rows:
        for key, value in row.oracle_stats.items():
            solver_stats[key] = solver_stats.get(key, 0) + value

    total_speedup = (
        serial_seconds / incremental_seconds if incremental_seconds else 0.0
    )
    host_cpus = os.cpu_count()
    payload = {
        "benchmark": "oracle-scaling",
        "workload": "table1 (repair fixpoint + CC/RR sweeps)",
        "corpus": [b.name for b in corpus],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": host_cpus,
        },
        # Per-strategy host shape: the regression gate only compares a
        # strategy's timings across hosts whose cpu_count/workers match.
        "strategies": {
            "serial": {"cpu_count": host_cpus, "workers": 1},
            "incremental": {"cpu_count": host_cpus, "workers": 1},
        },
        "serial_seconds": round(serial_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "incremental_speedup_vs_serial": round(total_speedup, 2),
        "queries": queries,
        "queries_per_second": {
            "serial": round(queries / serial_seconds, 1),
            "incremental": round(queries / incremental_seconds, 1),
        },
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": round(cache.hit_rate, 4),
        },
        "persistent_cache": persistent,
        "sessions": session_counters,
        "solver": solver_stats,
        "rows": [
            {
                "name": r.name,
                "ec": r.ec,
                "at": r.at,
                "cc": r.cc,
                "rr": r.rr,
                # Wall-clock of the plan search alone (the repair
                # fixpoint, excluding the CC/RR sweeps), measured on the
                # incremental strategy; gated by
                # check_bench_regression.py on same-shape hosts.
                "repair_seconds": round(best_repair_seconds[r.name], 4),
                "plan_steps": len(r.plan),
            }
            for r in incremental_rows
        ],
    }
    out_path = bench_out("BENCH_ORACLE_OUT", "BENCH_oracle.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    with capsys.disabled():
        print(
            f"\noracle scaling: serial={serial_seconds:.2f}s "
            f"incremental={incremental_seconds:.2f}s | "
            f"incremental {total_speedup:.2f}x over serial, "
            f"cache hit-rate={cache.hit_rate:.1%}, "
            f"persistent warm hit-rate "
            f"{persistent['cold']['hit_rate']:.1%} -> "
            f"{persistent['warm']['hit_rate']:.1%}, "
            f"session model-hits={session_counters.get('model_hits', 0)} "
            f"-> {out_path}"
        )

    # Identical results are a hard gate (asserted above).  The speedup
    # floor is intentionally below what we measure, so CI noise cannot
    # turn the perf record into a flake; the JSON carries the actual
    # numbers.  incremental-vs-serial is host-shape-stable (both run
    # single-threaded everywhere).
    assert total_speedup > 1.5
