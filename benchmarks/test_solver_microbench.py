"""Solver micro-benchmark: propagation and conflict-analysis throughput
on the arena clause store.

Two workloads isolate the hot paths the oracle exercises:

- ``unit-sweep``: a satisfiable random 3-SAT instance solved under a
  long batch of single-literal assumption sets -- propagation-dominated,
  the shape of a warm incremental session sweeping levels;
- ``pigeonhole``: an unsatisfiable PHP(6,5) refutation --
  conflict-analysis- and learning-dominated.

The solver is deterministic, so every repetition on a fresh solver must
retrace the identical search (verdicts and decisions/propagations/
conflicts).  Timings are best-of-three and recorded for the perf
trajectory; nothing gates on them, so scheduler noise on a shared CI
host cannot flake the job.

``BENCH_SOLVER_MICRO_OUT`` names a JSON output path; without it the
numbers are only printed.
"""

import json
import os
import platform
import random
import time

from repro.smt.solver import Solver, lit, neg, stats_delta

_PROP_KEYS = ("props", "decisions", "conflicts")


def _random_3sat(s, num_vars=120, num_clauses=420, seed=7):
    rng = random.Random(seed)
    vs = [s.new_var() for _ in range(num_vars)]
    for _ in range(num_clauses):
        s.add_clause(
            [lit(rng.randrange(num_vars), rng.random() < 0.5) for _ in range(3)]
        )
    return vs


def _pigeonhole(s, pigeons=6, holes=5):
    v = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for i in range(pigeons):
        s.add_clause([lit(v[i][j]) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                s.add_clause([neg(lit(v[i1][j])), neg(lit(v[i2][j]))])


def _unit_sweep():
    s = Solver()
    vs = _random_3sat(s)
    assert s.solve().sat  # warm the learned DB like a session build
    batch = [[lit(v, pol)] for v in vs for pol in (True, False)]
    before = s.stats()
    start = time.perf_counter()
    results = s.solve_batch(batch)
    seconds = time.perf_counter() - start
    verdicts = [r.sat for r in results]
    return verdicts, stats_delta(s.stats(), before), seconds


def _refutation():
    s = Solver()
    _pigeonhole(s)
    before = s.stats()
    start = time.perf_counter()
    result = s.solve()
    seconds = time.perf_counter() - start
    return [result.sat], stats_delta(s.stats(), before), seconds


def _best_of(runner, repeats=3):
    verdicts, delta, seconds = None, None, float("inf")
    for _ in range(repeats):
        v, d, elapsed = runner()
        if verdicts is None:
            verdicts, delta = v, d
        else:
            # Fresh solver + deterministic heuristics: every repetition
            # must retrace the identical search.
            assert v == verdicts and all(
                d[k] == delta[k] for k in _PROP_KEYS
            ), runner.__name__
        seconds = min(seconds, elapsed)
    return verdicts, delta, seconds


def test_solver_microbench(capsys):
    payload = {
        "benchmark": "solver-microbench",
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "workloads": {},
    }
    for name, runner in (("unit_sweep", _unit_sweep), ("pigeonhole", _refutation)):
        verdicts, delta, seconds = _best_of(runner)
        payload["workloads"][name] = {
            "solves": len(verdicts),
            "props": delta["props"],
            "conflicts": delta["conflicts"],
            "arena_seconds": round(seconds, 4),
            "arena_props_per_second": round(delta["props"] / seconds, 1),
        }

    out_path = os.environ.get("BENCH_SOLVER_MICRO_OUT")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    with capsys.disabled():
        for name, w in payload["workloads"].items():
            print(
                f"\nsolver microbench [{name}]: "
                f"arena={w['arena_seconds']:.3f}s "
                f"({w['arena_props_per_second']:.0f} props/s)"
            )
