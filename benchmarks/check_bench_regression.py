"""Compare a fresh oracle-scaling run against the committed baseline.

Usage::

    python benchmarks/check_bench_regression.py \
        --fresh BENCH_fresh.json --baseline BENCH_oracle.json \
        [--tolerance 0.2]

The committed ``BENCH_oracle.json`` is measured on the full corpus
while CI runs the small smoke corpus, so absolute seconds are not
comparable across the two.  The gate therefore compares the *relative*
incremental-vs-serial speedup, which is corpus-size-stable and
host-shape-stable (both strategies run single-threaded everywhere): the
fresh run fails if it drops more than ``tolerance`` (default 20%) below
the baseline's.  That is the ratio that catches a broken warm-session
subsystem on any CI host.

The persistent-cache record (``persistent_cache.cold`` / ``.warm``) is
required in the fresh run, so the bench cannot silently stop measuring
it, and is gated *within* the fresh run: the warm pass must hit at
least as often as the cold pass, or the cross-run store is not actually
warm-starting.

Result rows (per-benchmark ec/at/cc/rr counts) are compared exactly for
every benchmark present in both runs: a count drift is a correctness
regression, never noise, and fails regardless of tolerance or host.

Per-benchmark ``repair_seconds`` (the plan search alone, measured on
the incremental strategy) is gated only when the incremental strategy's
host shape (``strategies.incremental.cpu_count`` / ``.workers``, or the
global ``environment.cpu_count`` in older baselines) matches the
baseline's, and against its own
``--time-tolerance`` (default 75%, looser than the speedup gate because
single-benchmark wall-clocks are noisier than full-corpus ratios) plus
a 25ms absolute slack that keeps sub-10ms rows out of timer-noise
territory.
``plan_steps`` drift, like count drift, is a correctness gate: the
greedy search is deterministic, so a changed step count on an unchanged
benchmark means the planner changed behaviour.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def strategy_shape(data: dict, name: str):
    """(cpu_count, workers) for one timed strategy; older payloads
    without the per-strategy record fall back to the global cpu count
    (with an unknown worker count)."""
    info = data.get("strategies", {}).get(name)
    if info is not None:
        return (info.get("cpu_count"), info.get("workers"))
    return (data.get("environment", {}).get("cpu_count"), None)


def same_shape(fresh: dict, baseline: dict, name: str) -> bool:
    """Whether a strategy's timings are comparable across the two runs:
    cpu counts must match, and worker counts must match when both runs
    recorded them."""
    f_cpus, f_workers = strategy_shape(fresh, name)
    b_cpus, b_workers = strategy_shape(baseline, name)
    if f_cpus != b_cpus:
        return False
    if f_workers is None or b_workers is None:
        return True
    return f_workers == b_workers


def check(
    fresh: dict,
    baseline: dict,
    tolerance: float,
    time_tolerance: float = 0.75,
) -> list:
    failures = []

    if "persistent_cache" not in fresh:
        failures.append(
            "fresh run is missing the persistent_cache record "
            "(required field)"
        )

    # Warm-start gate, within the fresh run: a second pass over the
    # persistent store must hit at least as often as the first.
    persistent = fresh.get("persistent_cache") or {}
    cold = persistent.get("cold")
    warm = persistent.get("warm")
    if cold is not None and warm is not None:
        if warm["hit_rate"] < cold["hit_rate"]:
            failures.append(
                "persistent cache warm pass hit-rate regressed below the "
                f"cold pass: {warm['hit_rate']:.2%} < {cold['hit_rate']:.2%}"
            )

    base_rows = {r["name"]: r for r in baseline.get("rows", [])}
    for row in fresh.get("rows", []):
        base = base_rows.get(row["name"])
        if base is None:
            continue
        for column in ("ec", "at", "cc", "rr"):
            # Required columns: a fresh row missing one is itself a bug,
            # so let the KeyError surface rather than skipping the gate.
            if row[column] != base[column]:
                failures.append(
                    f"{row['name']}: {column} drifted "
                    f"{base[column]} -> {row[column]} (correctness gate)"
                )
        if "plan_steps" in base:
            # Optional in the *baseline* only (older baselines predate
            # it); a fresh row missing the key is an emission bug and
            # surfaces as a KeyError, like the required columns above.
            if row["plan_steps"] != base["plan_steps"]:
                failures.append(
                    f"{row['name']}: plan_steps drifted "
                    f"{base['plan_steps']} -> {row['plan_steps']} "
                    "(correctness gate)"
                )
        if same_shape(fresh, baseline, "incremental") and "repair_seconds" in base:
            # repair_seconds is measured on the (single-threaded)
            # incremental strategy.  25ms absolute slack on top of the
            # fractional tolerance: sub-10ms baselines (SIBench,
            # Killrchat) are dominated by timer noise and 0.1ms JSON
            # rounding, and must not flake.
            ceiling = base["repair_seconds"] * (1.0 + time_tolerance) + 0.025
            if row["repair_seconds"] > ceiling:
                failures.append(
                    f"{row['name']}: repair_seconds regressed: "
                    f"{row['repair_seconds']:.3f}s > {ceiling:.3f}s "
                    f"(baseline {base['repair_seconds']:.3f}s "
                    f"+ {time_tolerance:.0%} + 25ms)"
                )
    base_value = baseline.get("incremental_speedup_vs_serial")
    fresh_value = fresh.get("incremental_speedup_vs_serial")
    # Older baselines predate the incremental entry; skip rather than
    # fail so the first run after an upgrade can seed it.
    if base_value is not None and fresh_value is not None:
        floor = base_value * (1.0 - tolerance)
        if fresh_value < floor:
            failures.append(
                f"incremental-vs-serial speedup regressed: {fresh_value:.2f}x < "
                f"{floor:.2f}x (baseline {base_value:.2f}x - {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True, help="freshly measured JSON")
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional speedup drop before failing (default 0.2)",
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=0.75,
        help="allowed fractional per-benchmark repair_seconds increase "
        "on same-shape hosts before failing (default 0.75)",
    )
    args = parser.parse_args(argv)

    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = check(
        fresh,
        baseline,
        args.tolerance,
        args.time_tolerance,
    )

    persistent = fresh.get("persistent_cache") or {}
    print(
        f"fresh: incremental {fresh.get('incremental_speedup_vs_serial')}x "
        f"over serial, warm cache hit-rate "
        f"{(persistent.get('warm') or {}).get('hit_rate')} | "
        f"baseline: incremental "
        f"{baseline.get('incremental_speedup_vs_serial')}x over serial"
    )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("bench regression gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
