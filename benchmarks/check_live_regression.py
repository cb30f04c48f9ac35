"""Compare a fresh live-repair bench run against the committed baseline.

Usage::

    python benchmarks/check_live_regression.py \
        --fresh BENCH_live_fresh.json --baseline BENCH_live.json \
        [--tolerance 0.2]

The validation side of ``BENCH_live.json`` is fully seeded and
single-threaded, so it is host-independent and gated **unconditionally**
for every benchmark present in both runs:

- every fresh row must pass outright (serial fidelity + anomaly-verdict
  agreement) -- a failing row is a live-enforcement bug, never noise;
- rule counts (``rules`` / ``identity_rules`` / ``unsupported``) must
  match the baseline exactly: plan compilation is deterministic, so a
  changed count on an unchanged benchmark means the compiler changed
  behaviour;
- the anomaly *verdict* per probe side (anomalous or not, i.e.
  ``anomalies.<side>.anomalies > 0``) must not flip against the
  baseline.  Raw counts may drift when a repair plan legitimately
  changes; a verdict flip means the live rules stopped (or started)
  protecting a benchmark and fails regardless of tolerance or host.

The throughput side depends on the simulator's host-calibrated service
times only through the committed baseline's provenance, so -- like
``repair_seconds`` in ``check_bench_regression.py`` -- the
``overhead_ratio`` ceiling is gated only when the fresh run's
``environment.cpu_count`` matches the baseline's: the fresh ratio may
not exceed the baseline's by more than ``tolerance`` (default 20%).
On a different host shape the ratios are reported but not gated.
"""

from __future__ import annotations

import argparse
import json
import sys

SIDES = ("original", "static", "target", "live")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def same_shape(fresh: dict, baseline: dict) -> bool:
    return fresh.get("environment", {}).get("cpu_count") == baseline.get(
        "environment", {}
    ).get("cpu_count")


def check(fresh: dict, baseline: dict, tolerance: float) -> list:
    failures = []

    rows = fresh.get("rows", [])
    if not rows:
        failures.append("fresh run records no benchmark rows")

    # Unconditional gates: every fresh row passes on its own terms.
    for row in rows:
        if not row["passed"]:
            failures.append(
                f"{row['name']}: live validation failed "
                f"(serial_match={row['serial_match']}, "
                f"verdict_match={row['verdict_match']})"
            )

    base_rows = {r["name"]: r for r in baseline.get("rows", [])}
    gate_ratio = same_shape(fresh, baseline)
    if not gate_ratio:
        print(
            "host shape differs "
            f"(cpu_count {baseline.get('environment', {}).get('cpu_count')} "
            f"-> {fresh.get('environment', {}).get('cpu_count')}); "
            "overhead ratios reported but not gated"
        )
    for row in rows:
        base = base_rows.get(row["name"])
        if base is None:
            continue
        for column in ("rules", "identity_rules", "unsupported"):
            # Required columns: a fresh row missing one is an emission
            # bug, so let the KeyError surface rather than skip the gate.
            if row[column] != base[column]:
                failures.append(
                    f"{row['name']}: {column} drifted "
                    f"{base[column]} -> {row[column]} (correctness gate)"
                )
        for side in SIDES:
            fresh_verdict = row["anomalies"][side]["anomalies"] > 0
            base_verdict = base["anomalies"][side]["anomalies"] > 0
            if fresh_verdict != base_verdict:
                failures.append(
                    f"{row['name']}: {side} anomaly verdict flipped "
                    f"{base_verdict} -> {fresh_verdict} (correctness gate)"
                )
        if gate_ratio:
            ceiling = base["overhead_ratio"] * (1.0 + tolerance)
            if row["overhead_ratio"] > ceiling:
                failures.append(
                    f"{row['name']}: overhead_ratio regressed: "
                    f"{row['overhead_ratio']:.4f} > {ceiling:.4f} "
                    f"(baseline {base['overhead_ratio']:.4f} "
                    f"+ {tolerance:.0%})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True, help="freshly measured JSON")
    parser.add_argument(
        "--baseline", required=True, help="committed baseline JSON"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional overhead_ratio increase on same-shape "
        "hosts before failing (default 0.2)",
    )
    args = parser.parse_args(argv)

    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = check(fresh, baseline, args.tolerance)

    worst = max(
        fresh.get("rows", []),
        key=lambda r: r.get("overhead_ratio", 0.0),
        default=None,
    )
    if worst is not None:
        print(
            f"fresh: {len(fresh['rows'])} row(s), worst overhead "
            f"{worst['name']} {worst['overhead_ratio']:.3f}x | "
            f"baseline rows: {len(baseline.get('rows', []))}"
        )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("live regression gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
