"""Live-repair overhead and validation record: ``BENCH_live.json``.

For every corpus benchmark this bench compiles the greedy repair plan
into live mutation-rewrite rules (:mod:`repro.live`), runs the full
validation harness (serial fidelity + the four-way anomaly probe:
original / post-postprocess static / pre-postprocess target / live),
and measures the rewrite overhead on the simulated store against the
``simulated_throughput_probe`` prediction the repair search already
uses to rank plans.  The verdict fields are hard gates here (every
benchmark must pass); the throughput record is tracked by
``check_live_regression.py`` on matching host shapes.

Everything in the row set is seeded and single-threaded, so anomaly
counts and rule counts are deterministic and comparable across hosts;
only the throughput ratio depends on host shape via the committed
baseline's provenance.

Environment knobs:

- ``LIVE_BENCH_CORPUS=small`` restricts to a three-benchmark smoke
  subset (the CI benchmark job uses this);
- ``LIVE_BENCH_OUT`` sets the JSON output path (default
  ``benchmarks/out/BENCH_live.json``, git-ignored; point it at the
  committed ``BENCH_live.json`` to refresh the baseline).
"""

import json
import math
import os
import platform

from repro.corpus import ALL_BENCHMARKS, BY_NAME
from repro.live import (
    DEFAULT_SAMPLES,
    DEFAULT_SCALE,
    DEFAULT_SEED,
    measure_overhead,
    validate_benchmark,
)

SMOKE_CORPUS = ("TPC-C", "SmallBank", "Courseware")

OVERHEAD_CLIENTS = 16
OVERHEAD_SCALE = 8
OVERHEAD_SEED = 7


def _corpus():
    if os.environ.get("LIVE_BENCH_CORPUS") == "small":
        return tuple(BY_NAME[name] for name in SMOKE_CORPUS)
    return ALL_BENCHMARKS


def test_live_bench(capsys, bench_out):
    corpus = _corpus()
    rows = []
    for bench in corpus:
        verdict = validate_benchmark(
            bench,
            samples=DEFAULT_SAMPLES,
            seed=DEFAULT_SEED,
            scale=DEFAULT_SCALE,
        )
        measurement = measure_overhead(
            bench,
            clients=OVERHEAD_CLIENTS,
            scale=OVERHEAD_SCALE,
            seed=OVERHEAD_SEED,
        )
        # Hard gates: the rules must replay the repair faithfully in
        # serial runs and agree with the pre-postprocess target on the
        # anomaly verdict; the simulated store must stay live under the
        # rewrite hook.  These hold on every host (all seeded).
        assert verdict.passed, (bench.name, verdict.to_json())
        assert measurement.live_throughput > 0, bench.name
        assert math.isfinite(measurement.overhead_ratio), bench.name
        rows.append(
            {
                "name": bench.name,
                "rules": verdict.rules,
                "identity_rules": verdict.identity_rules,
                "unsupported": verdict.unsupported,
                "serial_match": verdict.serial_match,
                "verdict_match": verdict.verdict_match,
                "passed": verdict.passed,
                "anomalies": {
                    "original": verdict.original.to_json(),
                    "static": verdict.static.to_json(),
                    "target": verdict.target.to_json(),
                    "live": verdict.live.to_json(),
                },
                "predicted_throughput": round(
                    measurement.predicted_throughput, 3
                ),
                "live_throughput": round(measurement.live_throughput, 3),
                "overhead_ratio": round(measurement.overhead_ratio, 4),
                "live_avg_latency_ms": round(
                    measurement.live_avg_latency_ms, 4
                ),
                "live_p95_latency_ms": round(
                    measurement.live_p95_latency_ms, 4
                ),
            }
        )

    payload = {
        "benchmark": "live-overhead",
        "workload": "live rule validation + simulated rewrite overhead",
        "corpus": [b.name for b in corpus],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "samples": DEFAULT_SAMPLES,
        "seed": DEFAULT_SEED,
        "scale": DEFAULT_SCALE,
        "overhead": {
            "clients": OVERHEAD_CLIENTS,
            "scale": OVERHEAD_SCALE,
            "seed": OVERHEAD_SEED,
        },
        "rows": rows,
    }
    out_path = bench_out("LIVE_BENCH_OUT", "BENCH_live.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    worst = max(rows, key=lambda r: r["overhead_ratio"])
    with capsys.disabled():
        print(
            f"\nlive bench: {len(rows)} benchmark(s), all verdicts pass; "
            f"worst overhead {worst['name']} "
            f"{worst['overhead_ratio']:.3f}x "
            f"({worst['predicted_throughput']:.1f} -> "
            f"{worst['live_throughput']:.1f} txn/s) -> {out_path}"
        )
