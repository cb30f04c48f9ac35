"""The ``table1`` workload: the paper's Table 1, one fresh process per pass.

A pass builds ``Workspace()`` (the default ``auto`` strategy) and runs
``Workspace.bench`` over the nine corpus programs -- greedy repair at EC,
then the CC and RR sweeps -- in an order drawn from the seed and the
pass's number, so a run's median pass covers as many orders as it has
passes (the order moves a pass by up to about 10 %: work the workspace's
memo cache shares between programs depends on it).  Each pass is a new
process because a CLI or CI run starts cold: repeated passes in one
process would be answered by module-level memo tables.

Run as a module, this file is one pass; it prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import List

from perfbench import common, layers

#: BenchRow fields that are timings, not results.
TIMING_FIELDS = ("time_s", "repair_seconds")


def program_order(seed: int, number: int) -> List[str]:
    """The corpus in the order pass ``number`` of a run on ``seed``
    requests it."""
    from repro.corpus import ALL_BENCHMARKS

    names = [b.name for b in ALL_BENCHMARKS]
    random.Random(f"{seed}/{number}").shuffle(names)
    return names


def pass_main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-number", type=int, default=1)
    parser.add_argument(
        "--strategy", default=None,
        help="build Workspace(strategy=...) instead of the default, for "
        "the README's reference figures",
    )
    parser.add_argument("--trace-file", default=None,
                        help="trace the pass and write its spans here")
    args = parser.parse_args(argv)

    from repro.api import BenchRequest, Workspace
    from repro.corpus import BY_NAME

    tracer = None
    if args.trace_file:
        from perfbench.tracer import Tracer, install

        tracer = install(Tracer())
    ws = Workspace() if args.strategy is None else Workspace(strategy=args.strategy)
    ready = time.monotonic()
    order = program_order(args.seed, args.pass_number)
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    result = ws.bench(BenchRequest(benchmarks=tuple(order)))
    pass_s = time.perf_counter() - start
    traced = None
    if tracer is not None:
        traced = layers.from_tracer(tracer)
        tracer.restore()
        tracer.dump(Path(args.trace_file))
    rows = []
    for row in result.rows:
        doc = row.to_json()
        for name in TIMING_FIELDS:
            doc.pop(name)
        rows.append(doc)
    # Outside the timed call: the EC pair sets the pass's workspace
    # computed, read back through its (now warm) oracle.
    untimed = time.perf_counter()
    pairs = {
        name: sorted(
            list(p.key()) for p in ws.analyze_program(BY_NAME[name].program()).pairs
        )
        for name in order
    }
    untimed_s = time.perf_counter() - untimed
    ws.close()
    print(json.dumps({
        "ready": ready,
        "pass_s": pass_s,
        "untimed_s": untimed_s,
        "rows": rows,
        "pairs": pairs,
        "layers": traced,
    }))
    return 0


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Passes until ``seconds`` have elapsed, then the output checks."""
    from perfbench import checks

    passes, attempted, errors, peak_mb = common.run_passes(
        "perfbench.table1",
        lambda index: ["--seed", str(seed), "--pass-number", str(index)],
        seconds,
        trace,
    )
    result = {
        "attempted": attempted,
        "failed": attempted - len(passes),
        "errors": errors,
    }
    if passes:
        errors += checks.check_table1(
            passes, checks.table1_reference(passes[0]["rows"]), seed
        )
        result["metrics"] = common.pass_metrics(passes, peak_mb, trace)
    return result


if __name__ == "__main__":
    sys.exit(pass_main())
