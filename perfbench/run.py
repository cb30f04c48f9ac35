"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` is a separate run that wraps each layer and
reports the per-layer metrics instead.  The last line of standard output
is one JSON object: ``correct`` (every output check passed),
``attempted`` and ``failed`` (operations: passes for ``table1`` and
``protect``, jobs for ``service``) and ``metrics``.  Check failures are
listed on standard error.  A run in which no operation completed still
prints its result line, with ``correct`` false, and exits 1.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("table1", "service", "protect")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
    except common.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "table1":
        from perfbench import table1

        result = table1.run(args.seed, args.seconds, bool(args.trace))
    elif args.workload == "service":
        from perfbench import service

        result = service.run(args.seed, args.seconds, bool(args.trace))
    else:
        from perfbench import protect

        result = protect.run(args.seed, args.seconds, bool(args.trace))

    for error in result["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    completed = "metrics" in result
    if not completed:
        print("perfbench: no operation completed", file=sys.stderr)
    print(json.dumps({
        "correct": completed and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result.get("metrics", {}),
    }))
    return 0 if completed else 1


if __name__ == "__main__":
    sys.exit(main())
