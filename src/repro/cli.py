"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

A thin client of :mod:`repro.api` -- every subcommand builds one
:class:`~repro.api.Workspace` from its flags and goes through the
façade, so the CLI, the HTTP service, and direct library calls are the
same code path by construction:

- ``repro table1`` -- regenerate the paper's Table 1 (optionally a
  subset of benchmarks), with ``--plans`` provenance and ``--json``
  machine output;
- ``repro repair`` -- repair one benchmark or a DSL file; ``--plan-out``
  saves the rewrite plan as JSON, ``--plan-in`` *replays* a saved plan
  instead of searching (no oracle work);
- ``repro bench`` -- time the repair search per benchmark: the serial
  seed oracle against a warm strategy (incremental by default);
- ``repro serve`` -- run the JSON-over-HTTP service
  (:mod:`repro.service`): a durable sqlite job queue (``--job-db``)
  drained by ``--workers`` N worker processes, with admission control
  (``--max-queue-depth``, ``--rate-limit``) and graceful SIGTERM drain;
- ``repro chaos`` -- one seeded fault-injection experiment against an
  in-process service (``repro.service.chaos``): inject faults, check
  the no-lost-jobs / all-terminal / results-unchanged gates;
- ``repro schemas`` -- dump (or ``--check``) the versioned wire schemas
  against the committed ``schemas/`` goldens.

``--strategy`` contract (see :func:`repro.api.requested_strategy`): the
default is the serial seed loop; passing ``--cache-dir`` without a
strategy upgrades to ``auto`` with a note, and an *explicit*
``--strategy serial`` is respected -- the flag is then genuinely
unused: no cache is opened and no cache summary is printed.  The
deprecated ``parallel`` and ``parallel-incremental`` run the in-process
incremental strategy, with a note saying so.

Every subcommand exits non-zero on failure and prints plain text
(``repro.exp.reporting``) so output diffs cleanly in CI logs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.api import SEARCHES, STRATEGIES
from repro.corpus import ALL_BENCHMARKS, BY_NAME
from repro.errors import ReproError

BENCH_STRATEGIES = ("incremental", "parallel-incremental", "auto")


def _pick_benchmarks(names: Sequence[str]) -> List:
    if not names:
        return list(ALL_BENCHMARKS)
    picked = []
    for name in names:
        if name not in BY_NAME:
            known = ", ".join(sorted(BY_NAME))
            raise SystemExit(f"unknown benchmark {name!r} (known: {known})")
        picked.append(BY_NAME[name])
    return picked


def _resolved_strategy(args) -> str:
    """Apply the documented --strategy/--cache-dir contract, printing
    the note when a flag changed or lost its meaning."""
    from repro.api import requested_strategy

    strategy, note = requested_strategy(args.strategy, args.cache_dir)
    if note:
        print(note)
    return strategy


def _workspace(args, strategy: str):
    """One workspace per invocation, honouring the strategy contract:
    under an (explicit) serial strategy no cache is opened -- the flag
    was already declared unused."""
    from repro.api import Workspace

    return Workspace(
        strategy=strategy,
        cache_dir=args.cache_dir if strategy != "serial" else None,
        search=getattr(args, "search", "greedy"),
    )


def _cache_summary(cache) -> str:
    return (
        f"cache: {cache.hits} hits / {cache.misses} misses "
        f"(hit rate {cache.hit_rate:.1%}, "
        f"{getattr(cache, 'persistent_hits', 0)} from disk, "
        f"{len(cache)} entries)"
    )


def _maybe_cache_summary(args, workspace) -> None:
    if args.cache_dir and workspace.cache is not None:
        print(_cache_summary(workspace.cache))


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def cmd_table1(args) -> int:
    from repro.exp import format_plan, format_table, run_table1

    benches = _pick_benchmarks(args.benchmark)
    strategy = _resolved_strategy(args)
    with _workspace(args, strategy) as ws:
        rows = run_table1(benches, search=args.search, workspace=ws)
        headers = [
            "Benchmark", "#Txns", "#Tables", "EC", "AT", "CC", "RR", "Time",
        ]
        print(format_table(headers, [row.columns() for row in rows]))
        _maybe_cache_summary(args, ws)
        strategy_name = ws.strategy_name
    if args.plans:
        print()
        for row in rows:
            print(format_plan(f"{row.name} plan", row.plan))
    if args.json:
        payload = {
            "strategy": strategy_name,
            "search": args.search,
            "rows": [
                {
                    "name": row.name,
                    "txns": row.txns,
                    "tables_before": row.tables_before,
                    "tables_after": row.tables_after,
                    "ec": row.ec,
                    "at": row.at,
                    "cc": row.cc,
                    "rr": row.rr,
                    "time_s": round(row.time_s, 4),
                    "repair_seconds": round(row.repair_seconds, 4),
                    "provenance": row.plan_provenance(),
                }
                for row in rows
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    return 0


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def _repair_request(args, plan: Optional[dict]):
    """(label, RepairRequest) from --benchmark or --file."""
    from repro.api import RepairRequest

    if args.benchmark:
        bench = _pick_benchmarks([args.benchmark])[0]
        return bench.name, RepairRequest(
            benchmark=bench.name, search=args.search, plan=plan
        )
    with open(args.file) as fh:
        return args.file, RepairRequest(
            source=fh.read(), search=args.search, plan=plan
        )


def _repair_summary(result) -> str:
    """Plain-text summary of a wire :class:`~repro.api.RepairResult`
    (mirrors :meth:`repro.repair.engine.RepairReport.summary`)."""
    initial = len(result.initial_pairs)
    residual = len(result.residual_pairs)
    ratio = (initial - residual) / initial if initial else 1.0
    lines = [
        f"anomalous pairs: {initial} -> {residual} ({ratio:.0%} repaired)",
        f"tables: {result.tables_before} -> {result.tables_after}",
        f"time: {result.elapsed_seconds:.2f}s",
    ]
    for outcome in result.outcomes:
        lines.append(f"  [{outcome.action}] {outcome.pair.describe()}")
    return "\n".join(lines)


def cmd_repair(args) -> int:
    from repro.exp import format_plan
    from repro.repair import RewritePlan

    plan_doc = None
    if args.plan_in:
        with open(args.plan_in) as fh:
            plan_doc = json.load(fh)
        ignored = [
            flag
            for flag, value in (
                ("--strategy", args.strategy),
                ("--cache-dir", args.cache_dir),
            )
            if value
        ]
        if ignored:
            print(
                "note: --plan-in replays the saved plan without oracle "
                f"work; {'/'.join(ignored)} ignored"
            )
    label, request = _repair_request(args, plan_doc)
    strategy = "serial" if args.plan_in else _resolved_strategy(args)
    with _workspace(args, strategy) as ws:
        result = ws.repair(request)
        if args.plan_in:
            steps = len(result.plan.get("steps", []))
            print(f"replayed {steps}-step plan from {args.plan_in} on {label}")
        else:
            print(_repair_summary(result))
            _maybe_cache_summary(args, ws)
    print(format_plan("plan", RewritePlan.from_json(result.plan)))
    if args.plan_out:
        with open(args.plan_out, "w") as fh:
            json.dump(result.plan, fh, indent=2)
            fh.write("\n")
        print(f"wrote plan to {args.plan_out}")
    if args.print_program:
        print()
        print(result.repaired_program)
    return 0


# ---------------------------------------------------------------------------
# protect (live repair)
# ---------------------------------------------------------------------------


def cmd_protect(args) -> int:
    from repro.api import LiveProtectRequest, Workspace

    plan_doc = None
    if args.plan_in:
        with open(args.plan_in) as fh:
            plan_doc = json.load(fh)
    request = LiveProtectRequest(
        benchmark=args.benchmark,
        plan=plan_doc,
        samples=args.samples,
        seed=args.seed,
        scale=args.scale,
        measure=args.measure,
        clients=args.clients,
    )
    with Workspace(strategy="serial") as ws:
        result = ws.protect(request)
    source = f"plan from {args.plan_in}" if args.plan_in else "own repair plan"
    print(
        f"{result.benchmark} ({source}): {result.rules} rule(s), "
        f"{result.identity_rules} identity, "
        f"{result.unsupported} unsupported step(s)"
    )
    for step in result.unsupported_steps:
        kind = step.get("step", {}).get("step", "?")
        print(f"  [unsupported] {kind}: {step.get('reason', '')}")
    counts = result.anomalies
    print(
        "serial fidelity vs static repair: "
        + ("match" if result.serial_match else "MISMATCH")
    )
    print(
        f"anomalies over {result.samples} weak replays: "
        f"original {counts['original']['anomalies']}, "
        f"static {counts['static']['anomalies']}, "
        f"target {counts['target']['anomalies']}, "
        f"live {counts['live']['anomalies']} -> verdict "
        + ("agrees" if result.verdict_match else "DISAGREES")
    )
    if result.overhead is not None:
        o = result.overhead
        print(
            f"overhead: predicted {o['predicted_throughput']:.1f} txn/s, "
            f"live {o['live_throughput']:.1f} txn/s "
            f"(ratio {o['overhead_ratio']:.3f})"
        )
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.report}")
    if result.passed:
        print("live protection: PASS")
        return 0
    print("live protection: FAIL", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    from repro.api import Workspace
    from repro.exp import run_table1_row

    benches = _pick_benchmarks(args.benchmark)
    if args.corpus == "small":
        small = {"TPC-C", "SmallBank", "Courseware"}
        benches = [b for b in benches if b.name in small]
    rows = []
    strategy = _resolved_strategy(args)
    with Workspace(strategy="serial") as serial_ws, Workspace(
        strategy=strategy, cache_dir=args.cache_dir
    ) as warm_ws:
        for bench in benches:
            serial_row = run_table1_row(
                bench, search=args.search, workspace=serial_ws
            )
            warm_row = run_table1_row(
                bench, search=args.search, workspace=warm_ws
            )
            rows.append((bench.name, serial_row, warm_row))
        return _report_bench(args, warm_ws, rows)


def _report_bench(args, warm_ws, rows) -> int:
    from repro.exp import format_table

    cache = warm_ws.cache

    def fmt(name, serial_row, warm_row):
        speedup = (
            serial_row.repair_seconds / warm_row.repair_seconds
            if warm_row.repair_seconds
            else 0.0
        )
        return [
            name,
            f"{serial_row.repair_seconds:.3f}",
            f"{warm_row.repair_seconds:.3f}",
            f"{speedup:.2f}x",
            str(len(warm_row.plan)),
        ]

    headers = [
        "Benchmark",
        "repair_s (serial)",
        f"repair_s ({warm_ws.strategy_name})",
        "speedup",
        "plan steps",
    ]
    print(format_table(headers, [fmt(*row) for row in rows]))
    print(_cache_summary(cache))
    if args.json:
        payload = {
            "search": args.search,
            "strategy": warm_ws.strategy_name,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": round(cache.hit_rate, 4),
                "persistent_hits": getattr(cache, "persistent_hits", 0),
                "entries": len(cache),
            },
            "rows": [
                {
                    "name": name,
                    # Counts come from the *warm* (cached-strategy) row,
                    # so cold-vs-warm row comparisons actually exercise
                    # the cached path rather than the serial control.
                    "ec": w.ec,
                    "at": w.at,
                    "repair_seconds_serial": round(s.repair_seconds, 4),
                    "repair_seconds_warm": round(w.repair_seconds, 4),
                    "plan_steps": len(w.plan),
                }
                for name, s, w in rows
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    return 0


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def cmd_serve(args) -> int:
    from repro.api import Workspace, WorkspaceConfig
    from repro.service import serve

    if args.fail:
        from repro import faults

        spec = args.fail
        if os.path.exists(spec):
            with open(spec) as fh:
                spec = fh.read()
        plan = faults.FaultPlan.from_spec(spec)
        # Active in this process (inline runner, store, event streams)
        # and exported so spawned worker processes re-arm it -- crash
        # actions included -- at worker_main boot.
        faults.activate(plan)
        os.environ[faults.ENV_VAR] = plan.to_spec()
        print(
            f"fault plan active: seed {plan.seed}, "
            f"{len(plan.rules)} rule(s)"
        )

    # A server exists to stay warm: the implicit default is the fast
    # auto strategy (no upgrade note needed -- the flags are honoured).
    # An explicit --strategy (serial included) goes through the same
    # contract as every other subcommand, notes included.
    if args.strategy is None:
        strategy = "auto"
    else:
        strategy = _resolved_strategy(args)
    cache_dir = args.cache_dir if strategy != "serial" else None
    # Worker processes get the same recipe the server workspace uses
    # (WorkspaceConfig.for_worker gives each its own cache subdir).
    worker_config = WorkspaceConfig(strategy=strategy, cache_dir=cache_dir)
    tenant_weights = {}
    for spec in args.tenant_weight or []:
        name, sep, weight = spec.partition("=")
        if not sep or not name:
            print(
                f"--tenant-weight wants NAME=W, got {spec!r}",
                file=sys.stderr,
            )
            return 2
        try:
            tenant_weights[name] = float(weight)
        except ValueError:
            print(
                f"--tenant-weight {name}: {weight!r} is not a number",
                file=sys.stderr,
            )
            return 2
    with Workspace(strategy=strategy, cache_dir=cache_dir) as ws:
        serve(
            ws,
            host=args.host,
            port=args.port,
            quiet=args.quiet,
            workers=args.workers,
            worker_config=worker_config,
            job_db=args.job_db,
            max_queue_depth=args.max_queue_depth,
            rate_limit=args.rate_limit,
            max_request_bytes=args.max_request_bytes,
            drain_timeout=args.drain_timeout,
            tenant_weights=tenant_weights,
            max_queued_per_tenant=args.max_queued_per_tenant,
            max_running_per_tenant=args.max_running_per_tenant,
        )
    return 0


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------


def cmd_chaos(args) -> int:
    from repro.service import run_scenario

    if args.scenario == "tenant-isolation":
        report = run_scenario(
            args.scenario,
            seed=args.seed,
            aggressor_jobs=args.aggressor_jobs,
            victim_jobs=args.victim_jobs,
            workers=args.workers,
        )
        print(
            f"tenant isolation seed {report['seed']}: "
            f"{report['aggressor_jobs']} aggressor + "
            f"{report['victim_jobs']} victim jobs, victim p99 "
            f"{report['contended_p99_s']}s vs solo {report['solo_p99_s']}s "
            f"(threshold {report['threshold_s']}s)"
        )
    else:
        report = run_scenario(
            args.scenario,
            seed=args.seed,
            jobs=args.jobs,
            workers=args.workers,
            log_path=args.log,
        )
        fired = report["faults_fired"]
        print(
            f"chaos seed {report['seed']}: {report['jobs_submitted']} jobs, "
            f"{fired} fault(s) fired, "
            f"{report['cache_quarantined']} cache quarantine(s), "
            f"cancel probe -> {report['cancel_status']}"
        )
    for violation in report["violations"]:
        print(f"GATE VIOLATION: {violation}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if report["ok"]:
        print("all gates passed")
        return 0
    return 1


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------


def cmd_schemas(args) -> int:
    from repro.api import check_schemas, dump_schemas

    if args.check:
        problems = check_schemas(args.out)
        if problems:
            for problem in problems:
                print(f"schema drift: {problem}", file=sys.stderr)
            return 1
        print(f"schemas under {args.out} match the live wire types")
        return 0
    written = dump_schemas(args.out)
    print(f"wrote {len(written)} schema documents to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _oracle_flags(parser, strategies=STRATEGIES, default=None) -> None:
    parser.add_argument(
        "--strategy",
        choices=strategies,
        # None = "serial", unless --cache-dir upgrades to "auto"
        # (see repro.api.requested_strategy).
        default=default,
    )
    parser.add_argument("--search", choices=SEARCHES, default="greedy")
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist oracle query outcomes under DIR (warm-starts reruns)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Atropos (PLDI 2021) reproduction: anomaly detection, "
        "plan-based repair, experiment drivers, and the HTTP service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    t1.add_argument(
        "--benchmark",
        action="append",
        default=[],
        help="restrict to one benchmark (repeatable; default: all)",
    )
    _oracle_flags(t1)
    t1.add_argument(
        "--plans", action="store_true", help="print per-row plan provenance"
    )
    t1.add_argument("--json", metavar="FILE", help="also write rows+plans JSON")
    t1.set_defaults(func=cmd_table1)

    rp = sub.add_parser("repair", help="repair one benchmark or DSL file")
    source = rp.add_mutually_exclusive_group(required=True)
    source.add_argument("--benchmark", help="corpus benchmark name")
    source.add_argument("--file", help="path to a DSL program")
    _oracle_flags(rp)
    rp.add_argument(
        "--plan-out", metavar="FILE", help="write the rewrite plan as JSON"
    )
    rp.add_argument(
        "--plan-in",
        metavar="FILE",
        help="replay a saved plan instead of searching (no oracle work)",
    )
    rp.add_argument(
        "--print-program",
        action="store_true",
        help="print the repaired program",
    )
    rp.set_defaults(func=cmd_repair)

    pr = sub.add_parser(
        "protect",
        help="compile a repair plan into live mutation-rewrite rules and "
        "validate them against the static repair (see repro.live)",
    )
    pr.add_argument("--benchmark", required=True, help="corpus benchmark name")
    pr.add_argument(
        "--plan-in",
        metavar="FILE",
        help="compile a saved rewrite plan (default: repair from scratch)",
    )
    pr.add_argument(
        "--samples",
        type=int,
        default=120,
        help="weak-replay schedules per anomaly probe (default: 120)",
    )
    pr.add_argument("--seed", type=int, default=11, help="validation seed")
    pr.add_argument(
        "--scale", type=int, default=2, help="corpus-mix repetitions per txn"
    )
    pr.add_argument(
        "--measure",
        action="store_true",
        help="also measure rewrite overhead on the simulated store",
    )
    pr.add_argument(
        "--clients",
        type=int,
        default=16,
        help="simulated clients for --measure (default: 16)",
    )
    pr.add_argument(
        "--report", metavar="FILE", help="write the full verdict as JSON"
    )
    pr.set_defaults(func=cmd_protect)

    be = sub.add_parser(
        "bench",
        help="time the repair search per benchmark (serial vs a warm strategy)",
    )
    be.add_argument(
        "--benchmark",
        action="append",
        default=[],
        help="restrict to one benchmark (repeatable; default: all)",
    )
    be.add_argument(
        "--corpus",
        choices=("small", "full"),
        default="full",
        help="'small' = the CI smoke subset",
    )
    _oracle_flags(be, strategies=BENCH_STRATEGIES, default="incremental")
    be.add_argument("--json", metavar="FILE", help="write timings as JSON")
    be.set_defaults(func=cmd_bench)

    sv = sub.add_parser(
        "serve",
        help="run the JSON-over-HTTP service (POST /v1/analyze, /v1/repair, "
        "/v1/jobs; GET /v1/health, /v1/stats)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8472)
    sv.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,  # None = "auto": a server exists to stay warm
    )
    sv.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist oracle query outcomes under DIR across restarts",
    )
    sv.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="service worker processes draining the job queue (default: 0 "
        "= run jobs on an in-process thread)",
    )
    sv.add_argument(
        "--job-db",
        metavar="FILE",
        help="sqlite job queue path; jobs in it survive restarts "
        "(default: a private temp file)",
    )
    sv.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="queued jobs admitted before POST /v1/jobs answers 429 "
        "queue-full (default: 64)",
    )
    sv.add_argument(
        "--rate-limit",
        type=float,
        metavar="R",
        help="per-tenant POST requests/second (burst 2R); default: off",
    )
    sv.add_argument(
        "--tenant-weight",
        action="append",
        default=None,
        metavar="NAME=W",
        help="claim-scheduling weight for tenant NAME (repeatable; "
        "unlisted tenants weigh 1.0)",
    )
    sv.add_argument(
        "--max-queued-per-tenant",
        type=int,
        default=None,
        metavar="N",
        help="queued jobs one tenant may hold before its submissions "
        "answer 429 tenant-queue-full (default: off)",
    )
    sv.add_argument(
        "--max-running-per-tenant",
        type=int,
        default=None,
        metavar="N",
        help="jobs one tenant may have running at once across the "
        "worker fleet (default: off)",
    )
    sv.add_argument(
        "--max-request-bytes",
        type=int,
        default=None,
        metavar="N",
        help="request bodies over N bytes answer 413 (default: 1 MiB)",
    )
    sv.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="seconds SIGTERM waits for in-flight jobs before forcing "
        "shutdown (default: 60)",
    )
    sv.add_argument(
        "--fail",
        metavar="SPEC",
        help="activate a fault-injection plan: a JSON plan spec (inline "
        "or a file path; see repro.faults) -- testing only",
    )
    sv.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )
    sv.set_defaults(func=cmd_serve)

    ch = sub.add_parser(
        "chaos",
        help="run one seeded fault-injection experiment against an "
        "in-process service and check the durability gates",
    )
    ch.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed (same seed = same schedule; default: 0)",
    )
    ch.add_argument(
        "--jobs", type=int, default=6,
        help="analyze jobs in the mix, plus one cancel probe (default: 6)",
    )
    ch.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = inline runner; default: 0)",
    )
    # Choices and help both derive from the scenario registry, so a new
    # scenario registered in repro.service.chaos shows up here for free.
    from repro.service.chaos import SCENARIOS, scenario_help

    ch.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="faults",
        help=f"{scenario_help()} (default: faults)",
    )
    ch.add_argument(
        "--aggressor-jobs", type=int, default=50,
        help="flood size for --scenario tenant-isolation (default: 50)",
    )
    ch.add_argument(
        "--victim-jobs", type=int, default=5,
        help="trickle size for --scenario tenant-isolation (default: 5)",
    )
    ch.add_argument(
        "--log", metavar="FILE",
        help="append every fired fault to FILE as NDJSON (survives "
        "worker crashes)",
    )
    ch.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON"
    )
    ch.set_defaults(func=cmd_chaos)

    sc = sub.add_parser(
        "schemas",
        help="dump (or --check) the versioned wire schemas against the "
        "committed schemas/ goldens",
    )
    sc.add_argument(
        "--out", metavar="DIR", default="schemas",
        help="golden directory (default: schemas)",
    )
    sc.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the committed goldens drifted from the code",
    )
    sc.set_defaults(func=cmd_schemas)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
