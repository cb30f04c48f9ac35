"""Measured cost of live rule enforcement in the workload simulator.

The static repair's performance claim is made by
:func:`repro.repair.search.simulated_throughput_probe`: migrate, flag
the residually anomalous transactions serializable (AT-SC), simulate
one closed-loop point.  Live enforcement promises the same semantics
without redeploying the application, but it is not free -- every
operation pays a rule lookup, executed live operations pay binding
translation, and merge-partner issuances that execute nothing still pay
the lookup.  This module prices that machinery into the simulator
through the :class:`~repro.store.runner.OpRewriter` hook and reports
measured live throughput against the probe's prediction, so the
``BENCH_live.json`` regression gate can catch the interception layer
getting more expensive.

The live operation stream per transaction is obtained by profiling the
rule set's target (pre-postprocess repaired) program: in a serial run
the interceptor executes exactly that program's database commands, one
per issuance, so its op profile *is* the live profile.  The skip rate
(lookups that execute nothing) is calibrated by one interceptor-driven
serial run over the same sample calls, reading the rule counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.oracle import AnomalyOracle
from repro.corpus import Benchmark
from repro.live.compile import compile_plan
from repro.live.intercept import LiveInterceptor
from repro.live.rules import RuleSet
from repro.refactor.migrate import migrate_database
from repro.repair import repair
from repro.repair.engine import replay_plan
from repro.repair.plan import RewritePlan
from repro.repair.search import simulated_throughput_probe
from repro.semantics.scheduler import run_serial
from repro.store.network import US_CLUSTER, ClusterSpec
from repro.store.profile import OpProfile, profile_program, sample_calls_for
from repro.store.runner import OpRewriter, PerfConfig, simulate


@dataclass(frozen=True)
class OverheadModel:
    """Per-mechanism interception costs, in milliseconds."""

    #: Added to every live operation's service time: rule lookup plus
    #: binding translation on the issuing replica.
    op_overhead_ms: float = 0.05
    #: Cost of an issuance that executes nothing (a merge partner whose
    #: shared live command already ran): lookup only, charged client-side
    #: at commit.
    skip_overhead_ms: float = 0.01


class LiveOpRewriter(OpRewriter):
    """Swaps each transaction's op stream for its live enforcement.

    Built once per rule set by :func:`build_rewriter`; ``rewrite`` is a
    dictionary lookup, keeping the simulator's inner loop cheap.
    Transactions without a live profile (not in the plan's program) pass
    through unchanged.
    """

    def __init__(
        self,
        live_ops: Dict[str, Tuple[Tuple[str, str, float], ...]],
        commit_extra_ms: Dict[str, float],
    ):
        self.live_ops = live_ops
        self.commit_extra_ms = commit_extra_ms

    def rewrite(self, profile: OpProfile) -> Tuple[Sequence[Tuple], float]:
        ops = self.live_ops.get(profile.txn, profile.ops)
        return ops, self.commit_extra_ms.get(profile.txn, 0.0)


def build_rewriter(
    bench: Benchmark,
    ruleset: RuleSet,
    *,
    scale: int = 8,
    seed: int = 7,
    overhead: Optional[OverheadModel] = None,
) -> LiveOpRewriter:
    """Price a rule set's enforcement into a :class:`LiveOpRewriter`."""
    overhead = overhead or OverheadModel()
    rng = random.Random(seed)
    db = bench.database(scale)
    calls = sample_calls_for(bench, rng, scale)
    live_db = migrate_database(db, ruleset.live_program, ruleset.rewrites)
    live_profiles = profile_program(ruleset.live_program, live_db, calls)

    # Calibrate skip rates: one serial pass through the interceptor,
    # then read how many issuances executed nothing per transaction
    # (sample_calls_for yields exactly one call per transaction).
    ruleset.reset_counters()
    run_serial(
        ruleset.original_program,
        live_db,
        list(calls.values()),
        executor=LiveInterceptor(ruleset),
    )
    skips_per_txn: Dict[str, int] = {}
    for rule in ruleset.rules.values():
        skips_per_txn[rule.match.txn] = (
            skips_per_txn.get(rule.match.txn, 0) + rule.skips
        )
    ruleset.reset_counters()

    live_ops = {
        name: tuple(
            (kind, table, overhead.op_overhead_ms)
            for kind, table in profile.ops
        )
        for name, profile in live_profiles.items()
    }
    commit_extra = {
        name: skips_per_txn.get(name, 0) * overhead.skip_overhead_ms
        for name in live_profiles
    }
    return LiveOpRewriter(live_ops, commit_extra)


@dataclass(frozen=True)
class OverheadMeasurement:
    """One benchmark's predicted-vs-live simulation point."""

    benchmark: str
    clients: int
    scale: int
    seed: int
    predicted_throughput: float
    live_throughput: float
    live_avg_latency_ms: float
    live_p95_latency_ms: float
    rules: int
    rewritten_rules: int
    unsupported: int

    @property
    def overhead_ratio(self) -> float:
        """Predicted (static AT-SC) over measured live throughput; 1.0
        means enforcement is free, larger means slower."""
        if self.live_throughput <= 0:
            return float("inf")
        return self.predicted_throughput / self.live_throughput

    def to_json(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "clients": self.clients,
            "scale": self.scale,
            "seed": self.seed,
            "predicted_throughput": round(self.predicted_throughput, 3),
            "live_throughput": round(self.live_throughput, 3),
            "overhead_ratio": round(self.overhead_ratio, 4),
            "live_avg_latency_ms": round(self.live_avg_latency_ms, 4),
            "live_p95_latency_ms": round(self.live_p95_latency_ms, 4),
            "rules": self.rules,
            "rewritten_rules": self.rewritten_rules,
            "unsupported": self.unsupported,
        }


def measure_overhead(
    bench: Benchmark,
    *,
    plan: Optional[RewritePlan] = None,
    cluster: Optional[ClusterSpec] = None,
    config: Optional[PerfConfig] = None,
    clients: int = 16,
    scale: int = 8,
    seed: int = 7,
    overhead: Optional[OverheadModel] = None,
) -> OverheadMeasurement:
    """Predicted (probe) vs measured (rules installed) throughput.

    Both sides use identical cluster, client count, sample calls and
    seeds; the live side issues the original transactions' profiles and
    lets the rewriter swap in the enforced op streams with their
    surcharges, mirroring how a running store would experience a
    ``protect`` rollout.  Fully deterministic for fixed arguments.

    ``plan`` defaults to the benchmark's own greedy repair; a given plan
    is replayed instead, as
    :func:`~repro.live.validate.validate_benchmark` does.  Its residual
    pairs are what the seed oracle finds in the replayed program -- the
    pairs the repair search reports for the plan it found.
    """
    cluster = cluster or US_CLUSTER
    program = bench.program()
    if plan is None:
        report = repair(program)
        residual = report.residual_pairs
    else:
        report = replay_plan(program, plan)
        residual = AnomalyOracle().analyze(report.repaired_program).pairs
    ruleset = compile_plan(program, report.plan)

    probe = simulated_throughput_probe(
        bench, cluster, config, clients=clients, scale=scale, seed=seed
    )
    predicted = probe(report.repaired_program, residual, report.rewrites)

    # The live store still runs the *original* application; residual
    # anomalies survive the repair either way, so the same transactions
    # get the serializable flag as in the probe's AT-SC configuration.
    flagged = {p.txn for p in residual}
    txns = tuple(
        dc_replace(t, serializable=True) if t.name in flagged else t
        for t in program.transactions
    )
    at_program = dc_replace(program, transactions=txns)
    rng = random.Random(seed)
    db = bench.database(scale)
    calls = sample_calls_for(bench, rng, scale)
    profiles = profile_program(at_program, db, calls)
    rewriter = build_rewriter(
        bench, ruleset, scale=scale, seed=seed, overhead=overhead
    )
    mix = [(name, weight) for name, weight, _ in bench.mix]
    live = simulate(profiles, mix, cluster, clients, config, rewriter=rewriter)

    return OverheadMeasurement(
        benchmark=bench.name,
        clients=clients,
        scale=scale,
        seed=seed,
        predicted_throughput=predicted,
        live_throughput=live.throughput,
        live_avg_latency_ms=live.avg_latency_ms,
        live_p95_latency_ms=live.percentile_latency_ms(0.95),
        rules=len(ruleset.rules),
        rewritten_rules=ruleset.rewritten_rule_count(),
        unsupported=len(ruleset.unsupported),
    )
