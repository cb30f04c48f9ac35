"""The retired pooled strategy names on the single in-process path.

``"parallel"``, ``"parallel-incremental"`` and ``"auto"`` once sent the
oracle's queries to worker processes.  They now resolve to the
in-process :class:`IncrementalStrategy`; these tests pin that, and that
everything the pooled runners were checked for still holds through the
names: verdicts equal to the cold ``solve_query`` for every corpus
program, pair, interferer and anomaly mode (EC/CC/RR/SC), reports equal
to the serial seed oracle, batched ``analyze_many`` and level sweeps
equal to their one-at-a-time forms, and one warm session per triple.
"""

import pytest

from repro.analysis import (
    CC,
    EC,
    RR,
    SC,
    AnomalyOracle,
    summarize_program,
)
from repro.analysis.pipeline import (
    IncrementalStrategy,
    QueryPlanner,
    resolve_strategy,
    solve_query,
)
from repro.corpus import ALL_BENCHMARKS, BY_NAME

ALL_LEVELS = (EC, CC, RR, SC)


def canonical(pairs):
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


class TestDifferential:
    """A pooled name's strategy against the cold solver, corpus-wide,
    all levels, one ``run_levels`` call per level."""

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
    def test_all_pairs_all_modes(self, bench):
        summaries = summarize_program(bench.program())
        planner = QueryPlanner()
        strategy = resolve_strategy("parallel-incremental")
        cold_memo = {}
        checked = 0
        try:
            for level in ALL_LEVELS:
                specs = planner.plan(summaries, level, True).queries()
                swept = strategy.run_levels(specs, [(level,)] * len(specs), True)
                assert len(swept) == len(specs)
                for spec, (outcome,) in zip(specs, swept):
                    if spec.cache_key not in cold_memo:
                        cold_memo[spec.cache_key] = solve_query(
                            spec.c1, spec.c2, spec.summary_b, level, True
                        )
                    cold = cold_memo[spec.cache_key]
                    checked += 1
                    # Hard gate: verdicts agree on every pair x mode.
                    assert (cold.witness is None) == (
                        outcome.witness is None
                    ), (
                        bench.name, level.name, spec.a_name,
                        spec.c1.label, spec.c2.label, spec.summary_b.name,
                    )
                    if level is EC and outcome.witness is not None:
                        # A session's first EC solve is virgin and
                        # bit-identical to cold; EC re-queries reuse the
                        # remembered model, whose witness is that one.
                        assert outcome.witness == cold.witness, (
                            bench.name, spec.a_name,
                            spec.c1.label, spec.c2.label,
                        )
        finally:
            strategy.close()
        assert checked > 0


class TestReportEquivalence:
    @pytest.mark.parametrize("name", ["Courseware", "SmallBank", "TPC-C"])
    def test_identical_pairs_vs_serial(self, name):
        program = BY_NAME[name].program()
        serial = AnomalyOracle(EC).analyze(program)
        oracle = AnomalyOracle(EC, strategy="parallel-incremental")
        try:
            report = oracle.analyze(program)
        finally:
            oracle.close()
        assert canonical(serial.pairs) == canonical(report.pairs)
        assert serial.pairs_checked == report.pairs_checked
        assert report.strategy == "incremental"

    def test_analyze_many_matches_per_program_analyze(self, courseware):
        """Regression: batched specs from several plans carry colliding
        plan-local indexes; results must land on the right specs."""
        from repro.repair.engine import repair

        repaired = repair(courseware).repaired_program
        for strategy in ("parallel-incremental", "parallel", "cached"):
            oracle = AnomalyOracle(EC, strategy=strategy)
            try:
                batched = oracle.analyze_many([courseware, repaired])
            finally:
                oracle.close()
            for program, report in zip([courseware, repaired], batched):
                solo = AnomalyOracle(EC).analyze(program)
                assert canonical(solo.pairs) == canonical(report.pairs)

    def test_serial_oracle_analyze_many(self, courseware):
        oracle = AnomalyOracle(EC)
        reports = oracle.analyze_many([courseware, courseware])
        solo = oracle.analyze(courseware)
        for report in reports:
            assert canonical(report.pairs) == canonical(solo.pairs)


class TestShardAffinity:
    """What shard affinity bought the pool -- a triple's level sweeps
    all land on one warm solver -- holds trivially in one process."""

    def test_sessions_never_rebuilt_cold_twice(self, courseware):
        strategy = resolve_strategy("parallel-incremental")
        summaries = summarize_program(courseware)
        planner = QueryPlanner()
        total_specs = 0
        try:
            for level in ALL_LEVELS:
                specs = planner.plan(summaries, level, True).queries()
                total_specs += len(specs)
                strategy.run_levels(specs, [(level,)] * len(specs), True)
            counters = strategy.pool.counters()
        finally:
            strategy.close()
        triples = {
            spec.cache_key[:3]
            for spec in planner.plan(summaries, EC, True).queries()
        }
        # One session per distinct triple, ever -- the later level
        # sweeps only reuse; every spec still got answered.
        assert counters["created"] == len(triples)
        assert counters["reused"] == total_specs - len(triples)
        assert counters["queries"] == total_specs


class TestWorkStealing:
    """The level sweeps the work-stealing scheduler used to carry."""

    def test_run_levels_sweep_matches_cold_verdicts(self, courseware):
        summaries = summarize_program(courseware)
        specs = QueryPlanner().plan(summaries, EC, True).queries()
        sweep = [(EC, CC, RR) for _ in specs]
        strategy = resolve_strategy("parallel-incremental")
        try:
            swept = strategy.run_levels(specs, sweep, True)
        finally:
            strategy.close()
        assert len(swept) == len(specs)
        for spec, outs in zip(specs, swept):
            assert len(outs) == 3
            for level, outcome in zip((EC, CC, RR), outs):
                cold = solve_query(
                    spec.c1, spec.c2, spec.summary_b, level, True
                )
                assert (cold.witness is None) == (outcome.witness is None)
                if level is EC and outcome.witness is not None:
                    # The first EC solve of a virgin session matches the
                    # cold solver bit for bit.
                    assert outcome.witness == cold.witness

    def test_run_levels_degrades_in_process(self, courseware):
        summaries = summarize_program(courseware)
        specs = QueryPlanner().plan(summaries, EC, True).queries()
        sweep = [(EC, CC) for _ in specs]
        strategy = resolve_strategy("parallel-incremental")
        try:
            assert isinstance(strategy, IncrementalStrategy)
            swept = strategy.run_levels(specs, sweep, True)
        finally:
            strategy.close()
        assert len(swept) == len(specs)
        assert all(len(outs) == 2 for outs in swept)


class TestDegradation:
    def test_single_worker_runs_in_process(self, courseware):
        oracle = AnomalyOracle(EC, strategy="parallel-incremental")
        try:
            report = oracle.analyze(courseware)
            strategy = oracle._pipeline.strategy
            assert isinstance(strategy, IncrementalStrategy)
            assert report.strategy == "incremental"
            assert len(report.pairs) == 5
            assert strategy.pool.counters()["created"] > 0
        finally:
            oracle.close()


class TestStrategyResolutionUpdates:
    def test_parallel_incremental_names_resolve(self):
        for name in ("parallel-incremental", "parallel_incremental", "parallel"):
            strategy = resolve_strategy(name)
            assert isinstance(strategy, IncrementalStrategy)
            strategy.close()

    def test_auto_choice_recorded_in_report(self, courseware):
        oracle = AnomalyOracle(EC, strategy="auto")
        try:
            report = oracle.analyze(courseware)
        finally:
            oracle.close()
        assert report.strategy == "incremental"


class TestBeamFanOut:
    def test_beam_search_identical_across_strategies(self, courseware):
        from repro.repair.engine import repair

        def signature(report):
            return (
                [step.kind for step in report.plan],
                canonical(report.initial_pairs),
                canonical(report.residual_pairs),
                [o.action for o in report.outcomes],
            )

        serial = repair(courseware, search="beam", width=3)
        fanned = repair(courseware, strategy="auto", search="beam", width=3)
        assert signature(serial) == signature(fanned)

    def test_evaluate_many_matches_evaluate(self, courseware):
        from repro.repair.engine import repair
        from repro.repair.plan import PlanContext
        from repro.repair.search import CostModel

        repaired = repair(courseware).repaired_program
        model = CostModel()
        oracle = AnomalyOracle(EC, strategy="incremental")
        try:
            items = [
                (courseware, PlanContext()),
                (repaired, PlanContext()),
            ]
            batched = model.evaluate_many(items, oracle)
            for (program, ctx), (cost, pairs) in zip(items, batched):
                solo_cost, solo_pairs = model.evaluate(program, ctx, oracle)
                assert solo_cost == cost
                assert canonical(solo_pairs) == canonical(pairs)
        finally:
            oracle.close()
