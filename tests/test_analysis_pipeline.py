"""Analysis pipeline tests: planner shape, memo cache semantics, level
sweeps through ``analyze_levels``, and strategy equivalence against the
serial seed oracle."""

import pytest

from repro.analysis import (
    AnomalyOracle,
    CC,
    EC,
    QueryCache,
    QueryPlanner,
    RR,
    SC,
    summarize_program,
)
from repro.analysis.pipeline import (
    IncrementalStrategy,
    fingerprint_command,
    fingerprint_summary,
    resolve_strategy,
)
from repro.corpus import ALL_BENCHMARKS
from repro.lang import parse_program


def canonical(pairs):
    """Full structural identity of an AccessPair list."""
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


class TestPlanner:
    def test_one_query_per_pair_and_interferer(self, courseware):
        summaries = summarize_program(courseware)
        plan = QueryPlanner().plan(summaries, EC, True)
        n_txns = len(summaries)
        expected_pairs = sum(
            len(s.ordered_pairs()) for s in summaries.values()
        )
        assert len(plan.batches) == expected_pairs
        assert len(plan.queries()) == expected_pairs * n_txns

    def test_cache_keys_ignore_transaction_names(self):
        src = """
        schema T {{ key id; field v; }}
        txn {name}(k) {{
          x := select v from T where id = k;
          update T set v = x.v + 1 where id = k;
        }}
        """
        s1 = summarize_program(parse_program(src.format(name="incr")))
        s2 = summarize_program(parse_program(src.format(name="bump")))
        assert fingerprint_summary(s1["incr"]) == fingerprint_summary(s2["bump"])

    def test_fingerprints_see_structural_change(self):
        base = """
        schema T { key id; field v; field w; }
        txn t(k) { update T set v = 1 where id = k; }
        """
        changed = base.replace("set v = 1", "set w = 1")
        c1 = summarize_program(parse_program(base))["t"].commands[0]
        c2 = summarize_program(parse_program(changed))["t"].commands[0]
        assert fingerprint_command(c1) != fingerprint_command(c2)


class TestQueryCache:
    def test_identical_requery_hits(self, courseware):
        cache = QueryCache()
        oracle = AnomalyOracle(EC, strategy="incremental", cache=cache)
        first = oracle.analyze(courseware)
        second = oracle.analyze(courseware)
        assert first.cache_hits == 0
        assert second.cache_misses == 0
        assert second.cache_hits == first.cache_misses
        assert canonical(first.pairs) == canonical(second.pairs)

    def test_touched_transactions_miss_untouched_hit(self):
        """A merge-style rewrite of one transaction must invalidate only
        the queries that mention it."""
        base = """
        schema A { key id; field x; field y; }
        txn writer(k) {
          update A set x = 1 where id = k;
          update A set y = 2 where id = k;
        }
        txn reader(k) {
          p := select x from A where id = k;
          q := select y from A where id = k;
          return p.x + q.y;
        }
        """
        # The merged variant of `writer` (one combined update): its
        # summaries fingerprint differently, reader's stay identical.
        merged = """
        schema A { key id; field x; field y; }
        txn writer(k) {
          update A set x = 1, y = 2 where id = k;
        }
        txn reader(k) {
          p := select x from A where id = k;
          q := select y from A where id = k;
          return p.x + q.y;
        }
        """
        cache = QueryCache()
        oracle = AnomalyOracle(EC, strategy="incremental", cache=cache)
        oracle.analyze(parse_program(base))
        report = oracle.analyze(parse_program(merged))
        # reader-vs-reader queries are untouched by the rewrite and hit;
        # anything involving the rewritten writer misses.
        assert report.cache_hits > 0
        assert report.cache_misses > 0
        summaries = summarize_program(parse_program(merged))
        reader_pairs = len(summaries["reader"].ordered_pairs())
        assert report.cache_hits == reader_pairs  # (reader, c1, c2) vs reader

    def test_explicit_invalidation(self, courseware):
        cache = QueryCache()
        oracle = AnomalyOracle(EC, strategy="incremental", cache=cache)
        oracle.analyze(courseware)
        assert len(cache) > 0
        dropped = cache.invalidate(txns={"regSt"})
        assert dropped > 0
        report = oracle.analyze(courseware)
        assert report.cache_misses == dropped

    def test_invalidate_by_table(self, courseware):
        cache = QueryCache()
        AnomalyOracle(EC, strategy="incremental", cache=cache).analyze(courseware)
        populated = len(cache)
        assert populated > 0
        # Every courseware query touches STUDENT, EMAIL, or COURSE.
        dropped = cache.invalidate(tables={"STUDENT", "EMAIL", "COURSE"})
        assert dropped == populated
        assert len(cache) == 0
        assert cache.invalidate(tables={"STUDENT"}) == 0  # already empty

    def test_ec_unsat_reused_at_stronger_levels(self):
        src = """
        schema T { key id; field v; }
        txn r1(k) { x := select v from T where id = k; return x.v; }
        txn r2(k) {
          x := select v from T where id = k;
          y := select v from T where id = k;
          return x.v + y.v;
        }
        """
        program = parse_program(src)
        cache = QueryCache()
        ec = AnomalyOracle(EC, strategy="incremental", cache=cache).analyze(program)
        assert ec.pairs == []  # read-only program: every query is UNSAT
        rr = AnomalyOracle(RR, strategy="incremental", cache=cache).analyze(program)
        assert rr.cache_misses == 0
        assert rr.pairs == []


class TestStrategyEquivalence:
    @pytest.mark.parametrize("level", [EC, CC, RR])
    def test_cached_matches_serial(self, courseware, level):
        """The deprecated ``"cached"`` name still gives serial's pairs."""
        serial = AnomalyOracle(level).analyze(courseware)
        cached = AnomalyOracle(level, strategy="cached").analyze(courseware)
        assert canonical(serial.pairs) == canonical(cached.pairs)
        assert serial.pairs_checked == cached.pairs_checked
        assert cached.strategy == "incremental"

    def test_parallel_matches_serial(self, courseware):
        """The deprecated ``"parallel"`` name still gives serial's pairs."""
        serial = AnomalyOracle(EC).analyze(courseware)
        oracle = AnomalyOracle(EC, strategy="parallel")
        try:
            parallel = oracle.analyze(courseware)
        finally:
            oracle.close()
        assert canonical(serial.pairs) == canonical(parallel.pairs)

    def test_prefilter_knob_is_result_neutral(self, courseware):
        with_screen = AnomalyOracle(
            EC, use_prefilter=True, strategy="incremental"
        ).analyze(courseware)
        without = AnomalyOracle(
            EC, use_prefilter=False, strategy="incremental"
        ).analyze(courseware)
        assert canonical(with_screen.pairs) == canonical(without.pairs)

    def test_report_carries_execution_metadata(self, courseware):
        report = AnomalyOracle(EC, strategy="incremental").analyze(courseware)
        assert report.strategy == "incremental"
        assert report.cache_misses > 0
        assert report.solver_stats.get("propagations", 0) > 0
        assert report.queries_per_second >= 0


class TestStrategyResolution:
    def test_names_resolve(self):
        for name in (
            None,
            "incremental",
            "auto",
            "cached",
            "parallel",
            "parallel-incremental",
            "parallel_incremental",
        ):
            strategy = resolve_strategy(name)
            assert isinstance(strategy, IncrementalStrategy), name
            strategy.close()

    def test_instance_passthrough(self):
        runner = IncrementalStrategy()
        assert resolve_strategy(runner) is runner

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_strategy("warp-speed")

    def test_single_worker_parallel_degrades_in_process(self, courseware):
        oracle = AnomalyOracle(EC, strategy="parallel")
        report = oracle.analyze(courseware)
        assert isinstance(oracle._pipeline.strategy, IncrementalStrategy)
        assert len(report.pairs) == 5


class TestRepairEngineIntegration:
    def test_repair_reuses_cache_across_reanalyses(self, courseware):
        from repro.repair.engine import RepairEngine

        cache = QueryCache()
        serial = RepairEngine().repair(courseware)
        cached = RepairEngine(strategy="incremental", cache=cache).repair(courseware)
        assert canonical(serial.initial_pairs) == canonical(cached.initial_pairs)
        assert canonical(serial.residual_pairs) == canonical(
            cached.residual_pairs
        )
        assert [o.action for o in serial.outcomes] == [
            o.action for o in cached.outcomes
        ]
        assert cache.hits > 0  # the fixpoint re-analyses hit the memo


class TestLevelSweeps:
    """``analyze_levels`` -- one warm sweep per focus triple -- against
    one serial ``analyze`` per level, corpus-wide."""

    LEVELS = (EC, CC, RR, SC)

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
    def test_sweep_matches_serial_per_level(self, bench):
        program = bench.program()
        oracle = AnomalyOracle(EC, strategy="incremental")
        try:
            swept = oracle.analyze_levels(program, self.LEVELS)
        finally:
            oracle.close()
        assert [r.level for r in swept] == [level.name for level in self.LEVELS]
        for level, report in zip(self.LEVELS, swept):
            serial = AnomalyOracle(level).analyze(program)
            assert report.pairs_checked == serial.pairs_checked
            # Pair keys and interferers pin every query's verdict.  Field
            # sets above EC may come from another model of the same
            # encoding (warm model reuse across the sweep's levels).
            assert [(p.key(), p.interferers) for p in report.pairs] == [
                (p.key(), p.interferers) for p in serial.pairs
            ], level.name
            if level is EC:
                assert canonical(report.pairs) == canonical(serial.pairs)
