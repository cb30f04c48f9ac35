"""Incremental oracle sessions: differential equivalence against the
cold solver, activation-group stress, and session lifecycle.

The differential class is the oracle's acceptance gate: for every corpus
program, every focus pair x interferer, and every anomaly mode
(EC/CC/RR/SC), the verdict of the warm :class:`IncrementalStrategy`
(its :class:`OracleSession` pool) must equal the cold ``solve_query``
verdict.  Witnesses must match exactly at EC (the level the repair loop
consumes -- a session's first query runs on a virgin solver and is
bit-identical to cold); at warmer levels the retained learned clauses
may legitimately steer the solver to a *different* model of the same
encoding, so any witness that differs from the cold one is validated
semantically: the incremental model must satisfy the cold encoding
(alias transitivity + the level's axioms + some violation disjunct),
i.e. a cold solver pinned to that model would accept it and report
exactly that witness.
"""

import random

import pytest

from repro.analysis import CC, EC, RR, SC, OracleSession, summarize_program
from repro.analysis.encoding import PairSession
from repro.analysis.pipeline import IncrementalStrategy, QueryPlanner, solve_query
from repro.corpus import ALL_BENCHMARKS, BY_NAME
from repro.errors import SolverError
from repro.smt.formula import And, FormulaBuilder, Or, evaluate
from repro.smt.solver import Solver, lit, stats_delta

ALL_LEVELS = (EC, CC, RR, SC)


class TestDifferential:
    """The incremental strategy against the cold solver, corpus-wide,
    one ``run_levels`` call per query."""

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
    def test_all_pairs_all_modes(self, bench):
        summaries = summarize_program(bench.program())
        strategy = IncrementalStrategy()
        pool = strategy.pool
        planner = QueryPlanner()
        cold_memo = {}
        checked = 0
        for level in ALL_LEVELS:
            plan = planner.plan(summaries, level, True)
            for spec in plan.queries():
                if spec.cache_key in cold_memo:
                    cold = cold_memo[spec.cache_key]
                else:
                    cold = solve_query(
                        spec.c1, spec.c2, spec.summary_b, level, True
                    )
                    cold_memo[spec.cache_key] = cold
                session_key = spec.cache_key[:3] + (True,)
                ((warm,),) = strategy.run_levels([spec], [[level]], True)
                checked += 1
                # Hard gate: verdicts agree on every pair x mode.
                assert (cold.witness is None) == (warm.witness is None), (
                    bench.name, level.name, spec.a_name,
                    spec.c1.label, spec.c2.label, spec.summary_b.name,
                )
                if warm.witness is None:
                    continue
                if level is EC:
                    # Virgin-session solve: bit-identical to cold.
                    assert warm.witness == cold.witness, (
                        bench.name, spec.a_name, spec.c1.label, spec.c2.label,
                    )
                elif warm.witness != cold.witness:
                    self._assert_witness_realizable(
                        spec, level, pool, session_key, warm.witness
                    )
        assert checked > 0

    @staticmethod
    def _assert_witness_realizable(spec, level, pool, session_key, witness):
        """The incremental model behind a diverging witness must satisfy
        the cold encoding of the query, and imply exactly that witness."""
        session = pool.session(spec.c1, spec.c2, spec.summary_b, key=session_key)
        model = session._reusable_model(level)
        if model is None:
            model = session._models[-1]
        encoder = session._encoder
        assert encoder.transitivity_holds(model)
        assert encoder.model_satisfies(level, model)
        implicated = [
            d for d in session._disjuncts if evaluate(d.formula, model)
        ]
        assert implicated, "diverging witness must come from a genuine model"
        fields1 = frozenset().union(*(d.fields1 for d in implicated))
        fields2 = frozenset().union(*(d.fields2 for d in implicated))
        assert witness.fields1 == fields1 and witness.fields2 == fields2


class TestBatchedSweeps:
    """``solve_batch``/``query_batch``: one warm assumption sweep per
    triple, same verdicts as back-to-back per-level queries."""

    @pytest.mark.parametrize("name", ["Courseware", "SmallBank"])
    def test_solve_batch_matches_sequential(self, name):
        summaries = summarize_program(BY_NAME[name].program())
        specs = QueryPlanner().plan(summaries, EC, True).queries()
        seq_pool = OracleSession()
        batch_pool = OracleSession()
        levels = list(ALL_LEVELS)
        for spec in specs:
            key = spec.cache_key[:3] + (True,)
            seq = [
                seq_pool.solve_batch(
                    spec.c1, spec.c2, spec.summary_b, [level], key=key
                )[0]
                for level in levels
            ]
            batch = batch_pool.solve_batch(
                spec.c1, spec.c2, spec.summary_b, levels, key=key
            )
            assert len(batch) == len(levels)
            for level, s, b in zip(levels, seq, batch):
                # Verdicts agree on every level; EC comes first in both
                # schedules, so its witness is bit-identical.  Later
                # levels may reuse different remembered models (the
                # batch screens before solving), which shifts witness
                # fields but never the verdict.
                assert (s.witness is None) == (b.witness is None), (
                    name, level.name, spec.a_name,
                    spec.c1.label, spec.c2.label,
                )
                assert s.solved == b.solved
                if level is EC:
                    assert s.witness == b.witness
        assert seq_pool.counters()["queries"] == (
            batch_pool.counters()["queries"]
        )

    def test_query_batch_counts_and_prefilter(self):
        summaries = summarize_program(BY_NAME["Courseware"].program())
        # Find a triple with no disjuncts to exercise the screen path.
        empty = None
        for summary in summaries.values():
            for c1, c2 in summary.ordered_pairs():
                for other in summaries.values():
                    session = PairSession(c1, c2, other)
                    session._ensure_warm()
                    if not session._disjuncts:
                        empty = (c1, c2, other)
                        break
                if empty:
                    break
            if empty:
                break
        if empty is None:
            pytest.skip("corpus pair with empty disjuncts not found")
        c1, c2, other = empty
        session = PairSession(c1, c2, other)
        results = session.query_batch([EC, CC], use_prefilter=True)
        assert [(w, s) for w, s, _ in results] == [(None, False)] * 2
        assert session.queries == 2
        results = session.query_batch([EC, CC], use_prefilter=False)
        assert [(w, s) for w, s, _ in results] == [(None, True)] * 2
        assert session.queries == 4

    def test_query_batch_model_reuse_screen(self):
        summaries = summarize_program(BY_NAME["SmallBank"].program())
        specs = QueryPlanner().plan(summaries, EC, True).queries()
        pool = OracleSession()
        hit = False
        for spec in specs:
            key = spec.cache_key[:3] + (True,)
            first = pool.solve_batch(
                spec.c1, spec.c2, spec.summary_b, [EC], key=key
            )[0]
            if first.witness is None:
                continue
            before = pool.counters()["model_hits"]
            again = pool.solve_batch(
                spec.c1, spec.c2, spec.summary_b, [EC], key=key
            )[0]
            assert again.witness == first.witness
            assert pool.counters()["model_hits"] == before + 1
            hit = True
            break
        assert hit, "corpus has no SAT EC pair"


class TestActivationGroupStress:
    """Randomized add/retire/solve stress for the activation-literal
    machinery: the incremental solver must agree with a fresh solver
    built from only the currently active clauses."""

    N_VARS = 12

    def _reference_verdict(self, n_vars, permanent, groups, active, retired):
        if any(g in retired for g in active):
            return False
        solver = Solver()
        for _ in range(n_vars):
            solver.new_var()
        for clause in permanent:
            solver.add_clause(list(clause))
        for g in active:
            for clause in groups[g]:
                solver.add_clause(list(clause))
        return solver.solve().sat

    def test_randomized_add_retire(self):
        rng = random.Random(20260729)
        for trial in range(25):
            solver = Solver()
            variables = [solver.new_var() for _ in range(self.N_VARS)]
            permanent = []
            groups = {}
            group_clauses = {}
            retired = set()

            def random_clause():
                width = rng.randint(1, 3)
                chosen = rng.sample(variables, width)
                return tuple(lit(v, rng.random() < 0.5) for v in chosen)

            for step in range(60):
                action = rng.random()
                if action < 0.25 and len(groups) < 6:
                    gid = solver.new_group()
                    groups[gid] = gid
                    group_clauses[gid] = []
                elif action < 0.55 and group_clauses:
                    gid = rng.choice(sorted(group_clauses))
                    clause = random_clause()
                    solver.add_clause(list(clause), group=gid)
                    if gid not in retired:
                        # Clauses added to a retired group are no-ops.
                        group_clauses[gid].append(clause)
                elif action < 0.7:
                    clause = random_clause()
                    # Keep the permanent core satisfiable-ish: skip the
                    # add if a fresh check says it would go UNSAT.
                    probe = Solver()
                    for _ in range(self.N_VARS):
                        probe.new_var()
                    for c in permanent + [clause]:
                        probe.add_clause(list(c))
                    if probe.solve().sat:
                        solver.add_clause(list(clause))
                        permanent.append(clause)
                elif action < 0.8 and group_clauses:
                    gid = rng.choice(sorted(group_clauses))
                    solver.retire_group(gid)
                    retired.add(gid)
                else:
                    live = sorted(set(group_clauses) - retired)
                    k = rng.randint(0, len(live)) if live else 0
                    active = rng.sample(live, k) if k else []
                    expected = self._reference_verdict(
                        self.N_VARS, permanent, group_clauses, active, retired
                    )
                    got = solver.solve(
                        [solver.group_literal(g) for g in active]
                    ).sat
                    assert got == expected, (trial, step, active)

    def test_retired_group_is_inert(self):
        solver = Solver()
        a = solver.new_var()
        g = solver.new_group()
        solver.add_clause([lit(a)], group=g)
        assert not solver.solve([solver.group_literal(g), lit(a, False)]).sat
        solver.retire_group(g)
        assert solver.is_retired(g)
        # Without the group the old constraint is gone...
        assert solver.solve([lit(a, False)]).sat
        # ...and re-activating a retired group is vacuously UNSAT.
        assert not solver.solve([solver.group_literal(g)]).sat
        # Adding to a retired group is a no-op.
        solver.add_clause([lit(a)], group=g)
        assert solver.solve([lit(a, False)]).sat

    def test_unknown_group_rejected(self):
        solver = Solver()
        v = solver.new_var()
        with pytest.raises(SolverError):
            solver.add_clause([lit(v)], group=v + 17)
        with pytest.raises(SolverError):
            solver.retire_group(v + 17)


class TestIncrementalSolverState:
    """Clause addition after solve() and stats snapshot semantics."""

    def test_add_clause_after_solve(self):
        solver = Solver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([lit(a), lit(b)])
        assert solver.solve().sat
        solver.add_clause([lit(c)])
        result = solver.solve()
        assert result.sat and result.value(c)
        solver.add_clause([lit(a, False)])
        solver.add_clause([lit(b, False)])
        assert not solver.solve().sat

    def test_stats_snapshot_and_delta(self):
        solver = Solver()
        vs = [solver.new_var() for _ in range(6)]
        for i in range(5):
            solver.add_clause([lit(vs[i]), lit(vs[i + 1])])
        before = solver.stats()
        assert solver.solve().sat
        after = solver.stats()
        delta = stats_delta(after, before)
        assert delta["decisions"] == after["decisions"] - before["decisions"]
        # Snapshots are copies: mutating one does not corrupt the solver.
        after["decisions"] = -1
        assert solver.stats()["decisions"] >= 0

    def test_learned_clauses_survive_queries(self):
        builder = FormulaBuilder(fold_constants=True)
        xs = [builder.var(f"x{i}") for i in range(5)]
        # Pigeon-ish core that forces conflicts.
        builder.add(Or(xs[0], xs[1]))
        builder.add(Or(~xs[0], xs[2]))
        builder.add(Or(~xs[1], xs[2]))
        builder.add(Or(~xs[2], xs[3]))
        builder.add(Or(~xs[3], ~xs[0]) & Or(~xs[3], ~xs[1]) | xs[4])
        assert builder.check() is not None
        learned_before = len(builder.solver.learned)
        assert builder.check() is not None
        # Re-solving does not reset the learned database.
        assert len(builder.solver.learned) >= learned_before


class TestBuilderGroups:
    def test_group_scoped_assertions(self):
        builder = FormulaBuilder(fold_constants=True)
        x = builder.var("x")
        g = builder.new_group()
        with builder.group(g):
            builder.add(~x)
        assert builder.check(groups=[g])["x"] is False
        builder.add(x)
        # Group off: consistent.  Group on: contradiction.
        assert builder.check() is not None
        assert builder.check(groups=[g]) is None
        builder.retire_group(g)
        assert builder.check() is not None
        with pytest.raises(SolverError):
            builder.check(groups=[g])

    def test_groups_require_folding_pass(self):
        with pytest.raises(SolverError):
            FormulaBuilder().new_group()

    def test_hash_consing_emits_shared_subformula_once(self):
        builder = FormulaBuilder(fold_constants=True)
        x, y, z = builder.var("x"), builder.var("y"), builder.var("z")
        shared = And(x, y)
        before = builder.solver.num_vars
        builder.add(Or(shared, z))
        mid = builder.solver.num_vars
        builder.add(Or(shared, ~z))
        after = builder.solver.num_vars
        # The first assertion Tseitin-encodes And(x, y); the second
        # reuses the interned literal and allocates no new aux vars
        # beyond its own Or node.
        assert mid > before
        assert after - mid <= mid - before - 1
        lit1 = builder._encode_folded(shared)
        lit2 = builder._encode_folded(shared)
        assert lit1 == lit2

    def test_group_interned_definitions_die_with_group(self):
        builder = FormulaBuilder(fold_constants=True)
        x, y = builder.var("x"), builder.var("y")
        g = builder.new_group()
        with builder.group(g):
            inside = builder._encode_folded(And(x, y))
        builder.retire_group(g)
        g2 = builder.new_group()
        with builder.group(g2):
            rebuilt = builder._encode_folded(And(x, y))
        # The retired group's guarded definition must not be reused.
        assert rebuilt != inside


class TestPairSessionLifecycle:
    def _session(self, level=EC):
        summaries = summarize_program(BY_NAME["SmallBank"].program())
        # Pick any pair with disjuncts.
        for summary in summaries.values():
            for c1, c2 in summary.ordered_pairs():
                for other in summaries.values():
                    session = PairSession(c1, c2, other)
                    ((witness, solved, _),) = session.query_batch([level])
                    if solved and session._disjuncts:
                        return session, (c1, c2, other), witness
        raise AssertionError("corpus has no solvable pair")

    def test_levels_share_one_warm_solver(self):
        session, _, _ = self._session()
        solver = session._encoder.builder.solver
        for level in (CC, RR, SC):
            session.query_batch([level])
        assert session._encoder.builder.solver is solver
        assert session.queries == 4

    def test_retire_axioms_rebuilds_fresh_group(self):
        session, _, _ = self._session()
        session.query_batch([RR])
        groups_before = dict(session._groups)
        if not groups_before:
            pytest.skip("model shortcut answered RR without axiom groups")
        dropped = session.retire_axioms(RR)
        assert dropped == len(groups_before)
        session.query_batch([RR])
        # A retired feature rebuilds in a fresh group.
        for flag, gid in session._groups.items():
            assert gid != groups_before.get(flag)

    def test_close_retires_groups(self):
        session, _, _ = self._session()
        session.query_batch([RR])
        session.close()
        assert not session.warmed


class TestOracleSessionPool:
    def test_sessions_keyed_by_structure(self):
        summaries = summarize_program(BY_NAME["Courseware"].program())
        pool = OracleSession()
        items = list(summaries.values())
        summary = items[0]
        pairs = summary.ordered_pairs()
        if not pairs:
            pytest.skip("no pairs")
        c1, c2 = pairs[0]
        s1 = pool.session(c1, c2, items[0])
        s2 = pool.session(c1, c2, items[0])
        assert s1 is s2
        assert pool.counters()["created"] == 1
        assert pool.counters()["reused"] == 1

    def test_eviction_bounds_pool(self):
        summaries = summarize_program(BY_NAME["Courseware"].program())
        pool = OracleSession(max_sessions=2)
        summary = list(summaries.values())[0]
        pairs = summary.ordered_pairs()
        others = list(summaries.values())
        made = 0
        for c1, c2 in pairs:
            for other in others:
                pool.session(c1, c2, other)
                made += 1
                if made >= 5:
                    break
            if made >= 5:
                break
        counters = pool.counters()
        assert counters["live"] <= 2
        assert counters["evicted"] >= made - 2
