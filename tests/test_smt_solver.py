"""CDCL solver tests: unit cases, classic instances, and a generative
cross-check against brute-force enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.errors import SolverError
from repro.smt.solver import Solver, lit, neg, lit_var, lit_sign, stats_delta


class TestLiteralEncoding:
    def test_positive_literal(self):
        assert lit(3) == 6
        assert lit_var(lit(3)) == 3
        assert lit_sign(lit(3))

    def test_negative_literal(self):
        l = lit(3, positive=False)
        assert l == 7
        assert lit_var(l) == 3
        assert not lit_sign(l)

    def test_negation_involution(self):
        l = lit(5)
        assert neg(neg(l)) == l
        assert lit_var(neg(l)) == 5


class TestBasicSolving:
    def test_empty_problem_sat(self):
        assert Solver().solve().sat

    def test_single_unit(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([lit(a)])
        r = s.solve()
        assert r.sat and r.value(a)

    def test_contradictory_units(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([lit(a)])
        s.add_clause([neg(lit(a))])
        assert not s.solve().sat

    def test_implication_chain(self):
        s = Solver()
        vs = [s.new_var() for _ in range(10)]
        for i in range(9):
            s.add_clause([neg(lit(vs[i])), lit(vs[i + 1])])
        s.add_clause([lit(vs[0])])
        r = s.solve()
        assert r.sat and all(r.value(v) for v in vs)

    def test_tautological_clause_ignored(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([lit(a), neg(lit(a))])
        assert s.solve().sat

    def test_duplicate_literals_deduplicated(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([lit(a), lit(a), lit(b)])
        assert s.solve().sat

    def test_empty_clause_unsat(self):
        s = Solver()
        s.new_var()
        s.add_clause([])
        assert not s.solve().sat

    def test_model_satisfies_all_clauses(self):
        s = Solver()
        vs = [s.new_var() for _ in range(4)]
        clauses = [
            [lit(vs[0]), lit(vs[1])],
            [neg(lit(vs[0])), lit(vs[2])],
            [neg(lit(vs[1])), neg(lit(vs[2])), lit(vs[3])],
        ]
        for c in clauses:
            s.add_clause(c)
        r = s.solve()
        assert r.sat
        for c in clauses:
            assert any(r.model.get(l >> 1, False) != bool(l & 1) for l in c)


def _pigeonhole(pigeons, holes):
    s = Solver()
    v = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for i in range(pigeons):
        s.add_clause([lit(v[i][j]) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                s.add_clause([neg(lit(v[i1][j])), neg(lit(v[i2][j]))])
    return s


class TestClassicInstances:
    def test_pigeonhole_unsat(self):
        assert not _pigeonhole(4, 3).solve().sat

    def test_pigeonhole_sat(self):
        assert _pigeonhole(3, 3).solve().sat

    def test_larger_pigeonhole_unsat(self):
        # Exercises clause learning and restarts.
        assert not _pigeonhole(6, 5).solve().sat

    def test_at_most_one_chain(self):
        s = Solver()
        vs = [s.new_var() for _ in range(8)]
        s.add_clause([lit(v) for v in vs])
        for i in range(8):
            for j in range(i + 1, 8):
                s.add_clause([neg(lit(vs[i])), neg(lit(vs[j]))])
        r = s.solve()
        assert r.sat
        assert sum(r.value(v) for v in vs) == 1


def _brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[l >> 1] != bool(l & 1) for l in c) for c in clauses):
            return True
    return False


@st.composite
def _cnf(draw):
    num_vars = draw(st.integers(min_value=2, max_value=7))
    num_clauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            lit(draw(st.integers(0, num_vars - 1)), draw(st.booleans()))
            for _ in range(width)
        ]
        clauses.append(clause)
    return num_vars, clauses


class TestAgainstBruteForce:
    @given(_cnf())
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, problem):
        num_vars, clauses = problem
        s = Solver()
        for _ in range(num_vars):
            s.new_var()
        for c in clauses:
            s.add_clause(c)
        got = s.solve()
        assert got.sat == _brute_force(num_vars, clauses)
        if got.sat:
            for c in clauses:
                assert any(got.model.get(l >> 1, False) != bool(l & 1) for l in c)


class TestHeapBranching:
    """The indexed VSIDS heap must make exactly the decisions of the
    reference linear scan (ties break toward the lowest index in both)."""

    def _compare(self, build):
        heap_solver = build(Solver(branching="heap"))
        linear_solver = build(Solver(branching="linear"))
        heap_result = heap_solver.solve()
        linear_result = linear_solver.solve()
        assert heap_result.sat == linear_result.sat
        assert heap_result.model == linear_result.model
        assert heap_solver.stats() == linear_solver.stats()
        return heap_result

    def test_pigeonhole_unsat_identical(self):
        def build(s):
            v = [[s.new_var() for _ in range(4)] for _ in range(5)]
            for i in range(5):
                s.add_clause([lit(v[i][j]) for j in range(4)])
            for j in range(4):
                for i1 in range(5):
                    for i2 in range(i1 + 1, 5):
                        s.add_clause([neg(lit(v[i1][j])), neg(lit(v[i2][j]))])
            return s

        assert not self._compare(build).sat

    def test_at_most_one_identical(self):
        def build(s):
            vs = [s.new_var() for _ in range(8)]
            s.add_clause([lit(v) for v in vs])
            for i in range(8):
                for j in range(i + 1, 8):
                    s.add_clause([neg(lit(vs[i])), neg(lit(vs[j]))])
            return s

        assert self._compare(build).sat

    @given(_cnf())
    @settings(max_examples=60, deadline=None)
    def test_random_cnf_identical(self, problem):
        num_vars, clauses = problem

        def build(s):
            for _ in range(num_vars):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            return s

        self._compare(build)

    def test_unknown_branching_rejected(self):
        with pytest.raises(SolverError):
            Solver(branching="random")


def _assumption_instance(s, seed=58):
    """A deterministic random 3-SAT instance (satisfiable under the
    assumptions, with several conflicts under the default heuristics)
    whose conflict-driven backjumps target levels inside the two-deep
    assumption prefix -- exactly the shape the ``_assumption_level``
    regression mis-handled."""
    import random

    rng = random.Random(seed)
    vs = [s.new_var() for _ in range(30)]
    clauses = []
    for _ in range(120):
        c = [lit(rng.randrange(30), rng.random() < 0.5) for _ in range(3)]
        clauses.append(c)
        s.add_clause(c)
    return vs, clauses, [lit(vs[0]), lit(vs[1])]


class TestAssumptionLevels:
    """Regression: _assumption_level returned 0, so backjumping could
    cancel assumption decisions mid-solve."""

    def test_deep_backjump_keeps_assumptions(self):
        cancels = []

        class Probe(Solver):
            def _cancel_until(self, level):
                cancels.append((len(self.trail_lim), level))
                super()._cancel_until(level)

        s = Probe()
        vs, clauses, assumptions = _assumption_instance(s)
        r = s.solve(assumptions=assumptions)
        assert r.sat
        assert s.stats()["conflicts"] > 0
        assert r.value(vs[0]) and r.value(vs[1])
        for c in clauses:
            assert any(r.model.get(l >> 1, False) != bool(l & 1) for l in c)
        # Conflict-driven backjumps clamp at the assumption prefix; only
        # the initial reset and learned-unit restarts may go to level 0.
        for from_level, to_level in cancels:
            if from_level > len(assumptions):
                assert to_level == 0 or to_level >= len(assumptions)
        # The clamp actually engaged: some backjump from deeper in the
        # tree stopped exactly at the assumption prefix.
        assert any(
            from_level > 2 and to_level == 2 for from_level, to_level in cancels
        )

    def test_assumption_level_counts_decision_prefix(self):
        seen = []

        class Spy(Solver):
            def _assumption_level(self, assumptions):
                level = super()._assumption_level(assumptions)
                seen.append(level)
                return level

        s = Spy()
        _, _, assumptions = _assumption_instance(s)
        assert s.solve(assumptions=assumptions).sat
        # At some conflict both assumption decisions were on the trail.
        assert seen and max(seen) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_assumptions_agree_with_unit_clauses(self, seed):
        """Solving under assumptions must decide exactly like solving
        with the assumptions added as unit clauses (seed 1 is UNSAT and
        historically went wrong when a no-op backjump at the assumption
        prefix swallowed a conflict)."""
        s1 = Solver()
        vs1, clauses, assumptions = _assumption_instance(s1, seed=seed)
        r1 = s1.solve(assumptions=assumptions)
        s2 = Solver()
        vs2, _, _ = _assumption_instance(s2, seed=seed)
        for a in [lit(vs2[0]), lit(vs2[1])]:
            s2.add_clause([a])
        r2 = s2.solve()
        assert r1.sat == r2.sat
        if r1.sat:
            for c in clauses:
                assert any(r1.model.get(l >> 1, False) != bool(l & 1) for l in c)

    def test_no_assumptions_is_level_zero(self):
        s = Solver()
        s.new_var()
        assert s._assumption_level([]) == 0

    def test_violated_assumption_unsat(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([neg(lit(a))])
        assert not s.solve(assumptions=[lit(a)]).sat

    def test_contradictory_assumptions_unsat(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([lit(a), lit(b)])
        assert not s.solve(assumptions=[lit(a), neg(lit(a))]).sat


class TestIncremental:
    def test_solve_twice_stable(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([lit(a), lit(b)])
        assert s.solve().sat
        assert s.solve().sat

    def test_add_after_solve(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([lit(a)])
        assert s.solve().sat
        s.add_clause([neg(lit(a))])
        assert not s.solve().sat

    def test_stats_populated(self):
        s = _pigeonhole(5, 4)
        s.solve()
        assert s.stats()["conflicts"] > 0
        assert s.stats()["decisions"] > 0


def _batch_instance(seed=58):
    """Twin solvers over the same deterministic 3-SAT instance plus a
    spread of assumption sets (satisfiable, conflicting, empty)."""
    a, b = Solver(), Solver()
    vs, clauses, assumptions = _assumption_instance(a, seed=seed)
    for _ in vs:
        b.new_var()
    for c in clauses:
        b.add_clause(c)
    sets = [
        list(assumptions),
        [],
        [neg(assumptions[0])],
        [assumptions[0], neg(assumptions[1])],
        [neg(lit(vs[5])), lit(vs[7]), lit(vs[19])],
    ]
    return a, b, vs, sets


class TestSolveBatch:
    """solve_batch is the batched entry point for level sweeps: it must
    be observationally identical to a sequential loop of solve calls."""

    def test_matches_sequential_in_order(self):
        batched, sequential, vs, sets = _batch_instance()
        batch = batched.solve_batch(sets)
        loop = [sequential.solve(s) for s in sets]
        assert len(batch) == len(sets)
        for got, want in zip(batch, loop):
            assert got.sat == want.sat
            assert not got.unknown and not want.unknown
            if got.sat:
                assert [got.value(v) for v in vs] == [want.value(v) for v in vs]

    def test_verdicts_independent_of_batch_composition(self):
        _, _, _, sets = _batch_instance()
        solo = []
        for aset in sets:
            s = Solver()
            _assumption_instance(s)
            solo.append(s.solve_batch([aset])[0].sat)
        full = Solver()
        _assumption_instance(full)
        assert [r.sat for r in full.solve_batch(sets)] == solo
        rev = Solver()
        _assumption_instance(rev)
        assert [r.sat for r in rev.solve_batch(list(reversed(sets)))] == list(
            reversed(solo)
        )

    def test_stats_out_one_delta_per_solve(self):
        s = Solver()
        _, _, assumptions = _assumption_instance(s)
        sets = [list(assumptions), [], [neg(assumptions[0])]]
        before = s.stats()
        deltas = []
        results = s.solve_batch(sets, stats_out=deltas)
        total = stats_delta(s.stats(), before)
        assert len(deltas) == len(results) == len(sets)
        for key in ("props", "decisions", "conflicts", "arena_bytes"):
            # Consecutive snapshots chain, so per-solve deltas telescope
            # to the whole-batch delta.
            assert sum(d[key] for d in deltas) == total[key]
        assert all(d["props"] >= 0 for d in deltas)

    def test_exhausted_budget_truncates_batch(self):
        s = _pigeonhole(6, 5)
        results = s.solve_batch([[], [], []], budget=Budget(max_conflicts=1))
        assert len(results) < 3
        assert results[-1].unknown
        # The solver stays reusable after the exhausted query.
        assert not s.solve().sat

    def test_empty_batch(self):
        assert Solver().solve_batch([]) == []


class TestClauseDbSelection:
    def test_default_is_arena(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([lit(a), lit(b)])
        assert s.stats()["arena_bytes"] > 0


class TestArenaCompactionStress:
    """Randomized add/retire/reduce churn on the arena, every solve
    checked against a cold solver built from the active clauses.  The
    compaction floor is lowered so ``_reduce_db`` actually reclaims arena
    storage in-test."""

    NUM_VARS = 24

    def _model_satisfies(self, result, clauses):
        return all(
            any(result.value(lit_var(l)) == lit_sign(l) for l in c)
            for c in clauses
        )

    def _seed_hard_group(self, s):
        """A pigeonhole(6,5) sub-problem in its own group: refuting it
        once leaves a learned DB that dominates the original clauses,
        which is the long-lived-warm-solver shape compaction targets."""
        hard = s.new_group()
        v = [[s.new_var() for _ in range(5)] for _ in range(6)]
        for i in range(6):
            s.add_clause([lit(v[i][j]) for j in range(5)], group=hard)
        for j in range(5):
            for i1 in range(6):
                for i2 in range(i1 + 1, 6):
                    s.add_clause(
                        [neg(lit(v[i1][j])), neg(lit(v[i2][j]))], group=hard
                    )
        assert not s.solve([s.group_literal(hard)]).sat
        s.retire_group(hard)

    def _cold_verdict(self, clauses, assumptions):
        cold = Solver()
        for _ in range(self.NUM_VARS):
            cold.new_var()
        for c in clauses:
            cold.add_clause(c)
        return cold.solve(assumptions).sat

    def test_randomized_add_retire_reduce(self, monkeypatch):
        import repro.smt.solver as solver_module

        monkeypatch.setattr(solver_module, "_COMPACT_MIN_DEAD", 16)
        rng = random.Random(2024)
        arena = Solver()
        for _ in range(self.NUM_VARS):
            arena.new_var()
        self._seed_hard_group(arena)
        groups = []  # [(group, clauses)]
        shrank = False
        for round_no in range(10):
            group = arena.new_group()
            body = [
                [
                    lit(rng.randrange(self.NUM_VARS), rng.random() < 0.5)
                    for _ in range(3)
                ]
                for _ in range(30)
            ]
            for c in body:
                arena.add_clause(c, group=group)
            groups.append((group, body))
            # A few solves per round under varying assumptions keeps the
            # conflict analysis (and so the learned DB) churning.
            for _ in range(3):
                active = [g for g in groups if not arena.is_retired(g[0])]
                clauses = [c for _, body in active for c in body]
                extra = [
                    lit(rng.randrange(self.NUM_VARS), rng.random() < 0.5)
                    for _ in range(rng.randrange(3))
                ]
                warm = arena.solve(
                    [arena.group_literal(g) for g, _ in active] + extra
                )
                assert warm.sat == self._cold_verdict(clauses, extra), (
                    f"round {round_no}"
                )
                if warm.sat:
                    assert self._model_satisfies(warm, clauses)
            before = arena.stats()["arena_bytes"]
            arena._reduce_db()
            shrank = shrank or arena.stats()["arena_bytes"] < before
            if rng.random() < 0.4:
                arena.retire_group(rng.choice(groups)[0])
        stats = arena.stats()
        # _reduce_db is a no-op (and doesn't count) on rounds with no
        # eligible victims, so only a lower bound is stable here.
        assert stats["db_reductions"] >= 1
        assert stats["learned_live"] == len(arena.learned)
        assert shrank, "no _reduce_db round ever compacted the arena"


@st.composite
def _warm_script(draw):
    """A random session on one warm solver: permanent and grouped clause
    additions, group creation and retirement, and solves under group
    activations plus assumption literals, in any order."""
    num_vars = draw(st.integers(min_value=2, max_value=7))

    def clause():
        width = draw(st.integers(min_value=1, max_value=3))
        return [
            lit(draw(st.integers(0, num_vars - 1)), draw(st.booleans()))
            for _ in range(width)
        ]

    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        kind = draw(st.sampled_from(("add", "group", "add", "retire", "solve")))
        if kind == "add":
            ops.append(("add", draw(st.integers(0, 3)), clause()))
        elif kind == "retire":
            ops.append(("retire", draw(st.integers(0, 3))))
        elif kind == "solve":
            ops.append(
                (
                    "solve",
                    draw(st.lists(st.integers(0, 3), max_size=3, unique=True)),
                    [
                        lit(draw(st.integers(0, num_vars - 1)), draw(st.booleans()))
                        for _ in range(draw(st.integers(0, 2)))
                    ],
                )
            )
        else:
            ops.append(("group",))
    ops.append(("solve", list(range(4)), []))
    return num_vars, ops


class TestWarmSolverAgainstBruteForce:
    """One incremental solver driven through clause additions after
    solves, clause groups, assumptions and ``retire_group``; every
    verdict and model is checked against truth-table enumeration of the
    clauses in force."""

    @given(_warm_script())
    @settings(max_examples=200, deadline=None)
    def test_session_matches_enumeration(self, script):
        num_vars, ops = script
        s = Solver()
        for _ in range(num_vars):
            s.new_var()
        permanent = []
        groups = []  # [(group id, clauses)]; op slots index this list
        retired = set()
        for op in ops:
            if op[0] == "group":
                groups.append((s.new_group(), []))
            elif op[0] == "retire":
                if op[1] < len(groups):
                    s.retire_group(groups[op[1]][0])
                    retired.add(op[1])
            elif op[0] == "add":
                # Slot 0 adds a permanent clause, 1-3 add to that group.
                slot, clause = op[1], op[2]
                if slot == 0 or slot > len(groups):
                    s.add_clause(clause)
                    permanent.append(clause)
                else:
                    s.add_clause(clause, group=groups[slot - 1][0])
                    if slot - 1 not in retired:
                        # Clauses added to a retired group are no-ops.
                        groups[slot - 1][1].append(clause)
            else:
                active = [i for i in op[1] if i < len(groups)]
                assumptions = op[2]
                got = s.solve(
                    [s.group_literal(groups[i][0]) for i in active] + assumptions
                )
                in_force = (
                    permanent
                    + [c for i in active for c in groups[i][1]]
                    + [[a] for a in assumptions]
                )
                # Activating a retired group is vacuously UNSAT.
                want = not (set(active) & retired) and _brute_force(
                    num_vars, in_force
                )
                assert got.sat == want, (ops, op)
                if got.sat:
                    for c in in_force:
                        assert any(
                            got.value(l >> 1) != bool(l & 1) for l in c
                        ), (ops, op, c)
