"""Deadlines and budgets, threaded request -> workspace -> solver.

The contract under test: a request carrying ``deadline_ms`` or
``budget`` either finishes in time or raises a *structured*
:class:`~repro.errors.DeadlineExceededError` (HTTP 504) whose payload
carries the partial per-pair results found before the limit -- never a
silent truncation, never a wrong answer.
"""

import time

import pytest

from repro.api import (
    AnalyzeRequest,
    Budget,
    DeadlineExceededError,
    RepairRequest,
    Workspace,
    http_status_of,
)
from repro.analysis import CC, EC, RR
from repro.api.errors import error_payload
from repro.api.schema import all_schemas, validate
from repro.api.workspace import _with_partial
from repro.budget import Budget as CoreBudget
from repro.corpus import BY_NAME
from repro.errors import BudgetExhaustedError, ValidationError
from repro.smt.formula import FormulaBuilder, big_or


def pigeonhole(n: int) -> FormulaBuilder:
    """PHP(n+1 -> n): unsatisfiable and conflict-heavy (hundreds of
    conflicts at n=6), the classic budget-exhaustion workload."""
    fb = FormulaBuilder()
    holes = {
        (i, j): fb.var(f"p_{i}_{j}")
        for i in range(n + 1)
        for j in range(n)
    }
    for i in range(n + 1):
        fb.add(big_or([holes[i, j] for j in range(n)]))
    for j in range(n):
        for i in range(n + 1):
            for k in range(i + 1, n + 1):
                fb.add(~holes[i, j] | ~holes[k, j])
    return fb


class TestBudget:
    def test_absent_fields_build_no_budget(self):
        assert Budget.start(None, None) is None
        assert Budget.start(None, {}) is None

    def test_deadline_ms_validation(self):
        with pytest.raises(ValidationError):
            Budget.start(0, None)
        with pytest.raises(ValidationError):
            Budget.start(-5, None)
        with pytest.raises(ValidationError):
            Budget.start(True, None)

    def test_budget_dict_validation(self):
        with pytest.raises(ValidationError):
            Budget.start(None, {"max_conflicts": 0})
        with pytest.raises(ValidationError):
            Budget.start(None, {"max_conflicts": True})
        with pytest.raises(ValidationError):
            Budget.start(None, {"bogus": 1})

    def test_expiry_and_exhaustion(self):
        live = Budget.start(60_000, {"max_conflicts": 10})
        assert live.expired() is None
        assert live.exhausted(9) is None
        assert live.exhausted(10) == "conflicts"
        dead = CoreBudget(deadline=time.monotonic() - 1.0)
        assert dead.expired() == "deadline"
        assert dead.exhausted(0) == "deadline"

    def test_remaining_ms(self):
        assert CoreBudget().remaining_ms() is None
        assert Budget.start(60_000, None).remaining_ms() > 0
        assert CoreBudget(deadline=time.monotonic() - 1).remaining_ms() == 0


class TestSolverBudget:
    """The solver answers ``unknown`` cooperatively -- no exception
    escapes the main loop, so warm incremental sessions stay usable."""

    def test_conflict_cap_yields_budget_exhausted(self):
        fb = pigeonhole(6)
        with pytest.raises(BudgetExhaustedError):
            fb.check(budget=CoreBudget(max_conflicts=1))

    def test_expired_deadline_yields_budget_exhausted(self):
        fb = pigeonhole(6)
        with pytest.raises(BudgetExhaustedError):
            fb.check(budget=CoreBudget(deadline=time.monotonic() - 1.0))

    def test_unbudgeted_answer_is_still_unsat(self):
        assert pigeonhole(6).check() is None

    def test_solver_survives_an_exhausted_query(self):
        """The same builder must answer correctly after exhaustion."""
        fb = FormulaBuilder()
        a, b = fb.var("a"), fb.var("b")
        fb.add(a | b)
        fb.add(~a)
        model = fb.check(budget=CoreBudget(max_conflicts=1_000_000))
        assert model is not None and model["b"] is True


class TestDeadlineExceeded:
    """The acceptance gate: a corpus request with a too-short deadline
    answers a structured 504 carrying partial per-pair results."""

    def test_analyze_returns_structured_partial(self):
        with Workspace(strategy="serial") as ws:
            with pytest.raises(DeadlineExceededError) as info:
                ws.analyze(AnalyzeRequest(benchmark="TPC-C", deadline_ms=1))
        exc = info.value
        assert http_status_of(exc) == 504
        payload = error_payload(exc)
        assert payload["error"]["code"] == "deadline-exceeded"
        partial = payload["error"]["partial"]
        assert partial["pairs_checked"] < partial["pairs_total"]
        assert isinstance(partial["pairs"], list)
        ok, why = validate(payload, all_schemas()["error"])
        assert ok, why

    def test_repair_returns_structured_partial(self):
        with Workspace(strategy="serial") as ws:
            with pytest.raises(DeadlineExceededError) as info:
                ws.repair(RepairRequest(benchmark="TPC-C", deadline_ms=1))
        partial = error_payload(info.value)["error"]["partial"]
        assert partial["pairs_total"] > 0
        assert partial["pairs_checked"] < partial["pairs_total"]

    def test_generous_deadline_changes_nothing(self):
        """A deadline nobody hits must not perturb the verdict."""
        with Workspace(strategy="serial") as ws:
            plain = ws.analyze(AnalyzeRequest(benchmark="Courseware"))
            budgeted = ws.analyze(
                AnalyzeRequest(benchmark="Courseware", deadline_ms=600_000)
            )
        assert [p.to_json() for p in budgeted.pairs] == [
            p.to_json() for p in plain.pairs
        ]

    def test_invalid_budget_is_a_validation_error(self):
        with Workspace(strategy="serial") as ws:
            with pytest.raises(ValidationError):
                ws.analyze(
                    AnalyzeRequest(benchmark="SIBench", budget={"bogus": 1})
                )


class CountingBudget:
    """A budget whose clock runs out on check ``k + 1``: the analysis is
    cut at a chosen point of its sweep, with no wall-clock race."""

    def __init__(self, k: int):
        self.k = k
        self.checks = 0

    def expired(self):
        self.checks += 1
        return "deadline" if self.checks > self.k else None

    def exhausted(self, conflicts_used: int):
        return self.expired()


def _keys(pairs):
    return {p.key() for p in pairs}


class TestDefaultStrategyPartials:
    """The partial-result path of ``Workspace()``'s default strategy --
    the one the service runs -- cut after ``k`` budget checks."""

    CUTS = (1, 2, 3)

    def _check_partials(self, run, level_name, full_keys):
        checked = []
        for k in self.CUTS:
            with Workspace() as ws:
                with pytest.raises(DeadlineExceededError) as info:
                    run(ws, CountingBudget(k))
                exc = info.value
                assert exc.level == level_name
                assert 0 <= exc.pairs_checked < exc.pairs_total
                assert _keys(exc.partial_pairs) <= full_keys
                checked.append(exc.pairs_checked)
                payload = error_payload(_with_partial(exc))
                assert payload["error"]["code"] == "deadline-exceeded"
                ok, why = validate(payload, all_schemas()["error"])
                assert ok, why
                # The outcomes solved before the cut are cached; a retry
                # on the same workspace equals a fresh workspace's run.
                retry = run(ws, None)
            with Workspace() as fresh:
                expected = run(fresh, None)
            assert [_report_signature(r) for r in retry] == [
                _report_signature(r) for r in expected
            ]
        assert checked == sorted(checked), checked
        return checked

    def test_ec_partials(self):
        program = BY_NAME["TPC-C"].program()

        def run(ws, budget):
            return [ws.analyze_program(program, EC, budget=budget)]

        with Workspace() as ws:
            (full,) = run(ws, None)
        checked = self._check_partials(run, "EC", _keys(full.pairs))
        assert checked[0] > 0

    def test_level_sweep_partials(self):
        program = BY_NAME["TPC-C"].program()

        def run(ws, budget):
            return ws.analyze_program_levels(program, [CC, RR], budget=budget)

        with Workspace() as ws:
            cc, rr = run(ws, None)
        checked = self._check_partials(
            run, "CC+RR", _keys(cc.pairs) | _keys(rr.pairs)
        )
        assert checked[0] > 0


def _report_signature(report):
    return (
        report.level,
        report.pairs_checked,
        [
            (p.key(), sorted(p.fields1), sorted(p.fields2), p.interferers)
            for p in report.pairs
        ],
    )


class TestWireRoundTrip:
    def test_deadline_fields_round_trip(self):
        request = AnalyzeRequest(
            benchmark="SIBench",
            deadline_ms=1500,
            budget={"max_conflicts": 9},
        )
        doc = request.to_json()
        assert doc["deadline_ms"] == 1500
        assert doc["budget"] == {"max_conflicts": 9}
        again = AnalyzeRequest.from_json(doc)
        assert again.deadline_ms == 1500
        assert again.budget == {"max_conflicts": 9}
        ok, why = validate(doc, all_schemas()["analyze_request"])
        assert ok, why

    def test_absent_fields_stay_off_the_wire(self):
        doc = AnalyzeRequest(benchmark="SIBench").to_json()
        assert "deadline_ms" not in doc and "budget" not in doc
