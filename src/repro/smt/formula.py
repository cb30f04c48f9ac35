"""Boolean formula layer on top of the CDCL core.

Provides a tiny structural formula AST (:class:`BoolVar`, :class:`And`,
:class:`Or`, :class:`Not`, :class:`Implies`, :class:`Iff`, constants) and
a :class:`FormulaBuilder` that manages variable allocation and converts
formulas to CNF via the Tseitin transformation before handing them to
:class:`repro.smt.solver.Solver`.

The anomaly encoder only ever asserts formulas and asks for a model, so
the builder exposes exactly that surface: ``add(formula)`` and
``check() -> model | None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import BudgetExhaustedError, SolverError
from repro.smt import solver as sat


class Formula:
    """Base class for boolean formulas."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class BoolConst(Formula):
    value: bool


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class BoolVar(Formula):
    """A named propositional variable; names are interned by the builder."""

    name: str


class _NaryFormula(Formula):
    __slots__ = ("operands", "_hash")

    def __init__(self, *operands: Formula):
        flat: List[Formula] = []
        for op in operands:
            if isinstance(op, type(self)):
                flat.extend(op.operands)  # type: ignore[attr-defined]
            else:
                flat.append(op)
        self.operands = tuple(flat)
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(other) is type(self) and self.operands == other.operands  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # Cached: the hash-consing tables hash the same (deep) formula
        # objects on every intern lookup, which made recursive hashing a
        # measurable slice of warm-session construction.
        h = self._hash
        if h is None:
            h = self._hash = hash((type(self).__name__, self.operands))
        return h

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.operands))
        return f"{type(self).__name__}({inner})"


class And(_NaryFormula):
    """N-ary conjunction; nested Ands are flattened."""


class Or(_NaryFormula):
    """N-ary disjunction; nested Ors are flattened."""


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


def Implies(antecedent: Formula, consequent: Formula) -> Formula:
    return Or(Not(antecedent), consequent)


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


def big_and(formulas: Iterable[Formula]) -> Formula:
    items = list(formulas)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(*items)


def big_or(formulas: Iterable[Formula]) -> Formula:
    items = list(formulas)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(*items)


def at_most_one(formulas: Iterable[Formula]) -> Formula:
    """Pairwise at-most-one constraint (fine at the encoder's sizes)."""
    items = list(formulas)
    clauses: List[Formula] = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            clauses.append(Or(Not(items[i]), Not(items[j])))
    return big_and(clauses)


class FormulaBuilder:
    """Accumulates asserted formulas and discharges them with CDCL.

    Variables are identified by name; :meth:`var` interns them.  ``add``
    performs Tseitin conversion eagerly, so the builder can be used
    incrementally (assert, check, assert more, check again).

    ``fold_constants=True`` switches to a simplifying Tseitin pass that
    folds ``TRUE``/``FALSE`` operands, deduplicates operand literals and
    collapses tautological/contradictory connectives before emitting
    clauses.  The default eager pass instead materialises every constant
    as a fresh pinned variable; it is kept as-is because downstream
    consumers pin its exact model choices.

    The folding pass additionally *hash-conses* structural subformulas:
    every ``And``/``Or``/``Iff`` already encoded in the session maps to
    its existing Tseitin literal, so a shared subformula's CNF is emitted
    exactly once per builder no matter how many assertions mention it.

    Assertions can be made *retractable* via activation-literal groups
    (folding pass only): every clause emitted inside a
    :meth:`group` block carries the group's guard literal, the group is
    enforced only when passed to :meth:`check`, and
    :meth:`retire_group` discards it for good.  Subformulas first
    encoded inside a group are interned per group -- their defining
    clauses are guarded, so the literal is only trusted while that group
    exists.
    """

    def __init__(self, fold_constants: bool = False) -> None:
        self.solver = sat.Solver()
        self.fold_constants = fold_constants
        self._vars: Dict[str, int] = {}
        # name -> interned BoolVar: var() is called per axiom link on
        # the warm path, and returning one shared (frozen, equal) object
        # keeps downstream formula hashing on the identity fast path.
        self._var_objs: Dict[str, BoolVar] = {}
        self._aux_count = 0
        self._true_lit: Optional[int] = None
        # Hash-consing caches for the folding pass: formula -> literal.
        # _interned holds permanently-defined subformulas; group-scoped
        # definitions live in _group_interned and die with their group.
        self._interned: Dict[Formula, int] = {}
        self._group_interned: Dict[int, Dict[Formula, int]] = {}
        self._group: Optional[int] = None
        self._all_groups: List[int] = []

    # -- variables -----------------------------------------------------

    def var(self, name: str) -> BoolVar:
        """Declare (or fetch) a named variable."""
        bv = self._var_objs.get(name)
        if bv is None:
            if name not in self._vars:
                self._vars[name] = self.solver.new_var()
            bv = BoolVar(name)
            self._var_objs[name] = bv
        return bv

    def var_names(self) -> Tuple[str, ...]:
        return tuple(self._vars)

    def literal(self, var: BoolVar) -> int:
        """The positive solver literal of a named variable (interning it
        if needed) -- the escape hatch for callers that emit clauses at
        the literal level."""
        return sat.lit(self._lookup(var), True)

    def _fresh(self) -> int:
        self._aux_count += 1
        return self.solver.new_var()

    def _lookup(self, v: BoolVar) -> int:
        if v.name not in self._vars:
            self._vars[v.name] = self.solver.new_var()
        return self._vars[v.name]

    # -- retractable assertion groups ----------------------------------

    def new_group(self) -> int:
        """Allocate a retractable assertion group (folding pass only)."""
        if not self.fold_constants:
            raise SolverError(
                "assertion groups require the folding Tseitin pass "
                "(FormulaBuilder(fold_constants=True))"
            )
        group_id = self.solver.new_group()
        self._all_groups.append(group_id)
        return group_id

    @contextmanager
    def group(self, group_id: int):
        """Scope assertions to ``group_id``: every clause emitted inside
        the block is guarded by the group's activation literal."""
        previous = self._group
        self._group = group_id
        try:
            yield
        finally:
            self._group = previous

    def retire_group(self, group_id: int) -> None:
        """Permanently drop a group's assertions (and its interned
        subformula definitions)."""
        self.solver.retire_group(group_id)
        self._group_interned.pop(group_id, None)

    def _emit(self, lits: List[int]) -> None:
        """Install one screened clause, guarded by the active group."""
        if self._group is not None:
            lits = lits + [sat.lit(self._group, False)]
        self.solver.add_clause_unchecked(lits)

    def _emit_empty(self) -> None:
        """Assert falsity: fatal when permanent, retirable in a group."""
        if self._group is not None:
            self.solver.add_clause_unchecked([sat.lit(self._group, False)])
        else:
            self.solver.add_clause([])  # unsatisfiable marker

    # -- assertion -------------------------------------------------------

    def add(self, formula: Formula) -> None:
        """Assert ``formula`` (conjoined with everything added so far)."""
        if self.fold_constants:
            self._assert_folded(formula)
            return
        root = self._tseitin(formula)
        if root is None:  # constant
            if not self._const_value(formula):
                self.solver.add_clause([])  # unsatisfiable marker
            return
        self.solver.add_clause([root])

    def _const_value(self, formula: Formula) -> bool:
        assert isinstance(formula, BoolConst)
        return formula.value

    def _tseitin(self, formula: Formula) -> Optional[int]:
        """Return the literal equisatisfiable with ``formula`` (or None for
        constants, which the caller handles)."""
        lit = self._encode(formula)
        return lit

    def _encode(self, formula: Formula) -> Optional[int]:
        if isinstance(formula, BoolConst):
            # Encode constants as fresh pinned variables.
            v = self._fresh()
            self.solver.add_clause([sat.lit(v, formula.value)])
            return sat.lit(v, True)
        if isinstance(formula, BoolVar):
            return sat.lit(self._lookup(formula), True)
        if isinstance(formula, Not):
            inner = self._encode(formula.operand)
            assert inner is not None
            return sat.neg(inner)
        if isinstance(formula, And):
            if not formula.operands:
                return self._encode(TRUE)
            lits = [self._encode(op) for op in formula.operands]
            out = sat.lit(self._fresh(), True)
            for l in lits:
                assert l is not None
                self.solver.add_clause([sat.neg(out), l])
            self.solver.add_clause([out] + [sat.neg(l) for l in lits])  # type: ignore[arg-type]
            return out
        if isinstance(formula, Or):
            if not formula.operands:
                return self._encode(FALSE)
            lits = [self._encode(op) for op in formula.operands]
            out = sat.lit(self._fresh(), True)
            for l in lits:
                assert l is not None
                self.solver.add_clause([sat.neg(l), out])
            self.solver.add_clause([sat.neg(out)] + list(lits))  # type: ignore[arg-type]
            return out
        if isinstance(formula, Iff):
            a = self._encode(formula.left)
            b = self._encode(formula.right)
            assert a is not None and b is not None
            out = sat.lit(self._fresh(), True)
            self.solver.add_clause([sat.neg(out), sat.neg(a), b])
            self.solver.add_clause([sat.neg(out), a, sat.neg(b)])
            self.solver.add_clause([out, a, b])
            self.solver.add_clause([out, sat.neg(a), sat.neg(b)])
            return out
        raise TypeError(f"not a formula: {formula!r}")

    # -- folding Tseitin pass ---------------------------------------------

    def _assert_folded(self, formula: Formula) -> None:
        """Assert with clausal shortcuts: conjunctions split into separate
        assertions, disjunctions (including negated conjuncts, the
        ``Implies`` shape) become a single clause, and equivalences over
        literal-encodable sides become two binary clauses.  Tseitin aux
        variables are introduced only below genuinely nested structure.
        """
        if isinstance(formula, And):
            for op in formula.operands:
                self._assert_folded(op)
            return
        true = self._const_lit(True)
        false = sat.neg(true)
        if isinstance(formula, Or):
            lits: List[int] = []
            for op in formula.operands:
                if isinstance(op, Not) and isinstance(op.operand, And):
                    # De Morgan: ¬(g1 ∧ ... ∧ gk) contributes ¬g1, ..., ¬gk.
                    encoded = [
                        sat.neg(self._encode_folded(g))
                        for g in op.operand.operands
                    ]
                else:
                    encoded = [self._encode_folded(op)]
                for l in encoded:
                    if l == true:
                        return  # clause satisfied
                    if l == false:
                        continue
                    lits.append(l)
            lits = list(dict.fromkeys(lits))
            present = set(lits)
            if any(sat.neg(l) in present for l in lits):
                return  # tautology
            if not lits:
                self._emit_empty()
                return
            self._emit(lits)
            return
        if isinstance(formula, Iff):
            a = self._encode_folded(formula.left)
            b = self._encode_folded(formula.right)
            if a == true:
                self._assert_lit(b)
            elif a == false:
                self._assert_lit(sat.neg(b))
            elif b == true:
                self._assert_lit(a)
            elif b == false:
                self._assert_lit(sat.neg(a))
            elif a == b:
                pass
            elif a == sat.neg(b):
                self._emit_empty()
            else:
                self._emit([sat.neg(a), b])
                self._emit([a, sat.neg(b)])
            return
        self._assert_lit(self._encode_folded(formula))

    def assert_implication(
        self, antecedents: Sequence[Formula], consequent: Formula
    ) -> None:
        """Assert ``(antecedents[0] ∧ ... ∧ antecedents[n]) → consequent``.

        Semantically ``add(Implies(And(*antecedents), consequent))``; on
        the folding path the clause is emitted directly without building
        the intermediate formula objects (this is the encoder's hottest
        assertion shape -- alias transitivity emits one per triple).
        """
        if not self.fold_constants:
            antecedent = (
                antecedents[0] if len(antecedents) == 1 else And(*antecedents)
            )
            self.add(Implies(antecedent, consequent))
            return
        true = self._const_lit(True)
        false = sat.neg(true)
        lits: List[int] = []
        for a in antecedents:
            l = self._encode_folded(a)
            if l == false:
                return  # antecedent unsatisfiable: implication holds
            if l == true:
                continue
            lits.append(sat.neg(l))
        c = self._encode_folded(consequent)
        if c == true:
            return
        if c != false:
            lits.append(c)
        lits = list(dict.fromkeys(lits))
        present = set(lits)
        if any(sat.neg(l) in present for l in lits):
            return  # tautology
        if not lits:
            self._emit_empty()
            return
        self._emit(lits)

    def assert_implication_lits(
        self, antecedents: Sequence[int], consequent: int
    ) -> None:
        """Literal-level :meth:`assert_implication` (folding pass only).

        For callers that already resolved their operands to solver
        literals (via :meth:`literal` / :meth:`fold_literal`); emits
        exactly the clause ``assert_implication`` would emit for the
        same operand literals, skipping the per-call formula dispatch.
        """
        true = self._const_lit(True)
        false = sat.neg(true)
        lits: List[int] = []
        for l in antecedents:
            if l == false:
                return  # antecedent unsatisfiable: implication holds
            if l == true:
                continue
            lits.append(sat.neg(l))
        if consequent == true:
            return
        if consequent != false:
            lits.append(consequent)
        lits = list(dict.fromkeys(lits))
        present = set(lits)
        if any(sat.neg(l) in present for l in lits):
            return  # tautology
        if not lits:
            self._emit_empty()
            return
        self._emit(lits)

    def fold_literal(self, formula: Formula) -> int:
        """Resolve a formula to its folded literal (folding pass only).

        The public face of :meth:`_encode_folded` for encoders that
        batch-resolve operands once and then emit several clauses over
        them at the literal level.
        """
        if not self.fold_constants:
            raise SolverError(
                "literal resolution requires the folding Tseitin pass "
                "(FormulaBuilder(fold_constants=True))"
            )
        return self._encode_folded(formula)

    def _assert_lit(self, literal: int) -> None:
        if literal == self._const_lit(True):
            return
        if literal == sat.neg(self._const_lit(True)):
            self._emit_empty()
            return
        self._emit([literal])

    def _const_lit(self, value: bool) -> int:
        """The shared pinned literal for a boolean constant."""
        if self._true_lit is None:
            v = self._fresh()
            self.solver.add_clause_unchecked([sat.lit(v, True)])
            self._true_lit = sat.lit(v, True)
        return self._true_lit if value else sat.neg(self._true_lit)

    def _encode_folded(self, formula: Formula) -> int:
        """Simplifying Tseitin: returns a literal equivalent to ``formula``
        under the emitted clauses, folding constants along the way.

        Connectives are hash-consed: a structurally equal subformula that
        was already encoded returns its existing literal without emitting
        any clauses.  Results computed inside a retractable group are
        cached per group (their defining clauses carry the group guard
        and vanish with it); permanent results are shared everywhere.
        """
        if isinstance(formula, BoolVar):
            # Most frequent case (interned alias/visibility variables):
            # resolve the name inline rather than via _lookup + sat.lit.
            vars_ = self._vars
            v = vars_.get(formula.name)
            if v is None:
                v = vars_[formula.name] = self.solver.new_var()
            return v << 1
        if isinstance(formula, BoolConst):
            return self._const_lit(formula.value)
        if isinstance(formula, Not):
            return sat.neg(self._encode_folded(formula.operand))
        out = self._interned.get(formula)
        if out is None and self._group is not None:
            out = self._group_interned.get(self._group, {}).get(formula)
        if out is not None:
            return out
        out = self._encode_connective(formula)
        if self._group is None:
            self._interned[formula] = out
        else:
            self._group_interned.setdefault(self._group, {})[formula] = out
        return out

    def _encode_connective(self, formula: Formula) -> int:
        true = self._const_lit(True)
        false = sat.neg(true)
        add = self._emit
        if isinstance(formula, (And, Or)):
            is_and = isinstance(formula, And)
            absorbing = false if is_and else true
            neutral = true if is_and else false
            lits: List[int] = []
            for op in formula.operands:
                l = self._encode_folded(op)
                if l == neutral:
                    continue
                if l == absorbing:
                    return absorbing
                lits.append(l)
            lits = list(dict.fromkeys(lits))
            if not lits:
                return neutral
            if len(lits) == 1:
                return lits[0]
            present = set(lits)
            if any(sat.neg(l) in present for l in lits):
                return absorbing
            out = sat.lit(self._fresh(), True)
            if is_and:
                for l in lits:
                    add([sat.neg(out), l])
                add([out] + [sat.neg(l) for l in lits])
            else:
                for l in lits:
                    add([sat.neg(l), out])
                add([sat.neg(out)] + lits)
            return out
        if isinstance(formula, Iff):
            a = self._encode_folded(formula.left)
            b = self._encode_folded(formula.right)
            if a == true:
                return b
            if a == false:
                return sat.neg(b)
            if b == true:
                return a
            if b == false:
                return sat.neg(a)
            if a == b:
                return true
            if a == sat.neg(b):
                return false
            out = sat.lit(self._fresh(), True)
            add([sat.neg(out), sat.neg(a), b])
            add([sat.neg(out), a, sat.neg(b)])
            add([out, a, b])
            add([out, sat.neg(a), sat.neg(b)])
            return out
        raise TypeError(f"not a formula: {formula!r}")

    # -- solving ----------------------------------------------------------

    def check(
        self,
        groups: Sequence[int] = (),
        budget=None,
    ) -> Optional[Dict[str, bool]]:
        """Solve the asserted conjunction.

        ``groups`` lists the retractable assertion groups to enforce for
        this call; every other live group is explicitly switched *off*
        (its activation literal assumed false), so inactive guarded
        clauses are inert rather than free choices -- which keeps the
        search, and hence the model, independent of what other groups
        happen to exist in the session.

        Returns a model as ``{var name: bool}`` when satisfiable, else
        ``None``.  A :class:`~repro.budget.Budget` bounds the solve; an
        exhausted budget raises :class:`~repro.errors.
        BudgetExhaustedError` rather than masquerading as UNSAT.
        """
        result = self.solver.solve(self._assumptions_for(groups), budget=budget)
        return self._model_of(result)

    def check_batch(
        self,
        group_sets: Sequence[Sequence[int]],
        budget=None,
        stats_out=None,
    ) -> List[Optional[Dict[str, bool]]]:
        """Solve one :meth:`check` per entry of ``group_sets`` in a
        single :meth:`Solver.solve_batch` call.

        The batched entry point for level sweeps: each entry lists the
        assertion groups to enforce for that solve, results come back in
        order, and each solve is independent (every other live group is
        switched off exactly as in ``check``, so a solve never observes
        its batch neighbours).  ``stats_out``, when given, receives one
        per-solve :func:`repro.smt.solver.stats_delta` per result.

        An exhausted budget raises :class:`BudgetExhaustedError`; solves
        before the exhausted one completed normally but their results
        are not returned (callers retry the whole sweep).
        """
        assumption_sets = [self._assumptions_for(groups) for groups in group_sets]
        results = self.solver.solve_batch(
            assumption_sets, budget=budget, stats_out=stats_out
        )
        return [self._model_of(result) for result in results]

    def _assumptions_for(self, groups: Sequence[int]) -> List[int]:
        """Assumption literals enforcing exactly ``groups``: activate
        each requested group, switch every other live group off."""
        active = set(groups)
        assumptions: List[int] = []
        for group_id in groups:
            if self.solver.is_retired(group_id):
                raise SolverError(f"assertion group {group_id} was retired")
            assumptions.append(sat.lit(group_id, True))
        for group_id in self._all_groups:
            if group_id not in active and not self.solver.is_retired(group_id):
                assumptions.append(sat.lit(group_id, False))
        return assumptions

    def _model_of(self, result: sat.SolverResult) -> Optional[Dict[str, bool]]:
        if not result.sat:
            if result.unknown:
                raise BudgetExhaustedError(
                    "SAT query exhausted its budget before deciding"
                )
            return None
        return {name: result.value(idx) for name, idx in self._vars.items()}


def evaluate(formula: Formula, model: Dict[str, bool]) -> bool:
    """Evaluate a formula under a model (unknown vars default to False)."""
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, BoolVar):
        return model.get(formula.name, False)
    if isinstance(formula, Not):
        return not evaluate(formula.operand, model)
    if isinstance(formula, And):
        return all(evaluate(op, model) for op in formula.operands)
    if isinstance(formula, Or):
        return any(evaluate(op, model) for op in formula.operands)
    if isinstance(formula, Iff):
        return evaluate(formula.left, model) == evaluate(formula.right, model)
    raise TypeError(f"not a formula: {formula!r}")
