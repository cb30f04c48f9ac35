"""SAT encoding of anomaly queries.

For a transaction ``A``, an ordered command pair ``(c1, c2)`` of ``A``,
and an interfering transaction ``B`` (two *instances*, so ``B`` may be
``A`` itself), the encoder builds a propositional formula that is
satisfiable iff the consistency level admits an execution in which the
pair witnesses a serializability anomaly.

Variables:

- ``V[b, a]`` -- the effects of ``B``'s write command ``b`` are in the
  local view of ``A``'s command ``a`` (the paper's ``vis`` restricted to
  the bounded instance);
- ``W[a, b]`` -- symmetric direction, ``A``'s write visible to ``B``;
- ``alias[x, y]`` -- commands ``x`` and ``y`` address the same record
  (free where the static analysis says *maybe*, constant otherwise),
  with transitivity enforced per table.

Violation patterns (each a disjunction over statically collected
conflict candidates):

- **fractured read** (reader side): some ``B`` writes ``w1, w2`` with
  ``c1`` witnessing ``w1`` but ``c2`` missing ``w2`` (or the mirrored
  gain direction).  Covers non-repeatable reads, dirty reads, and
  non-atomic multi-table observations;
- **fractured write** (writer side): ``c1, c2`` both write and some
  ``B`` readers observe them inconsistently;
- **read-write race** (both directions): ``c1`` reads what ``B`` writes
  while ``c2`` writes what ``B`` reads, and neither instance sees the
  other -- the lost-update / write-skew shape.

Consistency levels contribute axiom sets over ``V``/``W``:

- EC: none (record-level atomicity is inherent in the per-command
  granularity of the variables);
- RR (frozen sessions): ``V[b, c1] <-> V[b, c2]`` -- a transaction's
  view never changes mid-flight;
- CC (causal): session-prefix closure plus monotone view growth;
- SC: a single order boolean decides which instance commits first and
  fixes every visibility variable, rendering all patterns UNSAT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.accesses import CommandInfo, TransactionSummary
from repro.analysis.aliasing import Alias, alias_commands
from repro.analysis.consistency import EC, ConsistencyLevel
from repro.smt.solver import neg as sat_neg
from repro.smt.formula import (
    And,
    BoolVar,
    FALSE,
    Formula,
    FormulaBuilder,
    Iff,
    Not,
    Or,
    TRUE,
    big_or,
    evaluate,
)


@dataclass(frozen=True)
class Disjunct:
    """One candidate anomaly witness: the formula plus the fields of the
    pair's two commands that it implicates."""

    formula: Formula
    pattern: str
    fields1: FrozenSet[str]
    fields2: FrozenSet[str]
    partner1: str
    partner2: str


@dataclass
class PairWitness:
    """A confirmed anomaly for a pair against one interferer."""

    interferer: str
    pattern: str
    fields1: FrozenSet[str]
    fields2: FrozenSet[str]


class PairEncoder:
    """Builds and solves the anomaly query for one (A, c1, c2, B) tuple.

    ``summary_a`` may be None when the caller owns witness naming (the
    analysis pipeline): the encoding itself only reads the focus pair
    and the interferer.  ``fold_constants`` selects the simplifying
    Tseitin pass of :class:`FormulaBuilder`.
    """

    def __init__(
        self,
        summary_a: Optional[TransactionSummary],
        c1: CommandInfo,
        c2: CommandInfo,
        summary_b: TransactionSummary,
        level: ConsistencyLevel,
        distinct_args: bool = True,
        fold_constants: bool = False,
    ):
        self.a = summary_a
        self.b = summary_b
        self.c1 = c1
        self.c2 = c2
        self.level = level
        self.distinct_args = distinct_args
        self.builder = FormulaBuilder(fold_constants=fold_constants)
        self.same_txn = summary_a is not None and summary_a.name == summary_b.name
        self._alias_cache: Dict[Tuple[str, str], Formula] = {}
        # Visibility variables are requested repeatedly by the disjunct
        # builders, every axiom generator, and model evaluation; memoise
        # them to skip the name formatting and interning lookups.
        self._vis_cache: Dict[Tuple[str, str, str], BoolVar] = {}
        # Materialised once on first use: the alias triangle list (shared
        # by assertion and model screening) and the per-feature variable
        # *name* lists that model_satisfies walks per candidate model.
        self._triangles: Optional[List[Tuple[Formula, Formula, Formula]]] = None
        self._tri_screen: Optional[List[Tuple[object, object, object]]] = None
        self._serial_links: Optional[List[Tuple[BoolVar, bool]]] = None
        self._frozen_links: Optional[List[Tuple[BoolVar, BoolVar]]] = None
        self._causal_links: Optional[List[Tuple[BoolVar, BoolVar]]] = None
        self._frozen_names: Optional[List[Tuple[str, str]]] = None
        self._causal_names: Optional[List[Tuple[str, str]]] = None
        self._serial_names: Optional[List[Tuple[str, bool]]] = None

    # -- variable constructors ------------------------------------------

    def vis_b_to_a(self, b: CommandInfo, a: CommandInfo) -> BoolVar:
        key = ("V", b.label, a.label)
        var = self._vis_cache.get(key)
        if var is None:
            var = self.builder.var(f"V[{b.label}->{a.label}]")
            self._vis_cache[key] = var
        return var

    def vis_a_to_b(self, a: CommandInfo, b: CommandInfo) -> BoolVar:
        key = ("W", a.label, b.label)
        var = self._vis_cache.get(key)
        if var is None:
            var = self.builder.var(f"W[{a.label}->{b.label}]")
            self._vis_cache[key] = var
        return var

    def alias(self, x: CommandInfo, x_side: str, y: CommandInfo, y_side: str) -> Formula:
        """Alias formula between a node of side ``x_side`` ('A'/'B') and
        one of ``y_side``; sides matter because two instances of the same
        transaction have independent arguments."""
        # Tuple-keyed memo: (side, label) tuples order exactly like the
        # historical "side:label" strings (labels contain no colons), so
        # the canonical orientation -- and hence variable naming and
        # allocation order -- is unchanged, minus the per-call string
        # formatting.
        kx = (x_side, x.label)
        ky = (y_side, y.label)
        canon = (kx, ky) if kx <= ky else (ky, kx)
        cached = self._alias_cache.get(canon)
        if cached is not None:
            return cached
        same_instance = x_side == y_side
        verdict = alias_commands(
            x, y, same_instance=same_instance, distinct_args=self.distinct_args
        )
        if verdict is Alias.ALWAYS:
            out: Formula = TRUE
        elif verdict is Alias.NEVER:
            out = FALSE
        else:
            (s0, l0), (s1, l1) = canon
            out = self.builder.var(f"alias[{s0}:{l0}|{s1}:{l1}]")
        self._alias_cache[canon] = out
        return out

    @staticmethod
    def _node_key(cmd: CommandInfo, side: str) -> str:
        return f"{side}:{cmd.label}"

    def resolve_literal(self, var: BoolVar) -> int:
        """The solver literal for a (possibly new) named variable."""
        return self.builder.literal(var)

    # -- axiom construction ------------------------------------------------

    def assert_axioms(self) -> None:
        self._assert_alias_transitivity()
        if self.level.total_order:
            self._assert_serializable()
        if self.level.session_frozen:
            self._assert_frozen()
        if self.level.causal:
            self._assert_causal()

    # The per-feature axiom sets are produced by constraint generators
    # shared between clause assertion (below) and model evaluation
    # (:meth:`model_satisfies`), so the warm-session shortcut that checks
    # a cached model against a level's axioms can never drift from what
    # the solver would enforce.

    def _nodes(self) -> List[Tuple[CommandInfo, str]]:
        out = [(self.c1, "A"), (self.c2, "A")]
        out += [(cmd, "B") for cmd in self.b.commands]
        return out

    def _alias_triangles(self) -> List[Tuple[Formula, Formula, Formula]]:
        """Per-table alias triangles ``(axy, ayz, axz)``; each is
        transitively closed in all three directions.  Materialised once:
        both assertion and per-candidate model screening walk the same
        list, and the alias variables intern on the first build."""
        if self._triangles is not None:
            return self._triangles
        nodes = self._nodes()
        by_table: Dict[str, List[Tuple[CommandInfo, str]]] = {}
        for node in nodes:
            by_table.setdefault(node[0].table, []).append(node)
        triangles: List[Tuple[Formula, Formula, Formula]] = []
        for group in by_table.values():
            n = len(group)
            if n < 3:
                continue
            # Index-keyed pair memo: self.alias() pays string formatting
            # and a sorted-tuple cache key per call, which the O(n^3)
            # triangle loop repeats ~n times per pair.  First-call order
            # per pair is exactly the inline loop's, so alias-variable
            # allocation order (and hence models) is unchanged.
            pair: Dict[Tuple[int, int], Formula] = {}

            def side(i: int, j: int) -> Formula:
                f = pair.get((i, j))
                if f is None:
                    x, y = group[i], group[j]
                    f = self.alias(x[0], x[1], y[0], y[1])
                    pair[(i, j)] = f
                return f

            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        triangles.append((side(i, j), side(j, k), side(i, k)))
        self._triangles = triangles
        return triangles

    def _assert_alias_transitivity(self) -> None:
        builder = self.builder
        if not builder.fold_constants:
            for axy, ayz, axz in self._alias_triangles():
                builder.assert_implication((axy, ayz), axz)
                builder.assert_implication((axy, axz), ayz)
                builder.assert_implication((ayz, axz), axy)
            return
        # Folding fast path: resolve each triangle side to its literal
        # once (the generic path re-encodes each side per implication)
        # and emit the three clauses at the literal level.  Emission
        # order and variable allocation order match assert_implication
        # exactly, so models -- and hence witnesses -- are unchanged.
        fold = builder.fold_literal
        emit = builder.assert_implication_lits
        emit_raw = builder._emit
        # Each alias formula appears in up to n-2 triangles; resolve it
        # to its literal once (id-keyed: formulas are interned per
        # encoder, and the triangle list keeps them alive).  First-fold
        # order matches the inline loop's, so variable allocation order
        # -- and hence models and witnesses -- is unchanged.
        lits: Dict[int, object] = {}
        true_lit = false_lit = None

        def _raw_installer():
            # Direct arena installation for the screened fast-path
            # clauses.  Sound only while add_clause_unchecked's passes
            # would all no-op: no active group (no guard literal to
            # append), root level with nothing but the pinned constant
            # assigned (no simplification possible: fast-path clauses
            # never contain the constant), and the solver still
            # consistent.  Returns None when any condition fails.
            solver = builder.solver
            if (
                builder._group is not None
                or not solver._ok
                or solver.trail_lim
                or any((t >> 1) != const_var for t in solver.trail)
            ):
                return None
            c_off = solver._c_off
            c_len = solver._c_len
            c_act = solver._c_act
            c_learned = solver._c_learned
            arena = solver._lits
            watches = solver.watches
            clauses = solver.clauses

            def raw(cl):
                cid = len(c_off)
                c_off.append(len(arena))
                c_len.append(len(cl))
                c_act.append(0.0)
                c_learned.append(False)
                arena.extend(cl)
                watches[cl[0] ^ 1].append(cid)
                watches[cl[1] ^ 1].append(cid)
                clauses.append(cid)

            return raw

        for triangle in self._alias_triangles():
            sides = []
            for f in triangle:
                l = lits.get(id(f))
                if l is None:
                    l = fold(f)
                    lits[id(f)] = l
                sides.append(l)
            if true_lit is None:
                # Pin the shared constant exactly where the historical
                # first assert_implication_lits call did, keeping the
                # constant's variable index and root unit unchanged.
                true_lit = builder._const_lit(True)
                false_lit = sat_neg(true_lit)
                const_var = true_lit >> 1
                emit_raw = _raw_installer() or emit_raw
            lxy, lyz, lxz = sides
            kxy = lxy >> 1 == const_var
            kyz = lyz >> 1 == const_var
            kxz = lxz >> 1 == const_var
            if not (kxy or kyz or kxz):
                # All-free fast path: triangle sides are three *distinct*
                # positive alias-variable literals (each unordered node
                # pair interns its own variable), admitting no folding,
                # deduplication, or tautology -- emit exactly the clauses
                # assert_implication_lits would, minus its screening.
                nxy, nyz, nxz = sat_neg(lxy), sat_neg(lyz), sat_neg(lxz)
                emit_raw([nxy, nyz, lxz])
                emit_raw([nxy, nxz, lyz])
                emit_raw([nyz, nxz, lxy])
            elif kxy + kyz + kxz == 1:
                # One constant side (an ALWAYS/NEVER alias verdict), two
                # free ones: the three implications fold to the clause
                # lists below -- hand-evaluated from the
                # assert_implication_lits rules, emission order preserved.
                if kxz:
                    if lxz == false_lit:
                        emit_raw([sat_neg(lxy), sat_neg(lyz)])
                    else:
                        emit_raw([sat_neg(lxy), lyz])
                        emit_raw([sat_neg(lyz), lxy])
                elif kyz:
                    if lyz == false_lit:
                        emit_raw([sat_neg(lxy), sat_neg(lxz)])
                    else:
                        emit_raw([sat_neg(lxy), lxz])
                        emit_raw([sat_neg(lxz), lxy])
                else:
                    if lxy == false_lit:
                        emit_raw([sat_neg(lyz), sat_neg(lxz)])
                    else:
                        emit_raw([sat_neg(lyz), lxz])
                        emit_raw([sat_neg(lxz), lyz])
            else:
                emit((lxy, lyz), lxz)
                emit((lxy, lxz), lyz)
                emit((lyz, lxz), lxy)
                # The generic path can enqueue root units (folded
                # multi-constant triangles) or flip the solver
                # inconsistent; re-validate the raw installer before
                # the next fast-path use.
                emit_raw = _raw_installer() or builder._emit

    def transitivity_holds(self, model: Dict[str, bool]) -> bool:
        """Whether a candidate assignment respects alias transitivity."""
        screen = self._tri_screen
        if screen is None:
            # Triangle sides are alias() results -- TRUE/FALSE or a
            # BoolVar -- so flatten each to a bool or a variable name
            # once; the screen then runs per candidate model on plain
            # dict lookups instead of recursive formula evaluation.
            screen = [
                tuple(
                    f.value if f is TRUE or f is FALSE else f.name
                    for f in triangle
                )
                for triangle in self._alias_triangles()
            ]
            self._tri_screen = screen
        get = model.get
        for sa, sb, sc in screen:
            a = sa if sa.__class__ is bool else get(sa, False)
            b = sb if sb.__class__ is bool else get(sb, False)
            c = sc if sc.__class__ is bool else get(sc, False)
            if (a and b and not c) or (a and c and not b) or (b and c and not a):
                return False
        return True

    # The three per-feature link lists below were generators; every
    # axiom-group build and model screen re-ran them from scratch, and
    # generator resumption dominated the profile.  They are now built
    # once per encoder (the constituent variables are interned, so the
    # lists stay valid) in exactly the historical yield order, which
    # pins variable allocation order and hence models and witnesses.

    def _serializable_links(self):
        """``(vis, flipped)`` pairs: each visibility variable is
        equivalent to the commit-order boolean (``order[A<B]`` true means
        the A instance commits first), negated when ``flipped``."""
        links = self._serial_links
        if links is None:
            links = []
            app = links.append
            vis_b = self.vis_b_to_a
            vis_a = self.vis_a_to_b
            c1, c2 = self.c1, self.c2
            for b in self.b.writes():
                app((vis_b(b, c1), True))
                app((vis_b(b, c2), True))
            for a in (c1, c2):
                if not a.is_write:
                    continue
                for b in self.b.commands:
                    app((vis_a(a, b), False))
            self._serial_links = links
        return links

    def _assert_serializable(self) -> None:
        # `ab` true: the A instance commits first.
        ab = self.builder.var("order[A<B]")
        for vis, flipped in self._serializable_links():
            self.builder.add(Iff(vis, Not(ab) if flipped else ab))

    def _frozen_pairs(self):
        """Variable pairs constrained to be equivalent: a transaction's
        view is fixed for its whole execution."""
        pairs = self._frozen_links
        if pairs is None:
            pairs = []
            app = pairs.append
            vis_b = self.vis_b_to_a
            vis_a = self.vis_a_to_b
            c1, c2 = self.c1, self.c2
            for b in self.b.writes():
                app((vis_b(b, c1), vis_b(b, c2)))
            a_writes = [c for c in (c1, c2) if c.is_write]
            b_cmds = self.b.commands
            for a in a_writes:
                for i in range(len(b_cmds)):
                    for j in range(i + 1, len(b_cmds)):
                        app((vis_a(a, b_cmds[i]), vis_a(a, b_cmds[j])))
            self._frozen_links = pairs
        return pairs

    def _assert_frozen(self) -> None:
        for v1, v2 in self._frozen_pairs():
            self.builder.add(Iff(v1, v2))

    def _causal_implications(self):
        """``(antecedent, consequent)`` visibility implications."""
        impls = self._causal_links
        if impls is None:
            impls = []
            app = impls.append
            vis_b = self.vis_b_to_a
            vis_a = self.vis_a_to_b
            c1, c2 = self.c1, self.c2
            # Session-prefix closure: seeing a later write of a session
            # implies seeing its earlier writes.
            b_writes = self.b.writes()
            for i in range(len(b_writes)):
                for j in range(i + 1, len(b_writes)):
                    earlier, later = b_writes[i], b_writes[j]
                    app((vis_b(later, c1), vis_b(earlier, c1)))
                    app((vis_b(later, c2), vis_b(earlier, c2)))
            # Monotone growth: views never shrink within a session.
            for b in b_writes:
                app((vis_b(b, c1), vis_b(b, c2)))
            if c1.is_write and c2.is_write:
                for b in self.b.commands:
                    app((vis_a(c2, b), vis_a(c1, b)))
            a_writes = [c for c in (c1, c2) if c.is_write]
            b_cmds = self.b.commands
            for a in a_writes:
                for i in range(len(b_cmds)):
                    for j in range(i + 1, len(b_cmds)):
                        app((vis_a(a, b_cmds[i]), vis_a(a, b_cmds[j])))
            self._causal_links = impls
        return impls

    def _assert_causal(self) -> None:
        for antecedent, consequent in self._causal_implications():
            self.builder.assert_implication((antecedent,), consequent)

    def model_satisfies(self, level: ConsistencyLevel, model: Dict[str, bool]) -> bool:
        """Whether a (skeleton) model already satisfies ``level``'s
        axioms -- the warm-session shortcut that turns a repeat query
        into a pure model evaluation.  Walks per-feature variable-name
        lists materialised once from the same constraint generators the
        assertion methods use, so the screen can never drift from what
        the solver would enforce."""
        get = model.get
        if level.session_frozen:
            if self._frozen_names is None:
                self._frozen_names = [
                    (v1.name, v2.name) for v1, v2 in self._frozen_pairs()
                ]
            for n1, n2 in self._frozen_names:
                if get(n1, False) != get(n2, False):
                    return False
        if level.causal:
            if self._causal_names is None:
                self._causal_names = [
                    (a.name, c.name) for a, c in self._causal_implications()
                ]
            for antecedent, consequent in self._causal_names:
                if get(antecedent, False) and not get(consequent, False):
                    return False
        if level.total_order:
            if self._serial_names is None:
                self._serial_names = [
                    (vis.name, flipped)
                    for vis, flipped in self._serializable_links()
                ]
            links = self._serial_names
            for order_ab in (False, True):
                if all(
                    get(name, False) == (not order_ab if flipped else order_ab)
                    for name, flipped in links
                ):
                    break
            else:
                return False
        return True

    # -- violation patterns ---------------------------------------------------

    def collect_disjuncts(self) -> List[Disjunct]:
        out: List[Disjunct] = []
        out += self._fractured_read()
        out += self._fractured_write()
        out += self._read_write_race(self.c1, self.c2, forward=True)
        out += self._read_write_race(self.c2, self.c1, forward=False)
        return out

    def _read_conflicts(self, cmd: CommandInfo):
        """B writes conflicting with ``cmd``'s reads."""
        return _read_conflict_list(cmd, self.b.commands, self.distinct_args)

    def _write_conflicts(self, cmd: CommandInfo):
        """B reads conflicting with ``cmd``'s writes."""
        return _write_conflict_list(cmd, self.b.commands, self.distinct_args)

    def _fractured_read(self) -> List[Disjunct]:
        cands1 = self._read_conflicts(self.c1)
        cands2 = self._read_conflicts(self.c2)
        out: List[Disjunct] = []
        for w1, f1 in cands1:
            for w2, f2 in cands2:
                if w1.label == w2.label and f1 == f2 and self.c1.table != self.c2.table:
                    pass  # still a valid witness; no special casing needed
                a1 = self.alias(w1, "B", self.c1, "A")
                a2 = self.alias(w2, "B", self.c2, "A")
                v1 = self.vis_b_to_a(w1, self.c1)
                v2 = self.vis_b_to_a(w2, self.c2)
                fracture = Or(And(v1, Not(v2)), And(Not(v1), v2))
                out.append(
                    Disjunct(
                        formula=And(a1, a2, fracture),
                        pattern="fractured-read",
                        fields1=f1,
                        fields2=f2,
                        partner1=w1.label,
                        partner2=w2.label,
                    )
                )
        return out

    def _fractured_write(self) -> List[Disjunct]:
        if not (self.c1.is_write and self.c2.is_write):
            return []
        cands1 = self._write_conflicts(self.c1)
        cands2 = self._write_conflicts(self.c2)
        out: List[Disjunct] = []
        for r1, f1 in cands1:
            for r2, f2 in cands2:
                a1 = self.alias(self.c1, "A", r1, "B")
                a2 = self.alias(self.c2, "A", r2, "B")
                v1 = self.vis_a_to_b(self.c1, r1)
                v2 = self.vis_a_to_b(self.c2, r2)
                fracture = Or(And(v1, Not(v2)), And(Not(v1), v2))
                out.append(
                    Disjunct(
                        formula=And(a1, a2, fracture),
                        pattern="fractured-write",
                        fields1=f1,
                        fields2=f2,
                        partner1=r1.label,
                        partner2=r2.label,
                    )
                )
        return out

    def _read_write_race(
        self, reader: CommandInfo, writer: CommandInfo, forward: bool
    ) -> List[Disjunct]:
        """``reader`` reads what B writes; ``writer`` writes what B reads;
        neither instance observes the other (lost update / write skew)."""
        if not writer.is_write or not reader.read_fields:
            return []
        # Freshly-keyed inserts are functional updates: they never
        # overwrite, so they cannot lose (or be lost to) a concurrent
        # update -- the commutativity the logger refactoring exploits.
        if writer.uuid_key:
            return []
        w_cands = [
            (w, f) for w, f in self._read_conflicts(reader) if not w.uuid_key
        ]
        r_cands = self._write_conflicts(writer)
        out: List[Disjunct] = []
        for w_b, f_r in w_cands:
            for r_b, f_w in r_cands:
                a1 = self.alias(w_b, "B", reader, "A")
                a2 = self.alias(writer, "A", r_b, "B")
                miss_b = Not(self.vis_b_to_a(w_b, reader))
                miss_a = Not(self.vis_a_to_b(writer, r_b))
                fields = (f_r, f_w) if forward else (f_w, f_r)
                out.append(
                    Disjunct(
                        formula=And(a1, a2, miss_b, miss_a),
                        pattern="rw-race",
                        fields1=fields[0],
                        fields2=fields[1],
                        partner1=w_b.label if forward else r_b.label,
                        partner2=r_b.label if forward else w_b.label,
                    )
                )
        return out

    # -- top level ---------------------------------------------------------

    def solve(self, budget=None) -> Optional[PairWitness]:
        """Check the pair against this interferer; None when safe."""
        disjuncts = self.collect_disjuncts()
        if not disjuncts:
            return None
        self.assert_axioms()
        self.builder.add(big_or([d.formula for d in disjuncts]))
        model = self.builder.check(budget=budget)
        if model is None:
            return None
        fields1: FrozenSet[str] = frozenset()
        fields2: FrozenSet[str] = frozenset()
        pattern = ""
        for d in disjuncts:
            if evaluate(d.formula, model):
                fields1 |= d.fields1
                fields2 |= d.fields2
                pattern = pattern or d.pattern
        return PairWitness(
            interferer=self.b.name,
            pattern=pattern or disjuncts[0].pattern,
            fields1=fields1,
            fields2=fields2,
        )


@lru_cache(maxsize=16384)
def _field_set(fields: Tuple[str, ...]) -> FrozenSet[str]:
    """Interned frozenset view of a field tuple: the conflict scans
    intersect the same few field tuples across thousands of sessions."""
    return frozenset(fields)


@lru_cache(maxsize=65536)
def _read_conflict_list(
    cmd: CommandInfo,
    b_commands: Tuple[CommandInfo, ...],
    distinct_args: bool,
) -> Tuple[Tuple[CommandInfo, FrozenSet[str]], ...]:
    """Interferer writes conflicting with ``cmd``'s reads.

    A pure function of the (frozen) command summaries, memoised
    globally: the repair search re-derives the same ``(command,
    interferer)`` conflict scans across thousands of candidate
    programs whose focus *triples* are fresh but whose components
    repeat.  Entry order matches the historical inline scan (command
    order filtered to writes), so disjunct order -- and hence models
    and witnesses -- is unchanged.
    """
    out = []
    for w in b_commands:
        if not w.is_write or w.table != cmd.table:
            continue
        fields = _field_set(w.write_fields) & _field_set(cmd.read_fields)
        if fields and alias_commands(
            w, cmd, same_instance=False, distinct_args=distinct_args
        ) is not Alias.NEVER:
            out.append((w, fields))
    return tuple(out)


@lru_cache(maxsize=65536)
def _write_conflict_list(
    cmd: CommandInfo,
    b_commands: Tuple[CommandInfo, ...],
    distinct_args: bool,
) -> Tuple[Tuple[CommandInfo, FrozenSet[str]], ...]:
    """Interferer reads conflicting with ``cmd``'s writes (see
    :func:`_read_conflict_list` for the memoisation rationale)."""
    out = []
    for r in b_commands:
        if r.table != cmd.table:
            continue
        fields = _field_set(cmd.write_fields) & _field_set(r.read_fields)
        if fields and alias_commands(
            cmd, r, same_instance=False, distinct_args=distinct_args
        ) is not Alias.NEVER:
            out.append((r, fields))
    return tuple(out)


def has_disjuncts(
    c1: CommandInfo,
    c2: CommandInfo,
    b_commands: Tuple[CommandInfo, ...],
    distinct_args: bool,
) -> bool:
    """Whether :meth:`PairEncoder.collect_disjuncts` would be non-empty.

    Decides emptiness from the memoised conflict lists alone -- without
    a builder, a solver, or any formula construction -- mirroring each
    pattern's candidate-product shape exactly.  Most repair-candidate
    queries die here: the rewrite removed the conflict, so the triple
    has no disjuncts and needs no encoder at all.
    """
    r1 = _read_conflict_list(c1, b_commands, distinct_args)
    r2 = _read_conflict_list(c2, b_commands, distinct_args)
    # Fractured read: one disjunct per (w1, w2) candidate pair.
    if r1 and r2:
        return True
    # Fractured write: both focus commands write, candidates on both.
    if (
        c1.is_write
        and c2.is_write
        and _write_conflict_list(c1, b_commands, distinct_args)
        and _write_conflict_list(c2, b_commands, distinct_args)
    ):
        return True
    # Read-write race, both orientations.
    for reader, writer, r_cands in ((c1, c2, r1), (c2, c1, r2)):
        if not writer.is_write or not reader.read_fields or writer.uuid_key:
            continue
        if any(not w.uuid_key for w, _ in r_cands) and _write_conflict_list(
            writer, b_commands, distinct_args
        ):
            return True
    return False


def tables_may_conflict(
    c1: CommandInfo, c2: CommandInfo, summary_b: TransactionSummary
) -> bool:
    """Cheap sound screen: every violation pattern needs an interferer
    command on the table of ``c1`` or ``c2``, so a triple with no shared
    table has no disjuncts and never reaches the solver."""
    tables = {c1.table, c2.table}
    return any(cmd.table in tables for cmd in summary_b.commands)


class PairSession:
    """Warm incremental SAT session for one ``(c1, c2, B)`` focus triple.

    A cold query (:meth:`PairEncoder.solve`, or the pipeline's
    ``solve_query``) rebuilds the entire encoding for every consistency
    level: formula construction, Tseitin conversion, and a fresh solver
    per query.  The session instead registers the level-independent
    skeleton exactly once on one persistent incremental solver --
    visibility/alias variables, alias transitivity, and the anomaly
    disjunction -- and puts each consistency feature's axiom set
    (serializable / frozen / causal) in its own retractable
    activation-literal group, created lazily the first time a queried
    level needs it.  A repeat query at a new level then reduces to a
    single assumption-based solve that retains the learned clauses and
    VSIDS activity of every earlier query on the triple.
    """

    # (ConsistencyLevel flag, axiom assertion method) in the exact order
    # assert_axioms applies them, so warm encodings match cold ones.
    _FEATURES = (
        ("total_order", "_assert_serializable"),
        ("session_frozen", "_assert_frozen"),
        ("causal", "_assert_causal"),
    )

    def __init__(
        self,
        c1: CommandInfo,
        c2: CommandInfo,
        summary_b: TransactionSummary,
        distinct_args: bool = True,
    ):
        self.c1 = c1
        self.c2 = c2
        self.summary_b = summary_b
        self.distinct_args = distinct_args
        self.queries = 0
        self.model_hits = 0
        self._encoder: Optional[PairEncoder] = None
        self._disjuncts: Optional[List[Disjunct]] = None
        self._groups: Dict[str, int] = {}
        # Models known to satisfy skeleton + disjunction, newest last
        # (bounded); candidates for the warm model-reuse shortcut.
        self._models: List[Dict[str, bool]] = []
        self._static_candidates: Optional[List[Dict[str, bool]]] = None
        # Witness extraction memo, keyed by the identity of the model
        # object (models live in _models/_static_candidates, so their
        # ids are stable while referenced).
        self._witness_by_model: Dict[int, PairWitness] = {}

    @property
    def warmed(self) -> bool:
        """Whether the skeleton has been encoded on the warm solver."""
        return self._disjuncts is not None

    def _ensure_warm(self) -> None:
        if self._disjuncts is not None:
            return
        if not tables_may_conflict(self.c1, self.c2, self.summary_b):
            self._disjuncts = []
            return
        if not has_disjuncts(
            self.c1, self.c2, self.summary_b.commands, self.distinct_args
        ):
            # Emptiness decided from the memoised conflict lists: skip
            # the builder, the solver, and all formula construction.
            # Externally identical to building the encoder and finding
            # collect_disjuncts() empty (the encoder was discarded).
            self._disjuncts = []
            return
        encoder = PairEncoder(
            None,
            self.c1,
            self.c2,
            self.summary_b,
            EC,
            distinct_args=self.distinct_args,
            fold_constants=True,
        )
        disjuncts = encoder.collect_disjuncts()
        self._disjuncts = disjuncts
        if not disjuncts:
            return
        # The level-independent skeleton, registered once: EC's axiom set
        # is exactly alias transitivity, and the violation disjunction is
        # the same formula for every level.
        encoder.assert_axioms()
        encoder.builder.add(big_or([d.formula for d in disjuncts]))
        self._encoder = encoder

    def _axiom_groups(self, level: ConsistencyLevel) -> List[int]:
        """Activation groups for ``level``'s axioms, building each
        feature's group on first use.

        The feature axioms are pure binary constraints over interned
        variables, so the session resolves them to literals once and
        emits the guarded clauses through the solver's group API --
        the same clause set the formula layer's folded shortcuts
        produce, minus the per-query formula-object construction.
        """
        assert self._encoder is not None
        encoder = self._encoder
        builder = encoder.builder
        groups: List[int] = []
        for flag, _ in self._FEATURES:
            if not getattr(level, flag):
                continue
            group_id = self._groups.get(flag)
            if group_id is None:
                group_id = builder.new_group()
                solver = builder.solver
                resolve = encoder.resolve_literal
                if flag == "total_order":
                    ab = resolve(builder.var("order[A<B]"))
                    for vis, flipped in encoder._serializable_links():
                        v = resolve(vis)
                        order = sat_neg(ab) if flipped else ab
                        solver.add_clause([sat_neg(v), order], group=group_id)
                        solver.add_clause([v, sat_neg(order)], group=group_id)
                elif flag == "session_frozen":
                    for v1, v2 in encoder._frozen_pairs():
                        l1, l2 = resolve(v1), resolve(v2)
                        solver.add_clause([sat_neg(l1), l2], group=group_id)
                        solver.add_clause([l1, sat_neg(l2)], group=group_id)
                else:  # causal
                    for antecedent, consequent in encoder._causal_implications():
                        solver.add_clause(
                            [sat_neg(resolve(antecedent)), resolve(consequent)],
                            group=group_id,
                        )
                self._groups[flag] = group_id
            groups.append(group_id)
        return groups

    def query_batch(
        self,
        levels: List[ConsistencyLevel],
        use_prefilter: bool = True,
        budget=None,
    ) -> List[Tuple[Optional[PairWitness], bool, Dict[str, int]]]:
        """Check the triple at each of ``levels`` in one warm sweep.

        Returns one ``(witness | None, solved, solver stat delta)`` per
        level, in order, where ``solved`` mirrors the cold path's
        accounting: False when the static screen emptied the query (and
        the prefilter is billing such queries as skipped).

        Warm shortcut: a model known to satisfy the skeleton and the
        disjunction (found by an earlier query, or the static empty-view
        candidate) that also satisfies a level's axioms proves that level
        SAT with no solving -- and no axiom groups ever built.  Levels
        only shrink the model set, so reusing a model across levels is
        sound.  The levels that miss the shortcut are discharged through
        a single :meth:`FormulaBuilder.check_batch` call -- one
        incremental solve sequence per triple instead of one Python
        round-trip through the stack per level.

        Levels are screened against the models known *before* the batch,
        so a model found mid-batch is not consulted for later levels of
        the same batch.  That can turn a would-be model hit into a
        (warm, assumption-based) solve; verdicts are unaffected, and each
        solve is independent of its batch neighbours by the
        group-assumption scheme.
        """
        self._ensure_warm()
        results: List[Tuple[Optional[PairWitness], bool, Dict[str, int]]]
        results = [None] * len(levels)  # type: ignore[list-item]
        if not self._disjuncts:
            for i in range(len(levels)):
                self.queries += 1
                results[i] = (None, not use_prefilter, {})
            return results
        assert self._encoder is not None
        pending: List[int] = []
        for i, level in enumerate(levels):
            self.queries += 1
            model = self._reusable_model(level)
            if model is not None:
                self.model_hits += 1
                results[i] = (self._witness_for(model), True, {})
            else:
                pending.append(i)
        if pending:
            builder = self._encoder.builder
            group_sets = [self._axiom_groups(levels[i]) for i in pending]
            stats_out: List[Dict[str, int]] = []
            models = builder.check_batch(
                group_sets, budget=budget, stats_out=stats_out
            )
            for i, model, delta in zip(pending, models, stats_out):
                if model is None:
                    results[i] = (None, True, delta)
                else:
                    self._remember_model(model)
                    results[i] = (self._witness_for(model), True, delta)
        return results

    def _witness_for(self, model: Dict[str, bool]) -> PairWitness:
        """Extract (and memoise) the witness a model proves."""
        assert self._disjuncts is not None
        witness = self._witness_by_model.get(id(model))
        if witness is None:
            fields1: FrozenSet[str] = frozenset()
            fields2: FrozenSet[str] = frozenset()
            pattern = ""
            for d in self._disjuncts:
                if evaluate(d.formula, model):
                    fields1 |= d.fields1
                    fields2 |= d.fields2
                    pattern = pattern or d.pattern
            witness = PairWitness(
                interferer=self.summary_b.name,
                pattern=pattern or self._disjuncts[0].pattern,
                fields1=fields1,
                fields2=fields2,
            )
            self._witness_by_model[id(model)] = witness
        return witness

    _MAX_MODELS = 4

    def _reusable_model(self, level: ConsistencyLevel) -> Optional[Dict[str, bool]]:
        """A known skeleton+disjunction model satisfying ``level``'s
        axioms, or None.  Only consulted once the session is warm (a
        solver-found model exists), so a session's first query -- the
        one whose witness the repair loop consumes -- is always solved
        cold and stays bit-identical to the cold encoder."""
        if not self._models:
            return None
        assert self._encoder is not None
        for model in reversed(self._models):
            if self._encoder.model_satisfies(level, model):
                return model
        for candidate in self._candidate_models():
            if self._encoder.model_satisfies(level, candidate):
                return candidate
        return None

    def _remember_model(self, model: Dict[str, bool]) -> None:
        self._models.append(model)
        if len(self._models) > self._MAX_MODELS:
            evicted = self._models.pop(0)
            # Drop the memoised witness too: once the dict is garbage
            # collected its id may be reused by a different model.
            self._witness_by_model.pop(id(evicted), None)

    def _candidate_models(self) -> List[Dict[str, bool]]:
        """Closed-form skeleton models derived from the disjunct shapes.

        Every candidate sets all free alias variables true (screened
        against alias transitivity once) and picks visibility values
        that make one disjunct true while keeping views session-prefix
        closed and monotone:

        - the *empty view* (all visibility false) realises rw-race
          disjuncts -- and trivially satisfies frozen and causal;
        - for a fractured read over distinct writes, both commands see
          the same prefix of the interferer's session cut at the
          earlier write -- equal views satisfy frozen, prefixes satisfy
          causal, and the later write's absence fractures the read;
        - for a fractured read over one shared write (CC only), the
          first command's view stops just short of it and the second's
          includes it -- monotone growth, but not frozen;
        - for a fractured write, one focus write is visible to every
          interferer command and the other to none.

        Each construction is re-screened by :meth:`PairEncoder.
        model_satisfies` / the disjunct evaluation before use, so the
        closed forms can only ever skip the solver, not mislead it.
        Candidates are built once per session, in disjunct order.
        """
        if self._static_candidates is not None:
            return self._static_candidates
        assert self._encoder is not None and self._disjuncts is not None
        encoder = self._encoder
        aliases = {
            f.name: True
            for f in encoder._alias_cache.values()
            if isinstance(f, BoolVar)
        }
        candidates: List[Dict[str, bool]] = []
        if encoder.transitivity_holds(aliases):
            b_writes = list(self.summary_b.writes())
            write_index = {w.label: i for i, w in enumerate(b_writes)}
            b_cmds = self.summary_b.commands

            def prefix_view(cutoff: int, cutoff2: int) -> Dict[str, bool]:
                view = dict(aliases)
                for i, w in enumerate(b_writes):
                    view[encoder.vis_b_to_a(w, self.c1).name] = i <= cutoff
                    view[encoder.vis_b_to_a(w, self.c2).name] = i <= cutoff2
                return view

            seen_shapes = set()
            for d in self._disjuncts:
                if d.pattern == "rw-race":
                    shape = ("empty",)
                    if shape not in seen_shapes:
                        seen_shapes.add(shape)
                        candidates.append(dict(aliases))
                elif d.pattern == "fractured-read":
                    i1 = write_index.get(d.partner1)
                    i2 = write_index.get(d.partner2)
                    if i1 is None or i2 is None:
                        continue
                    if i1 != i2:
                        cut = min(i1, i2)
                        shape = ("prefix", cut, cut)
                    else:
                        # Shared write: views may only differ by growth.
                        shape = ("prefix", i1 - 1, i1)
                    if shape not in seen_shapes:
                        seen_shapes.add(shape)
                        candidates.append(prefix_view(shape[1], shape[2]))
                elif d.pattern == "fractured-write":
                    for winner in ("c1", "c2"):
                        shape = ("writer", winner)
                        if shape in seen_shapes:
                            continue
                        seen_shapes.add(shape)
                        view = dict(aliases)
                        vis_cmd = self.c1 if winner == "c1" else self.c2
                        for b in b_cmds:
                            view[encoder.vis_a_to_b(vis_cmd, b).name] = True
                        candidates.append(view)
            candidates = [
                c
                for c in candidates
                if any(evaluate(d.formula, c) for d in self._disjuncts)
            ]
        self._static_candidates = candidates
        return candidates

    def retire_axioms(self, level: ConsistencyLevel) -> int:
        """Retire the activation groups of ``level``'s axiom features;
        returns how many groups were dropped.  Later queries needing a
        retired feature rebuild it in a fresh group."""
        dropped = 0
        if self._encoder is None:
            return dropped
        for flag, _ in self._FEATURES:
            if not getattr(level, flag):
                continue
            group_id = self._groups.pop(flag, None)
            if group_id is not None:
                self._encoder.builder.retire_group(group_id)
                dropped += 1
        return dropped

    def close(self) -> None:
        """Release the warm solver.

        The axiom groups die with the solver -- the whole builder is
        dropped here, so retiring them first (a root unit clause plus
        propagation bookkeeping per group, on a solver about to be
        garbage collected) would be pure overhead.
        """
        self._groups = {}
        self._encoder = None
        self._disjuncts = None
        self._models = []
        self._static_candidates = None
        self._witness_by_model = {}


_ENCODING_FINGERPRINT: Optional[str] = None


def encoding_fingerprint() -> str:
    """Version digest of the anomaly encoding, for persistent caches.

    A cached query outcome is only reusable across runs while the code
    that produced it is unchanged, so the persistent
    :class:`~repro.analysis.pipeline.PersistentQueryCache` stamps every
    store with this digest: a sha1 over the *source* of each module the
    outcome of a query -- or the meaning of its cache key -- depends on
    (command summaries, aliasing, the consistency axioms, this
    encoding, the formula/solver layers, and the pipeline module that
    defines the structural fingerprints themselves).  Any edit to any
    of them -- even a changed model-picking heuristic or a coarsened
    fingerprint -- yields a new digest and silently retires every
    persisted entry, which is exactly the "versioned invalidation on
    encoding changes" contract: no manual version constant to forget to
    bump.  The cost of the coarse net is only over-invalidation, never
    stale replay.
    """
    global _ENCODING_FINGERPRINT
    if _ENCODING_FINGERPRINT is None:
        import hashlib
        import inspect
        import sys

        from repro.analysis import accesses, aliasing, consistency, pipeline
        from repro.smt import formula, solver

        digest = hashlib.sha1()
        modules = (
            accesses,
            aliasing,
            consistency,
            sys.modules[__name__],
            pipeline,
            formula,
            solver,
        )
        for module in modules:
            digest.update(inspect.getsource(module).encode())
        _ENCODING_FINGERPRINT = digest.hexdigest()
    return _ENCODING_FINGERPRINT
