"""A CDCL SAT solver.

Implements the standard modern architecture:

- literals are encoded as ``2*var`` (positive) / ``2*var + 1`` (negative),
  variables are dense non-negative integers allocated by the caller;
- unit propagation with two watched literals per clause;
- conflict analysis producing first-UIP learned clauses with
  non-chronological backjumping;
- exponential-moving-average variable activity (VSIDS flavour) with a
  binary-heap decision queue;
- Luby-sequence restarts;
- learned-clause deletion driven by clause activity.

The solver is deliberately dependency-free and deterministic: given the
same clause set it always makes the same decisions, which keeps the
anomaly detector's output stable across runs.

The solver is *incremental* in the MiniSat sense: clauses may be added
after prior :meth:`Solver.solve` calls without resetting any state, and
learned clauses, variable activity, and saved polarities all persist
across calls.  Retractable constraints use activation-literal groups:
:meth:`Solver.new_group` allocates a fresh activation variable, clauses
added with ``group=g`` are guarded by its negation, solving with ``g``
among the assumptions switches the group on, and
:meth:`Solver.retire_group` pins the activation variable false forever,
turning every clause of the group (including learned clauses derived
from them, which carry the guard literal) permanently inert.

Clauses live in an arena: their literals sit in one flat ``array('i')``
with (offset, length) headers in parallel lists; watcher lists and
reason slots hold small integer clause ids, and propagation walks a
``memoryview`` over the literal arena.  ``_reduce_db`` marks its
victims dead (length 0) and a compaction pass reclaims their arena
storage once dead literals dominate, so long-lived warm solvers stop
accreting garbage.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from repro.budget import Budget
from repro.errors import SolverError
from repro.faults import failpoint


def lit(var: int, positive: bool = True) -> int:
    """Encode a literal for ``var`` with the given polarity."""
    return 2 * var + (0 if positive else 1)


def neg(literal: int) -> int:
    """Negate an encoded literal."""
    return literal ^ 1


def lit_var(literal: int) -> int:
    return literal >> 1


def lit_sign(literal: int) -> bool:
    """True when the literal is positive."""
    return literal & 1 == 0


class SolverResult:
    """Outcome of a :meth:`Solver.solve` call.

    ``unknown`` is True when a :class:`~repro.budget.Budget` ran out
    before the search decided either way; ``sat`` is then False so the
    (budget-less) callers that truth-test the result keep their exact
    historical behaviour, and budget-aware callers must check
    ``unknown`` before trusting an UNSAT answer.
    """

    __slots__ = ("sat", "model", "unknown")

    def __init__(
        self,
        sat: bool,
        model: Optional[Dict[int, bool]] = None,
        unknown: bool = False,
    ):
        self.sat = sat
        self.model = model or {}
        self.unknown = unknown

    def __bool__(self) -> bool:
        return self.sat

    def value(self, var: int) -> bool:
        return self.model.get(var, False)


_UNASSIGNED = -1

#: Main-loop iterations between cooperative budget/failpoint checks.
#: Each iteration already does a full propagation pass, so one check
#: per 128 iterations is unmeasurable while still bounding how long a
#: solve can overrun its deadline (well under a millisecond).
_CHECK_EVERY = 128

#: Compaction threshold: reclaim arena storage once at least this many
#: literal slots are dead *and* the dead slots are the majority.  The
#: floor keeps tiny solvers from compacting on every reduction.
_COMPACT_MIN_DEAD = 1024


class Solver:
    """CDCL SAT solver over integer variables.

    Usage::

        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([lit(a), lit(b)])
        s.add_clause([neg(lit(a))])
        result = s.solve()
        assert result.sat and result.value(b)

    ``branching`` selects the decision queue: ``"heap"`` (default) keeps
    unassigned variables in an indexed binary max-heap ordered by VSIDS
    activity, popped lazily at decision time; ``"linear"`` is the
    reference O(num_vars) scan.  Ties break toward the lowest variable
    index in both, so the two modes make identical decisions.
    """

    def __init__(self, branching: str = "heap") -> None:
        if branching not in ("heap", "linear"):
            raise SolverError(f"unknown branching mode {branching!r}")
        self.branching = branching
        self.num_vars = 0
        # Arena clause storage: all clause literals in one flat int
        # array; clause `cid` occupies _lits[_c_off[cid] : _c_off[cid] +
        # _c_len[cid]].  A length of 0 marks a deleted clause whose
        # storage is reclaimed by _compact().  self.clauses/self.learned
        # hold clause ids; so do watcher lists and reason slots.
        self._lits = array("i")
        self._c_off: List[int] = []
        self._c_len: List[int] = []
        self._c_act: List[float] = []
        self._c_learned: List[bool] = []
        self._dead_lits = 0
        self.clauses: List[int] = []
        self.learned: List[int] = []
        # watches[l] = clause ids currently watching literal l.
        self.watches: List[List[int]] = []
        # assigns[v] in {0 (false), 1 (true), _UNASSIGNED}.
        self.assigns: List[int] = []
        self.levels: List[int] = []
        self.reasons: List[Optional[int]] = []
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.prop_head = 0
        self.activity: List[float] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.polarity: List[bool] = []
        # Indexed binary max-heap over unassigned variables (decision
        # queue).  heap holds variable indices; heap_pos[v] is v's slot
        # in heap, or -1 when absent.  Assigned variables are evicted
        # lazily at pop time and re-inserted on unassignment.
        self.heap: List[int] = []
        self.heap_pos: List[int] = []
        # Set when new variables arrived since the last bulk heap fill;
        # _cancel_until re-inserts unassigned variables itself, so the
        # O(V) fill only needs to run again after new_var().
        self._heap_dirty = True
        self._ok = True
        # Activation variables of live and retired clause groups.
        self._groups: set[int] = set()
        self._retired: set[int] = set()
        self._stats = {
            "decisions": 0,
            "propagations": 0,
            "conflicts": 0,
            "restarts": 0,
            "learned": 0,
            # Arena-era counters: watcher visits during propagation and
            # completed learned-DB reductions.
            "props": 0,
            "db_reductions": 0,
        }

    def stats(self) -> Dict[str, int]:
        """Snapshot of the cumulative solver counters.

        The counters accumulate over the solver's whole lifetime, so
        incremental consumers must take per-query deltas between
        snapshots (see :func:`stats_delta`) rather than reading the
        totals after each solve.

        Two entries are gauges rather than counters: ``arena_bytes``
        (current byte size of the literal arena) and ``learned_live``
        (learned clauses currently in the DB).  Their deltas measure
        growth between snapshots.
        """
        snapshot = dict(self._stats)
        snapshot["arena_bytes"] = len(self._lits) * self._lits.itemsize
        snapshot["learned_live"] = len(self.learned)
        return snapshot

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its index."""
        v = self.num_vars
        self.num_vars = v + 1
        w = self.watches
        w.append([])
        w.append([])
        self.assigns.append(_UNASSIGNED)
        self.levels.append(0)
        self.reasons.append(None)
        self.activity.append(0.0)
        self.polarity.append(False)
        # Joined to the decision heap in bulk at the next solve() call;
        # per-variable insertion here would cost O(V log V) per problem.
        self.heap_pos.append(-1)
        self._heap_dirty = True
        return v

    def new_group(self) -> int:
        """Allocate an activation-literal clause group.

        Returns the group id (the index of its activation variable).
        Clauses added with ``group=g`` are only enforced while ``g`` is
        switched on -- pass :meth:`group_literal` ``(g)`` among the
        ``solve`` assumptions -- and can be permanently dropped with
        :meth:`retire_group`.
        """
        g = self.new_var()
        self._groups.add(g)
        return g

    def group_literal(self, group: int) -> int:
        """The assumption literal that activates ``group``."""
        if group not in self._groups:
            raise SolverError(f"unknown clause group {group}")
        return lit(group, True)

    def retire_group(self, group: int) -> None:
        """Permanently deactivate ``group``.

        Pins the activation variable false at the root, so every clause
        of the group -- original or learned from it -- is satisfied by
        its guard literal and drops out of all future solving.  Retiring
        is idempotent; clauses added to a retired group are no-ops.
        """
        if group not in self._groups:
            raise SolverError(f"unknown clause group {group}")
        if group in self._retired:
            return
        self._retired.add(group)
        self.add_clause([lit(group, False)])

    def is_retired(self, group: int) -> bool:
        return group in self._retired

    def add_clause(self, literals: Iterable[int], group: Optional[int] = None) -> None:
        """Add a clause (a disjunction of encoded literals).

        With ``group``, the clause is guarded by the group's activation
        literal: it participates in solving only when the group is among
        the activated assumptions, and :meth:`retire_group` discards it.
        """
        if not self._ok:
            return
        if group is not None:
            if group not in self._groups:
                raise SolverError(f"unknown clause group {group}")
            literals = list(literals) + [lit(group, False)]
        seen: Dict[int, bool] = {}
        lits: List[int] = []
        for l in literals:
            v = lit_var(l)
            if v < 0 or v >= self.num_vars:
                raise SolverError(f"literal {l} references unallocated variable {v}")
            if l in seen:
                continue
            if neg(l) in seen:
                return  # Tautology: trivially satisfied.
            seen[l] = True
            lits.append(l)
        if not lits:
            self._ok = False
            return
        self.add_clause_unchecked(lits)

    def add_clause_unchecked(self, lits: List[int]) -> None:
        """Add a non-empty clause already known to be duplicate-free,
        tautology-free and within the allocated variable range.

        The Tseitin emitters produce exactly such clauses, so this skips
        :meth:`add_clause`'s screening passes; ``add_clause`` delegates
        here after screening, so the two paths share the top-level
        simplification (dropping clauses satisfied at level 0 and
        falsified literals) and clause installation.

        Clauses may be added after prior ``solve`` calls: any leftover
        search state is first rolled back to the root level so the
        watched-literal invariants hold for the new clause.
        """
        if not self._ok:
            return
        if self.trail_lim:
            self._cancel_until(0)
        # Root simplification and installation inlined (no _value /
        # _install_clause calls): this is the single hottest solver
        # entry point -- every Tseitin-emitted clause lands here.
        assigns = self.assigns
        filtered = []
        app = filtered.append
        for l in lits:
            a = assigns[l >> 1]
            if a == _UNASSIGNED:
                app(l)
            elif (a ^ (l & 1)) == 1:
                return
            # else: root-falsified literal, dropped
        n = len(filtered)
        if n == 0:
            self._ok = False
            return
        if n == 1:
            if not self._enqueue(filtered[0], None):
                self._ok = False
            return
        cid = len(self._c_off)
        self._c_off.append(len(self._lits))
        self._c_len.append(n)
        self._c_act.append(0.0)
        self._c_learned.append(False)
        self._lits.extend(filtered)
        self.watches[filtered[0] ^ 1].append(cid)
        self.watches[filtered[1] ^ 1].append(cid)
        self.clauses.append(cid)

    def _install_clause(self, lits: Sequence[int], learned: bool) -> int:
        """Append a clause to the arena and watch it; returns its id."""
        cid = len(self._c_off)
        self._c_off.append(len(self._lits))
        self._c_len.append(len(lits))
        self._c_act.append(0.0)
        self._c_learned.append(learned)
        self._lits.extend(lits)
        self.watches[lits[0] ^ 1].append(cid)
        self.watches[lits[1] ^ 1].append(cid)
        return cid

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------

    def _value(self, literal: int) -> int:
        """1 true, 0 false, _UNASSIGNED unknown."""
        a = self.assigns[lit_var(literal)]
        if a == _UNASSIGNED:
            return _UNASSIGNED
        return a ^ (literal & 1)

    @property
    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, literal: int, reason) -> bool:
        val = self._value(literal)
        if val == 0:
            return False
        if val == 1:
            return True
        v = lit_var(literal)
        self.assigns[v] = 1 if lit_sign(literal) else 0
        self.levels[v] = self._decision_level
        self.reasons[v] = reason
        self.trail.append(literal)
        return True

    def _propagate(self) -> Optional[int]:
        """Exhaust unit propagation; returns a conflicting clause id or
        None.

        Walks a ``memoryview`` over the literal arena.  The view is
        released before returning: a live view pins the array's buffer,
        and the caller is about to append learned-clause literals.
        """
        trail = self.trail
        assigns = self.assigns
        watches = self.watches
        offs = self._c_off
        lens = self._c_len
        stats = self._stats
        mv = memoryview(self._lits)
        try:
            while self.prop_head < len(trail):
                literal = trail[self.prop_head]
                self.prop_head += 1
                stats["propagations"] += 1
                watchers = watches[literal]
                watches[literal] = []
                nl = literal ^ 1
                i = 0
                n = len(watchers)
                stats["props"] += n
                while i < n:
                    cid = watchers[i]
                    i += 1
                    base = offs[cid]
                    # Ensure the falsified watch is position 1.
                    if mv[base] == nl:
                        mv[base], mv[base + 1] = mv[base + 1], mv[base]
                    first = mv[base]
                    a = assigns[first >> 1]
                    if a != _UNASSIGNED and a ^ (first & 1) == 1:
                        watches[literal].append(cid)
                        continue
                    # Look for a new watch.
                    found = False
                    for k in range(base + 2, base + lens[cid]):
                        lk = mv[k]
                        ak = assigns[lk >> 1]
                        if ak == _UNASSIGNED or ak ^ (lk & 1) != 0:
                            mv[base + 1], mv[k] = mv[k], mv[base + 1]
                            watches[mv[base + 1] ^ 1].append(cid)
                            found = True
                            break
                    if found:
                        continue
                    # Clause is unit or conflicting.
                    watches[literal].append(cid)
                    if not self._enqueue(first, cid):
                        # Conflict: restore remaining watchers and report.
                        watches[literal].extend(watchers[i:])
                        return cid
            return None
        finally:
            mv.release()

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: int) -> tuple[List[int], int]:
        """First-UIP analysis; returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * self.num_vars
        counter = 0
        literal = -1
        reason: Optional[int] = conflict
        index = len(self.trail)
        arena = self._lits
        offs = self._c_off
        lens = self._c_len
        while True:
            assert reason is not None
            self._bump_clause(reason)
            start = 0 if literal == -1 else 1
            base = offs[reason]
            # For the conflict clause consider all literals; for a reason
            # clause skip the asserting literal itself (position 0).
            for k in range(base + start, base + lens[reason]):
                q = arena[k] if literal == -1 or arena[k] != literal else None
                if q is None:
                    continue
                v = lit_var(q)
                if not seen[v] and self.levels[v] > 0:
                    seen[v] = True
                    self._bump_var(v)
                    if self.levels[v] >= self._decision_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick the next trail literal to resolve on.
            while True:
                index -= 1
                literal = self.trail[index]
                if seen[lit_var(literal)]:
                    break
            v = lit_var(literal)
            seen[v] = False
            counter -= 1
            if counter == 0:
                learned[0] = neg(literal)
                break
            reason = self.reasons[v]
            # Reason clause has the asserting literal at position 0; rotate
            # if necessary.
            if reason is not None:
                rbase = offs[reason]
                if arena[rbase] != literal:
                    idx = rbase
                    while arena[idx] != literal:
                        idx += 1
                    arena[rbase], arena[idx] = arena[idx], arena[rbase]
        # Minimise: drop literals implied by the rest (cheap self-subsumption).
        learned = self._minimize(learned, seen)
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        max_i = 1
        for k in range(2, len(learned)):
            if self.levels[lit_var(learned[k])] > self.levels[lit_var(learned[max_i])]:
                max_i = k
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.levels[lit_var(learned[1])]

    def _minimize(self, learned: List[int], seen: List[bool]) -> List[int]:
        for l in learned:
            seen[lit_var(l)] = True
        out = [learned[0]]
        arena = self._lits
        for l in learned[1:]:
            reason = self.reasons[lit_var(l)]
            if reason is None:
                out.append(l)
                continue
            # Redundant if every other literal of the reason is already in
            # the learned clause (or assigned at level 0).
            base = self._c_off[reason]
            nl = neg(l)
            redundant = all(
                seen[lit_var(q)] or self.levels[lit_var(q)] == 0
                for q in arena[base : base + self._c_len[reason]]
                if q != nl
            )
            if not redundant:
                out.append(l)
        for l in learned:
            seen[lit_var(l)] = False
        return out

    # ------------------------------------------------------------------
    # Activity / heuristics
    # ------------------------------------------------------------------

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(self.num_vars):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            # Uniform rescaling preserves ordering except where values
            # collapse into each other (underflow), so re-heapify.
            for i in range(len(self.heap) // 2 - 1, -1, -1):
                self._heap_sift_down(i)
        elif self.heap_pos[v] != -1:
            self._heap_sift_up(self.heap_pos[v])

    def _decay_var_activity(self) -> None:
        self.var_inc /= self.var_decay

    def _bump_clause(self, cid: int) -> None:
        if self._c_learned[cid]:
            self._c_act[cid] += self.cla_inc
            if self._c_act[cid] > 1e20:
                acts = self._c_act
                for c in self.learned:
                    acts[c] *= 1e-20
                self.cla_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self.cla_inc /= self.cla_decay

    def _pick_branch_var(self) -> int:
        if self.branching == "linear":
            best = -1
            best_act = -1.0
            for v in range(self.num_vars):
                if self.assigns[v] == _UNASSIGNED and self.activity[v] > best_act:
                    best = v
                    best_act = self.activity[v]
            return best
        # Lazy heap pop: assigned variables linger in the heap until they
        # surface here; every unassigned variable is guaranteed present
        # (bulk-filled at solve() entry, re-inserted by _cancel_until).
        while self.heap:
            v = self._heap_pop()
            if self.assigns[v] == _UNASSIGNED:
                return v
        return -1

    # The heap orders by (activity desc, index asc); the strict total
    # order makes heap and linear branching pick identical variables.

    def _heap_before(self, u: int, v: int) -> bool:
        au, av = self.activity[u], self.activity[v]
        return au > av or (au == av and u < v)

    def _heap_push(self, v: int) -> None:
        if self.heap_pos[v] != -1:
            return
        self.heap_pos[v] = len(self.heap)
        self.heap.append(v)
        self._heap_sift_up(len(self.heap) - 1)

    def _heap_fill(self) -> None:
        """Bulk-insert every unassigned, absent variable, then heapify --
        O(V) versus O(V log V) for per-variable pushes."""
        heap, heap_pos = self.heap, self.heap_pos
        added = False
        for v in range(self.num_vars):
            if self.assigns[v] == _UNASSIGNED and heap_pos[v] == -1:
                heap_pos[v] = len(heap)
                heap.append(v)
                added = True
        if added:
            for i in range(len(heap) // 2 - 1, -1, -1):
                self._heap_sift_down(i)

    def _heap_pop(self) -> int:
        heap = self.heap
        top = heap[0]
        self.heap_pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self.heap_pos[last] = 0
            self._heap_sift_down(0)
        return top

    def _heap_sift_up(self, pos: int) -> None:
        heap, heap_pos = self.heap, self.heap_pos
        v = heap[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            p = heap[parent]
            if not self._heap_before(v, p):
                break
            heap[pos] = p
            heap_pos[p] = pos
            pos = parent
        heap[pos] = v
        heap_pos[v] = pos

    def _heap_sift_down(self, pos: int) -> None:
        heap, heap_pos = self.heap, self.heap_pos
        n = len(heap)
        v = heap[pos]
        while True:
            child = 2 * pos + 1
            if child >= n:
                break
            c = heap[child]
            right = child + 1
            if right < n and self._heap_before(heap[right], c):
                child = right
                c = heap[right]
            if not self._heap_before(c, v):
                break
            heap[pos] = c
            heap_pos[c] = pos
            pos = child
        heap[pos] = v
        heap_pos[v] = pos

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        if self._decision_level <= level:
            return
        bound = self.trail_lim[level]
        for literal in reversed(self.trail[bound:]):
            v = lit_var(literal)
            self.polarity[v] = lit_sign(literal)
            self.assigns[v] = _UNASSIGNED
            self.reasons[v] = None
            self._heap_push(v)
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.prop_head = len(self.trail)

    # ------------------------------------------------------------------
    # Learned clause management
    # ------------------------------------------------------------------

    def _learn(self, lits: List[int]) -> int:
        """Install a freshly learned clause; returns its reason handle."""
        cid = self._install_clause(lits, learned=True)
        self.learned.append(cid)
        return cid

    def _reduce_db(self) -> None:
        acts = self._c_act
        self.learned.sort(key=lambda cid: acts[cid])
        keep_from = len(self.learned) // 2
        removed = set()
        for cid in self.learned[:keep_from]:
            if self._c_len[cid] > 2 and not self._is_reason(cid):
                removed.add(cid)
        if not removed:
            return
        self.learned = [cid for cid in self.learned if cid not in removed]
        for wl in self.watches:
            wl[:] = [cid for cid in wl if cid not in removed]
        # Mark the victims dead; their arena storage is reclaimed in
        # bulk once dead slots dominate the arena.
        for cid in removed:
            self._dead_lits += self._c_len[cid]
            self._c_len[cid] = 0
        self._stats["db_reductions"] += 1
        if (
            self._dead_lits >= _COMPACT_MIN_DEAD
            and self._dead_lits * 2 > len(self._lits)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rewrite the literal arena without dead clauses.

        Clause ids are stable (headers are rewritten in place), so
        watcher lists and reason slots survive compaction untouched.
        """
        fresh = array("i")
        arena = self._lits
        offs = self._c_off
        lens = self._c_len
        for cid in range(len(offs)):
            length = lens[cid]
            if length:
                base = offs[cid]
                offs[cid] = len(fresh)
                fresh.extend(arena[base : base + length])
        self._lits = fresh
        self._dead_lits = 0

    def _is_reason(self, cid: int) -> bool:
        v = self._lits[self._c_off[cid]] >> 1
        return self.reasons[v] == cid and self.assigns[v] != _UNASSIGNED

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        budget: Optional[Budget] = None,
    ) -> SolverResult:
        """Decide satisfiability under optional assumption literals.

        With a ``budget``, the main loop checks it cooperatively (once
        per :data:`_CHECK_EVERY` iterations -- effectively free) and
        answers ``unknown`` instead of raising mid-search, so a warm
        incremental solver stays reusable after an exhausted query.
        """
        if not self._ok:
            return SolverResult(False)
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SolverResult(False)
        if self.branching != "linear" and self._heap_dirty:
            # _cancel_until re-inserts everything it unassigns, so the
            # heap stays complete between solves; only fresh variables
            # require the bulk fill.
            self._heap_fill()
            self._heap_dirty = False

        restart_idx = 0
        conflicts_until_restart = 32 * _luby(restart_idx)
        conflict_budget_used = 0
        max_learned = max(1000, len(self.clauses) // 2)
        entry_conflicts = self._stats["conflicts"]
        check_countdown = _CHECK_EVERY

        while True:
            check_countdown -= 1
            if check_countdown <= 0:
                check_countdown = _CHECK_EVERY
                failpoint("solver.propagate")
                if budget is not None and budget.exhausted(
                    self._stats["conflicts"] - entry_conflicts
                ):
                    return SolverResult(False, unknown=True)
            conflict = self._propagate()
            if conflict is not None:
                self._stats["conflicts"] += 1
                conflict_budget_used += 1
                if self._decision_level == 0:
                    return SolverResult(False)
                learned_lits, back_level = self._analyze(conflict)
                # Keep assumption decisions across backjumps: clamp the
                # target at the assumption prefix -- but only when the
                # conflict is deeper than the prefix.  A conflict at (or
                # inside) the prefix must cancel past it so the asserting
                # literal's variable is actually freed; the cancelled
                # assumptions are re-decided by _next_assumption.
                target = back_level
                prefix = self._assumption_level(assumptions)
                if self._decision_level > prefix:
                    target = max(back_level, prefix)
                self._cancel_until(target)
                if len(learned_lits) == 1:
                    if self._decision_level > 0:
                        # Can't assert at a level above the assumptions; retry
                        # from level 0 if assumptions got in the way.
                        self._cancel_until(0)
                    if not self._enqueue(learned_lits[0], None):
                        return SolverResult(False)
                else:
                    reason = self._learn(learned_lits)
                    self._stats["learned"] += 1
                    self._enqueue(learned_lits[0], reason)
                self._decay_var_activity()
                self._decay_clause_activity()
                continue

            if conflict_budget_used >= conflicts_until_restart:
                conflict_budget_used = 0
                restart_idx += 1
                conflicts_until_restart = 32 * _luby(restart_idx)
                self._stats["restarts"] += 1
                self._cancel_until(0)
                continue

            if len(self.learned) > max_learned + len(self.trail):
                self._reduce_db()

            # Apply assumptions first, then branch.
            next_lit = self._next_assumption(assumptions)
            if next_lit is None:
                v = self._pick_branch_var()
                if v == -1:
                    model = {
                        i: self.assigns[i] == 1
                        for i in range(self.num_vars)
                        if self.assigns[i] != _UNASSIGNED
                    }
                    return SolverResult(True, model)
                self._stats["decisions"] += 1
                next_lit = lit(v, self.polarity[v])
            elif next_lit is False:
                return SolverResult(False)
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_lit, None)

    def solve_batch(
        self,
        assumption_sets: Sequence[Sequence[int]],
        budget: Optional[Budget] = None,
        stats_out: Optional[List[Dict[str, int]]] = None,
    ) -> List[SolverResult]:
        """Solve a sequence of assumption sets on the warm solver.

        Equivalent to calling :meth:`solve` once per assumption set, in
        order, but in a single call -- the batched entry point for level
        sweeps, which otherwise pay one Python round-trip through the
        formula/encoding stack per level.  When ``stats_out`` is given,
        one per-solve :func:`stats_delta` is appended to it per result.

        An exhausted budget stops the batch: the unknown result is the
        last entry of the (possibly shorter) returned list.
        """
        results: List[SolverResult] = []
        for assumptions in assumption_sets:
            before = self.stats() if stats_out is not None else None
            result = self.solve(assumptions, budget=budget)
            if stats_out is not None:
                stats_out.append(stats_delta(self.stats(), before))
            results.append(result)
            if result.unknown:
                break
        return results

    def _assumption_level(self, assumptions: Sequence[int]) -> int:
        """Number of leading decision levels forced by assumptions.

        Assumptions are always decided before ordinary branching, so the
        levels they occupy form a prefix of ``trail_lim``.  Backjumping
        must never cancel into that prefix, or the solver would silently
        drop an assumption mid-solve and explore a search space the
        caller excluded.
        """
        if not assumptions:
            return 0
        aset = set(assumptions)
        count = 0
        for level_idx, bound in enumerate(self.trail_lim):
            if bound < len(self.trail) and self.trail[bound] in aset:
                count = level_idx + 1
            else:
                break
        return count

    def _next_assumption(self, assumptions: Sequence[int]):
        """Next unassigned assumption literal, False if one is violated."""
        for a in assumptions:
            val = self._value(a)
            if val == 0:
                return False
            if val == _UNASSIGNED:
                return a
        return None


def stats_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """Per-query counter delta between two :meth:`Solver.stats` snapshots.

    Incremental sessions solve many queries on one warm solver; billing a
    query with the raw totals would double-count every earlier query's
    decisions and propagations, so accounting subtracts the snapshot
    taken just before the solve.  Gauge entries (``arena_bytes``,
    ``learned_live``) delta to their growth between the snapshots.
    """
    return {key: after[key] - before.get(key, 0) for key in after}


def _luby(i: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    k = 1
    while (1 << (k + 1)) - 1 <= i + 1:
        k += 1
    while True:
        if i + 1 == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1
        k -= 1
        if k <= 0:
            return 1
