"""Cost-guided search over rewrite plans (the planner behind Figure 10).

The repair problem is: given the anomaly oracle's access pairs, find a
:class:`~repro.repair.plan.RewritePlan` that removes as many anomalies
as possible without exploding the schema.  Three strategies share one
candidate generator (:func:`propose_candidates`, which enumerates the
rule applications of Figure 10 for one pair, in the paper's priority
order):

- :class:`GreedySearch` (default) -- takes the *first* applicable
  candidate per pair, exactly reproducing the historical engine's
  behaviour (merge; else redirect+merge, either direction, then via a
  hub; else logger).  No cost model consulted, no extra oracle calls.
- :class:`BeamSearch` -- keeps the ``width`` best plan prefixes per
  pair, scoring each with a :class:`CostModel`; can discover plans the
  greedy order misses (e.g. skipping a repair whose schema growth is
  not worth it).
- :class:`RandomSearch` -- the Appendix A.3 baseline: rounds of random
  rule draws, scored by the final anomaly count.  This is the one
  source of truth for random rewrites (``exp/random_search.py`` is a
  thin wrapper over it).

Cost model
----------

``CostModel.score`` combines the residual anomaly count (evaluated
through the oracle the caller provides -- use
``AnomalyOracle(strategy="incremental")`` so every candidate evaluation
lands on the warm per-triple solver sessions of
:class:`~repro.analysis.oracle.OracleSession`), a schema-growth term,
and an optional *simulated throughput* term: plug
:func:`simulated_throughput_probe` in to score candidate plans by the
closed-loop throughput of their AT-SC variant on the store simulator
(:func:`repro.store.runner.simulate`).

Beam search scores each generation of candidates through
``CostModel.evaluate_many``, which routes all candidates' residual
analyses into one ``oracle.analyze_many`` call, so queries the
candidates share are solved once.  Scores (and therefore search
results) are identical under every execution strategy.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.accesses import rmw_field, summarize_transaction
from repro.analysis.oracle import AccessPair, AnomalyOracle
from repro.events import emit
from repro.errors import PlanError
from repro.lang import ast
from repro.repair.plan import (
    LoggerStep,
    MergeStep,
    PlanContext,
    PostprocessStep,
    RedirectStep,
    RewritePlan,
    RewriteStep,
    SplitStep,
    _find_command,
)
from repro.repair.preprocess import split_plans


@dataclass
class RepairOutcome:
    """What happened to one anomalous access pair."""

    pair: AccessPair
    action: str  # merged | redirected | redirected+merged | logged | absorbed | unrepaired
    detail: str = ""


@dataclass
class SearchResult:
    """Output of one plan search."""

    plan: RewritePlan
    repaired_program: ast.Program
    initial_pairs: List[AccessPair]
    residual_pairs: List[AccessPair]
    outcomes: List[RepairOutcome]
    context: PlanContext
    elapsed_seconds: float
    strategy: str = "greedy"
    # Strategy-specific extras (random: per-round anomaly counts;
    # beam: best score trajectory).
    extras: dict = field(default_factory=dict)


@dataclass
class Candidate:
    """One evaluated repair option for a pair: the steps plus the state
    reached by applying them."""

    action: str
    steps: Tuple[RewriteStep, ...]
    program: ast.Program
    ctx: PlanContext


# ---------------------------------------------------------------------------
# Candidate generation (the rule templates of Figure 10, per pair)
# ---------------------------------------------------------------------------


def _try_steps(
    program: ast.Program,
    ctx: PlanContext,
    action: str,
    steps: Sequence[RewriteStep],
) -> Optional[Candidate]:
    """Speculatively apply ``steps`` on clones; None when any fails."""
    new_ctx = ctx.clone()
    for step in steps:
        try:
            program = step.apply(program, new_ctx)
        except PlanError:
            return None
    return Candidate(action, tuple(steps), program, new_ctx)


def _with_merge(
    cand: Candidate, txn: str, label1: str, label2: str
) -> Candidate:
    """Upgrade a redirect candidate with a trailing merge when possible."""
    merge = MergeStep(txn, label1, label2)
    merged_ctx = cand.ctx.clone()
    try:
        merged_program = merge.apply(cand.program, merged_ctx)
    except PlanError:
        return cand
    return Candidate(
        cand.action + "+merged",
        cand.steps + (merge,),
        merged_program,
        merged_ctx,
    )


def _redirect_step(
    program: ast.Program, src_cmd: ast.Command, dst_table: str
) -> Optional[RedirectStep]:
    """The redirect step moving ``src_cmd``'s accessed payload fields
    (closed under accessed-together) into ``dst_table``."""
    fields = _accessed_payload_fields(program, src_cmd)
    if not fields or src_cmd.table == dst_table:  # type: ignore[union-attr]
        return None
    fields = _close_accessed_together(program, src_cmd.table, fields)  # type: ignore[union-attr]
    return RedirectStep(src_cmd.table, dst_table, tuple(fields))  # type: ignore[union-attr]


def propose_candidates(
    program: ast.Program, ctx: PlanContext, pair: AccessPair
) -> Iterator[Candidate]:
    """Enumerate applicable repairs for ``pair``, best-first in the
    paper's rule order.  Every yielded candidate has already been
    applied speculatively (its ``program``/``ctx`` are the reached
    state), so the greedy strategy is ``next(...)`` and beam search is
    ``list(...)``."""
    txn_name = pair.txn
    label1 = ctx.current(txn_name, pair.c1)
    label2 = ctx.current(txn_name, pair.c2)
    if label1 == label2:
        # A previous merge absorbed this pair.
        yield Candidate("absorbed", (), program, ctx.clone())
        return
    c1 = _find_command(program, txn_name, label1)
    c2 = _find_command(program, txn_name, label2)
    if c1 is None or c2 is None:
        return

    if _same_kind(c1, c2):
        if c1.table == c2.table:  # type: ignore[union-attr]
            cand = _try_steps(
                program, ctx, "merged", [MergeStep(txn_name, label1, label2)]
            )
            if cand is not None:
                yield cand
            return
        # Cross-schema: redirect c2's schema into c1's (then reverse),
        # then try folding both into a common hub.
        for src_cmd, dst_cmd in ((c2, c1), (c1, c2)):
            step = _redirect_step(program, src_cmd, dst_cmd.table)  # type: ignore[union-attr]
            if step is None:
                continue
            cand = _try_steps(program, ctx, "redirected", [step])
            if cand is not None:
                yield _with_merge(cand, txn_name, label1, label2)
        yield from _hub_candidates(program, ctx, txn_name, label1, label2, c1, c2)
        return

    cand = _logger_candidate(program, ctx, txn_name, c1, c2)
    if cand is not None:
        yield cand


def _hub_candidates(
    program: ast.Program,
    ctx: PlanContext,
    txn_name: str,
    label1: str,
    label2: str,
    c1: ast.Command,
    c2: ast.Command,
) -> Iterator[Candidate]:
    """Fold both tables into a third one that declares (or is declared
    by) reference paths to each -- e.g. SAVINGS and CHECKING both keyed
    by ACCOUNTS.custid."""
    for hub in program.schema_names:
        if hub in (c1.table, c2.table):  # type: ignore[union-attr]
            continue
        first = _redirect_step(program, c1, hub)
        if first is None:
            continue
        cand1 = _try_steps(program, ctx, "redirected", [first])
        if cand1 is None:
            continue
        c2_now = _find_command(cand1.program, txn_name, getattr(c2, "label", ""))
        if c2_now is None:
            continue
        second = _redirect_step(cand1.program, c2_now, hub)
        if second is None:
            continue
        # Extend cand1 rather than re-applying `first` from scratch.
        ctx2 = cand1.ctx.clone()
        try:
            program2 = second.apply(cand1.program, ctx2)
        except PlanError:
            continue
        cand = Candidate("redirected", (first, second), program2, ctx2)
        yield _with_merge(cand, txn_name, label1, label2)


def _logger_candidate(
    program: ast.Program,
    ctx: PlanContext,
    txn_name: str,
    c1: ast.Command,
    c2: ast.Command,
) -> Optional[Candidate]:
    select, update = (c1, c2) if isinstance(c1, ast.Select) else (c2, c1)
    if not isinstance(select, ast.Select) or not isinstance(update, ast.Update):
        return None
    txn = program.transaction(txn_name)
    summary = summarize_transaction(program, txn)
    try:
        info_r = summary.command(select.label)
        info_w = summary.command(update.label)
    except KeyError:
        return None
    f = rmw_field(summary, info_r, info_w)
    if f is None:
        return None
    return _try_steps(
        program, ctx, "logged", [LoggerStep(update.table, f)]
    )


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

# A throughput probe: (program, residual pairs, rewrites so far) ->
# committed transactions per second under the AT-SC configuration.
ThroughputProbe = Callable[[ast.Program, Sequence[AccessPair], Sequence[object]], float]


@dataclass
class CostModel:
    """Score a candidate plan state; lower is better.

    ``anomaly_weight * |residual pairs| + table_weight * |schemas|
    - throughput_weight * probe(...)``.  The oracle used for the
    residual count is the caller's (pass the search's own oracle so
    candidate evaluations share its memo cache and, with
    ``strategy="incremental"``, its warm solver sessions).
    """

    anomaly_weight: float = 10.0
    table_weight: float = 1.0
    throughput_weight: float = 0.0
    throughput_probe: Optional[ThroughputProbe] = None

    def evaluate(
        self,
        program: ast.Program,
        ctx: PlanContext,
        oracle: AnomalyOracle,
    ) -> Tuple[float, List[AccessPair]]:
        """(cost, residual pairs) -- exposing the pairs lets callers
        reuse the oracle run the score already paid for."""
        return self.evaluate_many([(program, ctx)], oracle)[0]

    def evaluate_many(
        self,
        items: Sequence[Tuple[ast.Program, PlanContext]],
        oracle: AnomalyOracle,
    ) -> List[Tuple[float, List[AccessPair]]]:
        """Score a whole generation of candidate states at once.

        All candidates' residual analyses go through one
        :meth:`~repro.analysis.oracle.AnomalyOracle.analyze_many` call,
        which solves the queries the candidates share only once.  Scores are
        identical to per-candidate :meth:`evaluate` calls -- analysis is
        deterministic and order-independent -- so search results do not
        depend on the oracle's execution strategy.
        """
        reports = oracle.analyze_many([program for program, _ in items])
        out: List[Tuple[float, List[AccessPair]]] = []
        for (program, ctx), report in zip(items, reports):
            pairs = report.pairs
            cost = self.anomaly_weight * len(pairs)
            cost += self.table_weight * len(program.schemas)
            if self.throughput_probe is not None and self.throughput_weight:
                cost -= self.throughput_weight * self.throughput_probe(
                    program, pairs, ctx.rewrites
                )
            out.append((cost, pairs))
        return out

    def score(
        self,
        program: ast.Program,
        ctx: PlanContext,
        oracle: AnomalyOracle,
    ) -> float:
        return self.evaluate(program, ctx, oracle)[0]


def simulated_throughput_probe(
    benchmark,
    cluster=None,
    config=None,
    clients: int = 16,
    scale: int = 8,
    seed: int = 7,
) -> ThroughputProbe:
    """A :class:`CostModel` throughput term backed by the store simulator.

    The probe migrates the benchmark's database into the candidate
    program's layout, profiles every transaction, flags the residually
    anomalous ones serializable (the AT-SC configuration), and runs one
    closed-loop :func:`repro.store.runner.simulate` point.  Heavier than
    the static terms -- reserve it for beam search on benchmarks where
    schema growth and anomaly count alone cannot break ties.
    """
    from repro.refactor.migrate import migrate_database
    from repro.store.network import US_CLUSTER
    from repro.store.profile import profile_program, sample_calls_for
    from repro.store.runner import simulate

    cluster = cluster or US_CLUSTER
    rng = random.Random(seed)
    db = benchmark.database(scale)
    calls = sample_calls_for(benchmark, rng, scale)
    mix = [(name, weight) for name, weight, _ in benchmark.mix]

    def probe(program, residual_pairs, rewrites) -> float:
        flagged = {p.txn for p in residual_pairs}
        txns = tuple(
            dc_replace(t, serializable=True) if t.name in flagged else t
            for t in program.transactions
        )
        at_sc = dc_replace(program, transactions=txns)
        at_db = migrate_database(db, at_sc, list(rewrites))
        profiles = profile_program(at_sc, at_db, calls)
        result = simulate(profiles, mix, cluster, clients, config)
        return result.throughput

    return probe


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _prologue(
    program: ast.Program, oracle: AnomalyOracle
) -> Tuple[ast.Program, PlanContext, List[RewriteStep], List[AccessPair]]:
    """Shared opening moves: analyze, record split steps, re-analyze when
    the splits changed the program, sort the pairs."""
    initial_report = oracle.analyze(program)
    ctx = PlanContext()
    steps: List[RewriteStep] = []
    plans = split_plans(program, initial_report.pairs)
    for (txn_name, label), groups in sorted(plans.items()):
        step = SplitStep(txn_name, label, tuple(tuple(g) for g in groups))
        program = step.apply(program, ctx)
        steps.append(step)
    if steps:
        # Re-detect: splitting renamed command labels.
        pairs = list(oracle.analyze(program).pairs)
    else:
        # Analysis is deterministic; re-running it would reproduce the
        # initial report verbatim.
        pairs = list(initial_report.pairs)
    pairs.sort(key=lambda p: (p.txn, p.c1, p.c2))
    return program, ctx, steps, pairs


class GreedySearch:
    """First-applicable-candidate search; byte-for-byte compatible with
    the historical in-place repair engine."""

    name = "greedy"
    #: Optional progress callback (see :mod:`repro.events`); set by
    #: the engine when the caller asked to observe the search.
    progress = None

    def search(self, program: ast.Program, oracle: AnomalyOracle) -> SearchResult:
        start = time.perf_counter()
        program, ctx, steps, pairs = _prologue(program, oracle)
        emit(self.progress, "search.start", strategy=self.name,
             pairs=len(pairs))
        outcomes: List[RepairOutcome] = []
        for pair in pairs:
            cand = next(propose_candidates(program, ctx, pair), None)
            if cand is None:
                outcomes.append(RepairOutcome(pair, "unrepaired"))
            else:
                program, ctx = cand.program, cand.ctx
                steps.extend(cand.steps)
                outcomes.append(RepairOutcome(pair, cand.action))
            emit(self.progress, "search.pair", txn=pair.txn, c1=pair.c1,
                 c2=pair.c2, action=outcomes[-1].action)
        post = PostprocessStep()
        program = post.apply(program, ctx)
        steps.append(post)
        residual = oracle.analyze(program).pairs
        emit(self.progress, "search.done", strategy=self.name,
             steps=len(steps), residual=len(residual))
        return SearchResult(
            plan=RewritePlan(tuple(steps)),
            repaired_program=program,
            initial_pairs=pairs,
            residual_pairs=residual,
            outcomes=outcomes,
            context=ctx,
            elapsed_seconds=time.perf_counter() - start,
            strategy=self.name,
        )


@dataclass
class _BeamState:
    program: ast.Program
    ctx: PlanContext
    steps: Tuple[RewriteStep, ...]
    outcomes: Tuple[RepairOutcome, ...]
    score: float = 0.0


class BeamSearch:
    """Keep the ``width`` best plan prefixes per pair, scored by the
    cost model.  ``width=1`` degenerates to a cost-checked greedy;
    wider beams can decline a repair whose schema growth the model
    prices above the anomaly it removes."""

    name = "beam"
    progress = None

    def __init__(
        self,
        width: int = 4,
        cost_model: Optional[CostModel] = None,
        max_candidates: int = 8,
    ):
        if width < 1:
            raise ValueError("beam width must be >= 1")
        self.width = width
        self.cost_model = cost_model or CostModel()
        self.max_candidates = max_candidates

    def search(self, program: ast.Program, oracle: AnomalyOracle) -> SearchResult:
        start = time.perf_counter()
        program, ctx, steps, pairs = _prologue(program, oracle)
        emit(self.progress, "search.start", strategy=self.name,
             pairs=len(pairs), width=self.width)
        base = _BeamState(program, ctx, tuple(steps), ())
        base.score = self.cost_model.score(program, ctx, oracle)
        states = [base]
        trajectory: List[float] = []
        for pair in pairs:
            expanded: List[_BeamState] = []
            fresh: List[_BeamState] = []
            for state in states:
                count = 0
                for cand in propose_candidates(state.program, state.ctx, pair):
                    new = _BeamState(
                        cand.program,
                        cand.ctx,
                        state.steps + cand.steps,
                        state.outcomes + (RepairOutcome(pair, cand.action),),
                    )
                    expanded.append(new)
                    fresh.append(new)
                    count += 1
                    if count >= self.max_candidates:
                        break
                # Skipping the pair is always an option the model may
                # prefer; its program is the parent's, so it inherits
                # the parent's score without re-analysing.  Appended
                # *after* the real candidates so a score tie (e.g. an
                # absorbed pair, whose candidate state is identical)
                # resolves to the properly labelled outcome.
                expanded.append(
                    _BeamState(
                        state.program,
                        state.ctx,
                        state.steps,
                        state.outcomes + (RepairOutcome(pair, "unrepaired"),),
                        score=state.score,
                    )
                )
            # Score the whole generation in one batched oracle call.
            scored = self.cost_model.evaluate_many(
                [(s.program, s.ctx) for s in fresh], oracle
            )
            for new, (cost, _) in zip(fresh, scored):
                new.score = cost
            # Stable sort: ties go to the earlier (higher-priority) candidate.
            expanded.sort(key=lambda s: s.score)
            states = expanded[: self.width]
            trajectory.append(states[0].score)
            emit(self.progress, "search.pair", txn=pair.txn, c1=pair.c1,
                 c2=pair.c2, action=states[0].outcomes[-1].action,
                 best_score=states[0].score)

        final_states: List[_BeamState] = []
        for state in states:
            post = PostprocessStep()
            program_f = post.apply(state.program, state.ctx)
            final_states.append(
                _BeamState(
                    program_f, state.ctx, state.steps + (post,), state.outcomes
                )
            )
        final_scored = self.cost_model.evaluate_many(
            [(s.program, s.ctx) for s in final_states], oracle
        )
        finished: List[Tuple[float, int, _BeamState, List[AccessPair]]] = []
        for i, (state_f, (cost, pairs_f)) in enumerate(
            zip(final_states, final_scored)
        ):
            state_f.score = cost
            finished.append((state_f.score, i, state_f, pairs_f))
        finished.sort(key=lambda t: (t[0], t[1]))
        _, _, best, residual = finished[0]
        emit(self.progress, "search.done", strategy=self.name,
             steps=len(best.steps), residual=len(residual),
             best_score=best.score)
        return SearchResult(
            plan=RewritePlan(best.steps),
            repaired_program=best.program,
            initial_pairs=pairs,
            residual_pairs=residual,
            outcomes=list(best.outcomes),
            context=best.ctx,
            elapsed_seconds=time.perf_counter() - start,
            strategy=self.name,
            extras={"width": self.width, "score_trajectory": trajectory,
                    "best_score": best.score},
        )


def random_step(program: ast.Program, rng: random.Random) -> Optional[RewriteStep]:
    """Draw one random rule application (the Appendix A.3 distribution):
    a single-field redirect between two random tables, or a logger on a
    random table/field.  None when the draw is degenerate; the drawn
    step may still be inapplicable (that is the experiment's point)."""
    tables = list(program.schema_names)
    if not tables:
        return None
    if rng.random() < 0.5:
        src = rng.choice(tables)
        dst = rng.choice(tables)
        if src == dst:
            return None
        schema = program.schema(src)
        if not schema.non_key_fields:
            return None
        return RedirectStep(src, dst, (rng.choice(schema.non_key_fields),))
    src = rng.choice(tables)
    schema = program.schema(src)
    if not schema.non_key_fields:
        return None
    return LoggerStep(src, rng.choice(schema.non_key_fields))


class RandomSearch:
    """Rounds of random rule draws scored by the anomaly count
    (Appendix A.3 / Figure 16).  Keeps the best-scoring round's plan."""

    name = "random"
    progress = None

    def __init__(
        self,
        rounds: int = 20,
        steps_per_round: int = 10,
        seed: int = 42,
    ):
        self.rounds = rounds
        self.steps_per_round = steps_per_round
        self.seed = seed

    def search(self, program: ast.Program, oracle: AnomalyOracle) -> SearchResult:
        start = time.perf_counter()
        original = program
        initial_pairs = list(oracle.analyze(program).pairs)
        rng = random.Random(self.seed)
        round_counts: List[int] = []
        best_count = len(initial_pairs)
        best_plan = RewritePlan()
        best_program = original
        best_ctx = PlanContext()
        best_pairs = initial_pairs
        for _ in range(self.rounds):
            candidate = original
            ctx = PlanContext()
            applied: List[RewriteStep] = []
            for _ in range(self.steps_per_round):
                step = random_step(candidate, rng)
                if step is None:
                    continue
                try:
                    candidate = step.apply(candidate, ctx)
                except PlanError:
                    continue
                applied.append(step)
            pairs = oracle.analyze(candidate).pairs
            round_counts.append(len(pairs))
            emit(self.progress, "search.round", strategy=self.name,
                 round=len(round_counts), anomalies=len(pairs),
                 best=best_count)
            if len(pairs) < best_count:
                best_count = len(pairs)
                best_plan = RewritePlan(tuple(applied))
                best_program = candidate
                best_ctx = ctx
                best_pairs = pairs
        residual = list(best_pairs)
        return SearchResult(
            plan=best_plan,
            repaired_program=best_program,
            initial_pairs=initial_pairs,
            residual_pairs=residual,
            outcomes=[],
            context=best_ctx,
            elapsed_seconds=time.perf_counter() - start,
            strategy=self.name,
            extras={"round_counts": round_counts, "seed": self.seed},
        )


_STRATEGIES = {
    "greedy": GreedySearch,
    "beam": BeamSearch,
    "random": RandomSearch,
}


def resolve_search(search: object, **kwargs):
    """``search`` may be a strategy name or an instance with
    ``search(program, oracle)``; names construct a fresh strategy with
    ``kwargs`` forwarded to its constructor."""
    if isinstance(search, str):
        cls = _STRATEGIES.get(search)
        if cls is None:
            raise ValueError(
                f"unknown search strategy {search!r} "
                f"(expected one of {sorted(_STRATEGIES)})"
            )
        return cls(**kwargs)
    if not hasattr(search, "search"):
        raise TypeError(f"{search!r} has no search(program, oracle) method")
    if kwargs:
        raise ValueError("search options only apply to named strategies")
    return search


# ---------------------------------------------------------------------------
# helpers shared with candidate generation
# ---------------------------------------------------------------------------


def _same_kind(c1: ast.Command, c2: ast.Command) -> bool:
    kinds = {type(c1), type(c2)}
    return kinds == {ast.Select} or kinds == {ast.Update}


def _close_accessed_together(
    program: ast.Program, table: str, fields: List[str]
) -> List[str]:
    """Close the moved-field set under 'retrieved by the same select':
    if any select pulls a moved field together with other payload fields
    of the table, those fields must move too or the select has no home."""
    schema = program.schema(table)
    moved = set(fields)
    changed = True
    while changed:
        changed = False
        for txn in program.transactions:
            for cmd in ast.iter_db_commands(txn):
                if getattr(cmd, "table", None) != table:
                    continue
                if isinstance(cmd, ast.Select):
                    accessed = {
                        f for f in cmd.selected_fields(schema) if f not in schema.key
                    }
                elif isinstance(cmd, ast.Update):
                    accessed = {
                        f for f in cmd.written_fields if f not in schema.key
                    }
                else:
                    continue
                if accessed & moved and not accessed <= moved:
                    moved |= accessed
                    changed = True
    return [f for f in schema.fields if f in moved]


def _accessed_payload_fields(program: ast.Program, cmd: ast.Command) -> List[str]:
    """Non-key fields the command accesses on its table."""
    schema = program.schema(cmd.table)  # type: ignore[union-attr]
    if isinstance(cmd, ast.Select):
        accessed = cmd.selected_fields(schema)
    elif isinstance(cmd, ast.Update):
        accessed = cmd.written_fields
    else:
        return []
    return [f for f in accessed if f not in schema.key]
