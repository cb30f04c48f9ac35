"""The rewrite interceptor: enforcing compiled rules at execution time.

A :class:`LiveInterceptor` is installed into the semantics schedulers as
the ``executor`` hook (see :func:`repro.semantics.scheduler.run_serial`
and ``run_interleaved``).  The *original* program keeps driving control
flow -- its transaction instances decide which command issues next --
but every database command is looked up in the rule set and its serving
live commands execute instead, atomically within the issuing step:

- each original instance owns a *shadow instance* over the live
  (pre-postprocess repaired) program, sharing the original's iteration
  stack and arguments; live commands evaluate and bind in the shadow;
- serving live commands execute back-to-back under the step's single
  view, so a rule's rewrite is atomic at the interleaving granularity;
- a merged command's second arrival executes nothing (the shared live
  command already ran) and only counts a skip;
- select results are translated back into the original shape through the
  rule's :class:`~repro.live.rules.BindingSpec` (per-record projection
  for direct fields, the functional-update ``sum`` readback for logged
  fields, key recovery from log record ids) so downstream original
  expressions evaluate unchanged.

Loops are handled by issue counting: the i-th issuance of an original
label requires each serving live command to have executed at least i
times, which executes fresh log inserts every iteration while still
deduplicating merge partners within one iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Tuple

from repro.errors import LiveRewriteError
from repro.lang import ast
from repro.live.rules import DIRECT, KEY, SUM, BindingSpec, RuleSet
from repro.semantics.events import Event
from repro.semantics.interp import Instance, ResultSet, execute_command
from repro.semantics.state import DatabaseState


@dataclass
class _ShadowEnv:
    """Per-instance live execution state."""

    shadow: Instance
    issues: Dict[str, int] = field(default_factory=dict)
    exec_count: Dict[str, int] = field(default_factory=dict)


class LiveInterceptor:
    """Executes original commands through a compiled :class:`RuleSet`.

    One interceptor serves one execution (a single history); rule
    counters accumulate on the shared rule set across interceptors.

    Shadow state is keyed by the :class:`Instance` object itself (hashed
    by identity), not by ``id(instance)``: ``run_serial`` drops each
    finished instance, and a later one could reuse its address and
    inherit its shadow.  Holding the key keeps every instance alive for
    the interceptor's lifetime.
    """

    def __init__(self, ruleset: RuleSet):
        self.ruleset = ruleset
        self._envs: Dict[Instance, _ShadowEnv] = {}

    # The scheduler calls the executor exactly like execute_command.
    def __call__(
        self,
        state: DatabaseState,
        instance: Instance,
        cmd: ast.Command,
        view: FrozenSet[int],
    ) -> List[Event]:
        return self.execute(state, instance, cmd, view)

    def execute(
        self,
        state: DatabaseState,
        instance: Instance,
        cmd: ast.Command,
        view: FrozenSet[int],
    ) -> List[Event]:
        rule = self.ruleset.rule_for(instance.txn.name, getattr(cmd, "label", ""))
        if rule is None:
            raise LiveRewriteError(
                f"no mutation rule for {instance.txn.name}/"
                f"{getattr(cmd, 'label', '')!r}; the rule set was compiled "
                "for a different program"
            )
        env = self._env(instance)
        rule.hits += 1
        issue = env.issues.get(rule.match.label, 0) + 1
        env.issues[rule.match.label] = issue
        events: List[Event] = []
        executed = 0
        for lab in rule.serving:
            if env.exec_count.get(lab, 0) >= issue:
                continue  # a merge partner already ran the shared command
            live_cmd = self.ruleset.live_commands[(instance.txn.name, lab)]
            events.extend(execute_command(state, env.shadow, live_cmd, view))
            env.exec_count[lab] = env.exec_count.get(lab, 0) + 1
            executed += 1
        if executed:
            rule.rewrites += executed
        else:
            rule.skips += 1
        if isinstance(cmd, ast.Select):
            assert rule.binding is not None
            instance.store[cmd.var] = self._translate(rule.binding, env.shadow)
        return events

    # -- shadow bookkeeping ------------------------------------------------

    def _env(self, instance: Instance) -> _ShadowEnv:
        env = self._envs.get(instance)
        if env is None:
            shadow = Instance(instance.iid, self.ruleset.live_program, instance.call)
            # Share the loop-counter stack so live expressions see the
            # original instance's iteration state.
            shadow.iter_stack = instance.iter_stack
            env = _ShadowEnv(shadow=shadow)
            self._envs[instance] = env
        return env

    # -- binding translation ----------------------------------------------

    def _translate(self, spec: BindingSpec, shadow: Instance) -> ResultSet:
        scalars: Dict[str, Any] = {}
        for source in spec.sources:
            if source.mode == SUM:
                values = [
                    fields.get(source.live_field)
                    for _, fields in self._live_records(shadow, source.live_var)
                ]
                present = [v for v in values if v is not None]
                scalars[source.orig_field] = sum(present) if present else 0
        if spec.direct_var is not None:
            out: ResultSet = []
            for rid, fields in self._live_records(shadow, spec.direct_var):
                record: Dict[str, Any] = {}
                for source in spec.sources:
                    if source.mode == DIRECT:
                        record[source.orig_field] = fields.get(source.live_field)
                    else:
                        record[source.orig_field] = scalars[source.orig_field]
                out.append((rid, record))
            return out
        # No per-record carrier survived the rewrite: synthesize the one
        # record the original expressions may address via at_1 / sum.
        record = {}
        key_tuple: Tuple[Any, ...] = ()
        for source in spec.sources:
            if source.mode == SUM:
                record[source.orig_field] = scalars[source.orig_field]
            records = self._live_records(shadow, source.live_var)
            if records and not key_tuple:
                # Log keys extend the source key with log_id; strip it.
                key_tuple = tuple(records[0][0][1][:-1])
            if source.mode == KEY:
                record[source.orig_field] = (
                    key_tuple[source.key_index] if key_tuple else None
                )
        return [((spec.table, key_tuple), record)]

    def _live_records(self, shadow: Instance, var: str) -> ResultSet:
        records = shadow.store.get(var)
        if records is None:
            raise LiveRewriteError(
                f"live variable {var!r} unbound during binding translation "
                "(serving commands did not execute in order)"
            )
        return records
