"""Execution histories and the serializability conditions of Section 3.2.

A :class:`History` records the step sequence of an interleaved execution:
which instance executed which command at which timestamp, with which
view.  The checkers implement the paper's two conditions --

- **strong atomicity**: timestamp order implies visibility, and all of a
  transaction's events become visible together;
- **strong isolation**: a transaction never gains visibility of another
  transaction's events partway through its execution --

plus a conventional serialization-graph cycle check used by the dynamic
invariant experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.semantics.events import Event, WRITE
from repro.semantics.state import DatabaseState


@dataclass
class Step:
    """One executed database command."""

    instance: int
    txn_name: str
    label: str
    ts: int
    view: FrozenSet[int]
    events: Tuple[Event, ...]


@dataclass
class History:
    """A finite trace of interleaved transaction execution."""

    state: DatabaseState
    steps: List[Step] = field(default_factory=list)
    results: Dict[int, Any] = field(default_factory=dict)

    def record(self, step: Step) -> None:
        self.steps.append(step)

    @property
    def instances(self) -> List[int]:
        seen: List[int] = []
        for step in self.steps:
            if step.instance not in seen:
                seen.append(step.instance)
        return seen

    def events_visible_to(self, step: Step) -> FrozenSet[int]:
        return step.view

    def steps_of(self, instance: int) -> List[Step]:
        return [s for s in self.steps if s.instance == instance]


# ---------------------------------------------------------------------------
# Strong atomicity / strong isolation (Section 3.2)
# ---------------------------------------------------------------------------


def check_strong_atomicity(history: History) -> Optional[str]:
    """Return a violation description, or None if strong atomicity holds.

    Condition: (1) every event with a smaller counter is visible to later
    events; (2) if any event of transaction T is visible to an event e,
    then all of T's earlier-created events are visible to e.
    """
    state = history.state
    for step in history.steps:
        view = step.view
        # (1) linearization: all strictly earlier events must be visible.
        for ev in state.events:
            if ev.ts < step.ts and ev.eid not in view:
                return (
                    f"event {ev.label}@txn{ev.txn} (ts {ev.ts}) invisible to "
                    f"{step.label}@txn{step.instance} (ts {step.ts})"
                )
    # (2) all-or-nothing: follows from (1) in complete histories, but check
    # the pairwise formulation directly for partial views.
    for step in history.steps:
        view = step.view
        per_txn_seen: Dict[int, bool] = {}
        for ev in state.events:
            if ev.ts >= step.ts or ev.txn == step.instance:
                continue
            seen = ev.eid in view
            if ev.txn in per_txn_seen and per_txn_seen[ev.txn] != seen:
                return (
                    f"txn{ev.txn} is partially visible to "
                    f"{step.label}@txn{step.instance}"
                )
            per_txn_seen[ev.txn] = seen
    return None


def check_strong_isolation(history: History) -> Optional[str]:
    """Return a violation description, or None if strong isolation holds.

    Condition: if an event eta'' is visible to a later event of T, it must
    also have been visible to every earlier event of T -- i.e. a running
    transaction's view of other transactions never grows.
    """
    for instance in history.instances:
        steps = history.steps_of(instance)
        for earlier_idx in range(len(steps)):
            for later_idx in range(earlier_idx + 1, len(steps)):
                earlier, later = steps[earlier_idx], steps[later_idx]
                gained = later.view - earlier.view
                for eid in gained:
                    ev = history.state.events[eid]
                    # Events created after `earlier` executed could not
                    # have been in its view; only previously existing
                    # events count as isolation violations.
                    if ev.ts < earlier.ts and ev.txn != instance:
                        return (
                            f"txn{instance} gained visibility of "
                            f"{ev.label}@txn{ev.txn} between "
                            f"{earlier.label} and {later.label}"
                        )
    return None


def is_serializable(history: History) -> bool:
    """Serialization-graph test over the history's reads-from relation.

    Builds the conventional DSG: nodes are transaction instances, with
    WR (reads-from), WW (timestamp order on same field), and RW
    (anti-dependency) edges; the history is serializable iff the graph is
    acyclic.  This is the checker the dynamic experiments use to count
    anomalous executions.
    """
    return is_acyclic(serialization_graph(history))


#: A directed graph as an adjacency dict: every node is a key, mapped to
#: the set of its successors.
Graph = Dict[Hashable, Set[Hashable]]


def is_acyclic(graph: Graph) -> bool:
    """Whether ``graph`` has no directed cycle (self-loops included).

    Iterative depth-first search with the usual three colours, so deep
    graphs cannot hit the interpreter's recursion limit: reaching a node
    that is still on the DFS path (grey) closes a cycle.
    """
    done: Set[Hashable] = set()
    on_path: Set[Hashable] = set()
    for root in graph:
        if root in done:
            continue
        on_path.add(root)
        stack = [(root, iter(graph[root]))]
        while stack:
            node, successors = stack[-1]
            for succ in successors:
                if succ in on_path:
                    return False
                if succ not in done:
                    on_path.add(succ)
                    stack.append((succ, iter(graph[succ])))
                    break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)
    return True


def serialization_graph(history: History) -> Graph:
    """The history's DSG over transaction instances (see
    :func:`is_serializable`), as an adjacency dict."""
    state = history.state
    graph: Graph = {instance: set() for instance in history.instances}

    def add_edge(src, dst) -> None:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())

    writes_by_loc: Dict[Tuple, List[Event]] = {}
    for ev in state.events:
        if ev.kind == WRITE:
            writes_by_loc.setdefault((ev.record, ev.field), []).append(ev)
    for evs in writes_by_loc.values():
        evs.sort(key=lambda e: (e.ts, e.eid))
        # WW edges in timestamp (arbitration) order.
        for i in range(len(evs)):
            for j in range(i + 1, len(evs)):
                if evs[i].txn != evs[j].txn:
                    add_edge(evs[i].txn, evs[j].txn)

    for step in history.steps:
        view = step.view
        for ev in step.events:
            if ev.kind == WRITE:
                continue
            loc = (ev.record, ev.field)
            writes = writes_by_loc.get(loc, [])
            visible = [w for w in writes if w.eid in view and w.ts < step.ts]
            invisible = [w for w in writes if w.eid not in view and w.txn != step.instance]
            if visible:
                src = max(visible, key=lambda w: (w.ts, w.eid))
                if src.txn != step.instance:
                    add_edge(src.txn, step.instance)  # wr
                # Anti-dependency: writes newer than what we read.
                for w in writes:
                    if w.ts > src.ts and w.txn not in (step.instance, src.txn):
                        add_edge(step.instance, w.txn)  # rw
            else:
                # Read from the initial database: every write is newer.
                for w in invisible:
                    add_edge(step.instance, w.txn)  # rw
    return graph
