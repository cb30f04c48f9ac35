"""History checking: strong atomicity/isolation and the DSG test."""

import random

from hypothesis import given, settings, strategies as st

from repro.lang import parse_program
from repro.semantics import (
    Database,
    TxnCall,
    check_strong_atomicity,
    check_strong_isolation,
    is_serializable,
    run_interleaved,
    run_serial,
)
from repro.semantics.history import is_acyclic
from repro.semantics.views import RandomPartialView, ScriptedView

RMW_SRC = """
schema T { key id; field v; }
txn incr(k) {
  x := select v from T where id = k;
  update T set v = x.v + 1 where id = k;
}
txn reader(k) {
  x := select v from T where id = k;
  return x.v;
}
"""


def _setup():
    p = parse_program(RMW_SRC)
    db = Database(p)
    db.insert("T", id=1, v=0)
    return p, db


class TestSerialHistories:
    def test_serial_is_strongly_atomic(self):
        p, db = _setup()
        h = run_serial(p, db, [TxnCall("incr", (1,)), TxnCall("incr", (1,))])
        assert check_strong_atomicity(h) is None

    def test_serial_is_strongly_isolated(self):
        p, db = _setup()
        h = run_serial(p, db, [TxnCall("incr", (1,)), TxnCall("reader", (1,))])
        assert check_strong_isolation(h) is None

    def test_serial_is_serializable(self):
        p, db = _setup()
        h = run_serial(p, db, [TxnCall("incr", (1,)), TxnCall("incr", (1,))])
        assert is_serializable(h)
        assert h.state.materialize()["T"][(1,)]["v"] == 2


class TestLostUpdate:
    def _lost_update_history(self):
        p, db = _setup()
        # Both increments read before either write; neither sees the other.
        return run_interleaved(
            p, db,
            [TxnCall("incr", (1,)), TxnCall("incr", (1,))],
            schedule=[0, 1, 0, 1],
            policy=ScriptedView([frozenset()] * 4),
        )

    def test_final_state_loses_one_update(self):
        h = self._lost_update_history()
        assert h.state.materialize()["T"][(1,)]["v"] == 1

    def test_not_serializable(self):
        assert not is_serializable(self._lost_update_history())

    def test_violates_strong_atomicity(self):
        assert check_strong_atomicity(self._lost_update_history()) is not None


class TestFracturedRead:
    SRC = """
    schema A { key id; field x; }
    schema B { key id; field y; }
    txn writer(k) {
      update A set x = 1 where id = k;
      update B set y = 1 where id = k;
    }
    txn observer(k) {
      a := select x from A where id = k;
      b := select y from B where id = k;
      return a.x - b.y;
    }
    """

    def _run(self, script):
        p = parse_program(self.SRC)
        db = Database(p)
        db.insert("A", id=1, x=0)
        db.insert("B", id=1, y=0)
        return run_interleaved(
            p, db,
            [TxnCall("writer", (1,)), TxnCall("observer", (1,))],
            schedule=[0, 0, 1, 1],
            policy=ScriptedView(script),
        )

    def test_fractured_observation_nonserializable(self):
        # Observer sees the write to A but not the write to B.
        script = [
            frozenset(),                 # writer U1
            frozenset(),                 # writer U2
            frozenset({(0, "U1")}),      # observer S1 sees U1
            frozenset(),                 # observer S2 sees nothing
        ]
        h = self._run(script)
        assert h.results[1] == 1  # saw x=1, y=0
        assert not is_serializable(h)

    def test_consistent_observation_serializable(self):
        script = [
            frozenset(),
            frozenset(),
            frozenset({(0, "U1")}),
            frozenset({(0, "U1"), (0, "U2")}),
        ]
        h = self._run(script)
        assert h.results[1] == 0
        assert is_serializable(h)


class TestRandomPartialView:
    def test_full_probability_equals_serial_result(self):
        p, db = _setup()
        h = run_interleaved(
            p, db,
            [TxnCall("incr", (1,)), TxnCall("incr", (1,))],
            schedule=[0, 0, 1, 1],
            policy=RandomPartialView(random.Random(0), p_visible=1.0),
        )
        assert h.state.materialize()["T"][(1,)]["v"] == 2
        assert is_serializable(h)

    def test_zero_probability_loses_updates(self):
        p, db = _setup()
        h = run_interleaved(
            p, db,
            [TxnCall("incr", (1,)), TxnCall("incr", (1,))],
            schedule=[0, 0, 1, 1],
            policy=RandomPartialView(random.Random(0), p_visible=0.0),
        )
        assert h.state.materialize()["T"][(1,)]["v"] == 1

    def test_read_your_writes_holds(self):
        p, db = _setup()
        h = run_interleaved(
            p, db,
            [TxnCall("incr", (1,))],
            schedule=[0, 0],
            policy=RandomPartialView(random.Random(0), p_visible=0.0),
        )
        # The single transaction still sees its own effects.
        assert h.state.materialize()["T"][(1,)]["v"] == 1


class TestAtomicityClosure:
    def test_views_closed_under_record_atomicity(self):
        src = """
        schema T { key id; field a; field b; }
        txn w(k) { update T set a = 1, b = 2 where id = k; }
        txn r(k) { x := select a, b from T where id = k; return x.a + x.b; }
        """
        p = parse_program(src)
        db = Database(p)
        db.insert("T", id=1, a=0, b=0)
        # Script asks for the writer's atom; closure must deliver both
        # field writes together (they share a command and a record).
        h = run_interleaved(
            p, db,
            [TxnCall("w", (1,)), TxnCall("r", (1,))],
            schedule=[0, 1],
            policy=ScriptedView([frozenset(), frozenset({(0, "U1")})]),
        )
        assert h.results[1] in (0, 3)  # never 1 or 2: no partial row


def _kahn_acyclic(graph):
    """Reference: Kahn's algorithm peels zero-in-degree nodes; a cycle
    leaves nodes it can never peel."""
    indegree = {node: 0 for node in graph}
    for successors in graph.values():
        for succ in successors:
            indegree[succ] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        node = ready.pop()
        peeled += 1
        for succ in graph[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return peeled == len(graph)


@st.composite
def digraphs(draw):
    nodes = draw(st.integers(min_value=0, max_value=9))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, max(nodes - 1, 0)),
                st.integers(0, max(nodes - 1, 0)),
            ),
            max_size=20 if nodes else 0,
        )
    )
    graph = {node: set() for node in range(nodes)}
    for src, dst in edges:
        graph[src].add(dst)
    return graph


class TestAcyclicity:
    @settings(max_examples=400, deadline=None)
    @given(digraphs())
    def test_matches_kahn_reference(self, graph):
        assert is_acyclic(graph) == _kahn_acyclic(graph)

    def test_self_loop_is_a_cycle(self):
        assert not is_acyclic({0: {0}})

    def test_deep_chain_needs_no_recursion(self):
        chain = {i: {i + 1} for i in range(5000)}
        chain[5000] = set()
        assert is_acyclic(chain)
        chain[5000] = {0}
        assert not is_acyclic(chain)
