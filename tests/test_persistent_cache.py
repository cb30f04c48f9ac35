"""Persistent query cache: cross-process round trips, versioned
invalidation, and the O(touched) invalidation indexes."""

import os
import sqlite3

from repro.analysis import (
    AnomalyOracle,
    EC,
    PersistentQueryCache,
    QueryCache,
    RR,
)
from repro.analysis.encoding import encoding_fingerprint
from repro.analysis.pipeline import WitnessData
from repro.lang import parse_program


def canonical(pairs):
    return [
        (
            p.txn,
            p.c1,
            p.c2,
            tuple(sorted(p.fields1)),
            tuple(sorted(p.fields2)),
            p.interferers,
            p.patterns,
        )
        for p in pairs
    ]


KEY = ("c1" * 20, "c2" * 20, "bb" * 20, "EC", True)
WITNESS = WitnessData(
    pattern="rw-race", fields1=frozenset({"x"}), fields2=frozenset({"y", "z"})
)


class TestRoundTrip:
    def test_write_reopen_hit(self, tmp_path):
        cache = PersistentQueryCache(str(tmp_path))
        cache.store(KEY, WITNESS, txns={"t1", "t2"}, tables={"A"})
        cache.store(
            KEY[:3] + ("RR", True), None, txns={"t1"}, tables={"A"}
        )
        cache.close()

        reopened = PersistentQueryCache(str(tmp_path))
        assert len(reopened) == 2
        found, witness = reopened.lookup(KEY)
        assert found and witness == WITNESS
        found, witness = reopened.lookup(KEY[:3] + ("RR", True))
        assert found and witness is None
        assert reopened.hits == 2 and reopened.misses == 0
        assert reopened.persistent_hits == 2
        reopened.close()

    def test_miss_stays_miss(self, tmp_path):
        cache = PersistentQueryCache(str(tmp_path))
        found, witness = cache.lookup(KEY)
        assert not found and witness is None
        assert cache.misses == 1
        cache.close()

    def test_ec_unsat_reused_from_disk_at_stronger_levels(self, tmp_path):
        cache = PersistentQueryCache(str(tmp_path))
        cache.store(KEY, None, txns={"t1"}, tables={"A"})
        cache.close()
        reopened = PersistentQueryCache(str(tmp_path))
        found, witness = reopened.lookup(KEY[:3] + ("RR", True))
        assert found and witness is None
        reopened.close()

    def test_version_bump_misses_and_drops(self, tmp_path):
        cache = PersistentQueryCache(str(tmp_path), version="v1")
        cache.store(KEY, WITNESS, txns={"t1"}, tables={"A"})
        cache.close()
        bumped = PersistentQueryCache(str(tmp_path), version="v2")
        assert bumped.version_evictions == 1
        assert len(bumped) == 0
        found, _ = bumped.lookup(KEY)
        assert not found
        bumped.close()
        # ...and the drop is durable: reopening at v1 finds nothing.
        back = PersistentQueryCache(str(tmp_path), version="v1")
        assert len(back) == 0
        back.close()

    def test_default_version_is_encoding_fingerprint(self, tmp_path):
        cache = PersistentQueryCache(str(tmp_path))
        assert cache.version == encoding_fingerprint()
        cache.close()

    def test_db_failure_degrades_to_memory_only(self, tmp_path):
        """A dying sqlite connection must never take the analysis down:
        the persistent tier switches off and the memory tier carries on."""
        cache = PersistentQueryCache(str(tmp_path))
        cache._conn.close()  # simulate the connection dying mid-run
        cache.store(KEY, WITNESS, txns={"t1"}, tables={"A"})  # no raise
        assert cache._db_broken
        found, witness = cache.lookup(KEY)
        assert found and witness == WITNESS
        assert cache.invalidate(txns={"t1"}) == 1
        cache.clear()
        cache.close()  # no raise either

    def test_corrupt_file_rebuilt_empty(self, tmp_path):
        path = os.path.join(str(tmp_path), "oracle_cache.sqlite")
        with open(path, "w") as fh:
            fh.write("this is not a sqlite database, not even close")
        cache = PersistentQueryCache(str(tmp_path))
        assert len(cache) == 0
        cache.store(KEY, None, txns={"t"}, tables={"A"})
        cache.close()
        reopened = PersistentQueryCache(str(tmp_path))
        assert len(reopened) == 1
        reopened.close()


class TestOracleIntegration:
    SRC = """
    schema T { key id; field v; }
    txn inc(k) {
      x := select v from T where id = k;
      update T set v = x.v + 1 where id = k;
    }
    """

    def test_second_process_warm_starts(self, tmp_path, courseware):
        cache = PersistentQueryCache(str(tmp_path))
        oracle = AnomalyOracle(EC, strategy="incremental", cache=cache)
        first = oracle.analyze(courseware)
        oracle.close()
        assert first.cache_hits == 0
        cache.close()

        # A fresh cache object over the same directory stands in for a
        # fresh process: every query must come from disk.
        warm_cache = PersistentQueryCache(str(tmp_path))
        warm_oracle = AnomalyOracle(
            EC, strategy="incremental", cache=warm_cache
        )
        second = warm_oracle.analyze(courseware)
        warm_oracle.close()
        assert second.cache_misses == 0
        assert second.sat_queries == 0
        assert warm_cache.persistent_hits == second.cache_hits
        assert canonical(first.pairs) == canonical(second.pairs)
        warm_cache.close()

    def test_levels_share_the_store(self, tmp_path, courseware):
        cache = PersistentQueryCache(str(tmp_path))
        AnomalyOracle(EC, strategy="incremental", cache=cache).analyze(courseware)
        cache.close()
        warm = PersistentQueryCache(str(tmp_path))
        report = AnomalyOracle(RR, strategy="incremental", cache=warm).analyze(
            courseware
        )
        # Every EC-UNSAT row serves the RR sweep straight from disk (the
        # cross-level reuse rule); SAT rows still solve at RR.
        assert warm.persistent_hits > 0
        assert report.pairs  # courseware anomalies persist under RR
        warm.close()

    def test_rmw_program_detected_through_persistent_cache(self, tmp_path):
        program = parse_program(self.SRC)
        cold = AnomalyOracle(EC).analyze(program)
        cache = PersistentQueryCache(str(tmp_path))
        AnomalyOracle(EC, strategy="incremental", cache=cache).analyze(program)
        cache.close()
        warm = PersistentQueryCache(str(tmp_path))
        report = AnomalyOracle(EC, strategy="incremental", cache=warm).analyze(
            program
        )
        assert canonical(report.pairs) == canonical(cold.pairs)
        assert warm.persistent_hits > 0
        warm.close()


class TestInvalidation:
    def test_invalidate_is_indexed(self, courseware, tmp_path):
        """Invalidation must consult the inverted indexes, not scan."""
        cache = QueryCache()
        AnomalyOracle(EC, strategy="incremental", cache=cache).analyze(courseware)
        populated = len(cache)
        assert populated > 0
        # The index maps exactly the stored entries.
        indexed = set()
        for keys in cache._by_txn.values():
            indexed |= keys
        assert indexed == set(cache._entries)
        dropped = cache.invalidate(txns={"regSt"})
        assert 0 < dropped < populated
        assert len(cache) == populated - dropped
        # Index entries for dropped keys are gone too.
        for keys in cache._by_txn.values():
            assert not (keys - set(cache._entries))

    def test_store_overwrite_reindexes(self):
        cache = QueryCache()
        cache.store(KEY, None, txns={"a"}, tables={"T"})
        cache.store(KEY, None, txns={"b"}, tables={"U"})
        assert cache.invalidate(txns={"a"}) == 0
        assert cache.invalidate(txns={"b"}) == 1
        assert len(cache) == 0

    def test_persistent_invalidate_reaches_disk(self, tmp_path):
        cache = PersistentQueryCache(str(tmp_path))
        cache.store(KEY, WITNESS, txns={"t1"}, tables={"A"})
        cache.store(KEY[:3] + ("RR", True), None, txns={"t2"}, tables={"B"})
        cache.close()
        reopened = PersistentQueryCache(str(tmp_path))
        # Neither entry is in memory yet; invalidation must still find
        # the touched row via the participants table.
        assert reopened.invalidate(txns={"t1"}) == 1
        assert len(reopened) == 1
        reopened.close()
        final = PersistentQueryCache(str(tmp_path))
        found, _ = final.lookup(KEY)
        assert not found
        found, _ = final.lookup(KEY[:3] + ("RR", True))
        assert found
        final.close()

    def test_participants_rows_match_entries(self, tmp_path):
        cache = PersistentQueryCache(str(tmp_path))
        cache.store(KEY, WITNESS, txns={"t1", "t2"}, tables={"A"})
        cache.store(KEY, WITNESS, txns={"t3"}, tables={"A"})  # overwrite
        cache.close()
        conn = sqlite3.connect(os.path.join(str(tmp_path), "oracle_cache.sqlite"))
        rows = conn.execute(
            "SELECT kind, name FROM participants ORDER BY kind, name"
        ).fetchall()
        conn.close()
        assert rows == [("table", "A"), ("txn", "t3")]


class TestCrossThreadUse:
    def test_store_from_worker_thread_persists(self, tmp_path):
        """The API workspace (and the HTTP service on it) opens the
        cache on one thread and stores from whichever thread holds its
        lock; the sqlite tier must accept that instead of silently
        degrading to memory-only (check_same_thread)."""
        import threading

        cache = PersistentQueryCache(str(tmp_path))
        errors = []

        def store():
            try:
                cache.store(KEY, WITNESS, txns={"t1"}, tables={"A"})
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        thread = threading.Thread(target=store)
        thread.start()
        thread.join()
        assert not errors
        assert not cache._db_broken, "cross-thread store tripped _guard_db"
        cache.close()
        reopened = PersistentQueryCache(str(tmp_path))
        found, witness = reopened.lookup(KEY)
        assert found and witness == WITNESS
        assert reopened.persistent_hits == 1
        reopened.close()
