"""Analysis execution pipeline: planned, cached, incremental SAT queries.

The seed oracle (:class:`repro.analysis.oracle.AnomalyOracle` with
``strategy="serial"``) discharges every ``(transaction, command pair,
interferer)`` SAT query inline, one at a time, and re-solves everything
from scratch on every call.  This module turns that loop into an
execution subsystem with three levers:

1. a :class:`QueryPlanner` that enumerates the oracle's queries, one
   batch of queries (one per interferer) per candidate access pair;
2. the in-process runner :class:`IncrementalStrategy`: warm per-triple
   solver sessions with activation-literal axiom groups (see
   :class:`~repro.analysis.encoding.PairSession`), one assumption sweep
   per focus triple over every level a call asks for;
3. a :class:`QueryCache` memoising query outcomes under structural
   fingerprints of the participating :class:`TransactionSummary` data
   plus the consistency level, so a repair loop's re-analysis only
   re-solves queries whose transactions a rewrite actually touched --
   and :class:`PersistentQueryCache`, the same cache written through to
   a sqlite file so outcomes survive across processes and runs, with
   versioned invalidation keyed to the encoding's source fingerprint.

:class:`AnalysisPipeline` drives all three for ``analyze``,
``analyze_many`` (several programs, one sweep) and ``analyze_levels``
(one program, several levels) through one driver.  Per-query results
are independent of execution order, so it produces the same
:class:`~repro.analysis.oracle.AnalysisReport` pair set as the seed
loop; queries are solved with the constant-folding Tseitin pass
(``FormulaBuilder(fold_constants=True)``), which discharges the same
queries on a much smaller clause stream.  :func:`solve_query` is the
cold per-query reference the differential tests compare against.

Caching is sound because a query's outcome is a pure function of its
fingerprinted inputs: the two focus commands, the interfering
transaction's full command list, the consistency level, and the
``distinct_args`` knob.  Transaction and interferer *names* are excluded
from the key (they only label the result), so rewrites that rename or
merge labels invalidate exactly the entries whose fingerprinted
structure changed.  One cross-level rule is exploited: every level's
axiom set extends EC's, so a query UNSAT under EC is UNSAT under any
level and the cached EC miss is reused verbatim.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.accesses import (
    CommandInfo,
    TransactionSummary,
    summarize_program,
)
from repro.analysis.consistency import ConsistencyLevel, by_name
from repro.analysis.encoding import (
    PairEncoder,
    PairWitness,
    has_disjuncts,
    tables_may_conflict,
)
from repro.errors import BudgetExhaustedError
from repro.faults import FaultInjected, failpoint_bytes
from repro.lang import ast
from repro.smt.formula import big_or, evaluate


class WitnessData(NamedTuple):
    """A :class:`PairWitness` minus the interferer name (which is not part
    of the cache key and is re-attached by the consumer)."""

    pattern: str
    fields1: FrozenSet[str]
    fields2: FrozenSet[str]


class QueryOutcome(NamedTuple):
    """Result of executing one query: witness (or None), whether a SAT
    solve actually ran (False when the static screen emptied the query),
    and the solver's counters."""

    witness: Optional[WitnessData]
    solved: bool
    stats: Dict[str, int]


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------


@lru_cache(maxsize=65536)
def fingerprint_command(cmd: CommandInfo) -> str:
    """Stable structural digest of one command summary.

    Everything the encoder can observe is included; the owning
    transaction's *name* is not, so a renamed-but-identical transaction
    still hits the cache.  Memoised: summaries are frozen dataclasses,
    and the planner re-fingerprints the same commands on every repair
    fixpoint iteration and level sweep.
    """
    payload = repr(
        (
            cmd.label,
            cmd.kind,
            cmd.table,
            cmd.read_fields,
            cmd.write_fields,
            cmd.key_exprs,
            cmd.var,
            cmd.rmw_sources,
            cmd.uuid_key,
            cmd.in_loop,
            cmd.in_branch,
        )
    )
    return hashlib.sha1(payload.encode()).hexdigest()


@lru_cache(maxsize=65536)
def fingerprint_summary(summary: TransactionSummary) -> str:
    """Stable structural digest of a whole transaction summary."""
    payload = repr(summary.params).encode() + b"|".join(
        fingerprint_command(c).encode() for c in summary.commands
    )
    return hashlib.sha1(payload).hexdigest()


CacheKey = Tuple[str, str, str, str, bool]


def query_cache_key(
    c1_fp: str,
    c2_fp: str,
    b_fp: str,
    level: ConsistencyLevel,
    distinct_args: bool,
) -> CacheKey:
    return (c1_fp, c2_fp, b_fp, level.name, distinct_args)


# ---------------------------------------------------------------------------
# Memo cache
# ---------------------------------------------------------------------------


@dataclass
class _CacheEntry:
    witness: Optional[WitnessData]
    txns: FrozenSet[str]
    tables: FrozenSet[str]


class QueryCache:
    """Memo cache for anomaly queries, keyed by structural fingerprints.

    Correctness never depends on explicit invalidation -- a rewritten
    transaction fingerprints differently and simply misses, which is
    what the repair fixpoint itself relies on -- but :meth:`invalidate`
    lets a long-lived caller (a driver holding one cache across many
    repair runs, or a service evicting a retired benchmark) drop the
    entries touching given transaction names or tables, bounding
    staleness and memory.  Entries are indexed by their participating
    transaction names and tables on the way in, so invalidation walks
    only the touched entries (O(touched)), not the whole cache.
    """

    def __init__(self) -> None:
        self._entries: Dict[CacheKey, _CacheEntry] = {}
        self._by_txn: Dict[str, Set[CacheKey]] = {}
        self._by_table: Dict[str, Set[CacheKey]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, key: CacheKey) -> Tuple[bool, Optional[WitnessData]]:
        found, witness = self._find(key)
        if found:
            self.hits += 1
        else:
            self.misses += 1
        return found, witness

    def _find(self, key: CacheKey) -> Tuple[bool, Optional[WitnessData]]:
        """Uncounted lookup; subclasses extend it with further tiers."""
        entry = self._entries.get(key)
        if entry is not None:
            return True, entry.witness
        if key[3] != "EC":
            # Every level's axioms extend EC's, so an EC-UNSAT query is
            # UNSAT at any level; reuse the (witness-free) outcome.
            ec_entry = self._entries.get(key[:3] + ("EC", key[4]))
            if ec_entry is not None and ec_entry.witness is None:
                return True, None
        return False, None

    def store(
        self,
        key: CacheKey,
        witness: Optional[WitnessData],
        txns: Iterable[str],
        tables: Iterable[str],
    ) -> None:
        self._install(key, witness, txns, tables)

    def _install(
        self,
        key: CacheKey,
        witness: Optional[WitnessData],
        txns: Iterable[str],
        tables: Iterable[str],
    ) -> _CacheEntry:
        """Place an entry in the in-memory store and its indexes."""
        old = self._entries.get(key)
        if old is not None:
            self._unindex(key, old)
        entry = _CacheEntry(
            witness=witness, txns=frozenset(txns), tables=frozenset(tables)
        )
        self._entries[key] = entry
        for txn in entry.txns:
            self._by_txn.setdefault(txn, set()).add(key)
        for table in entry.tables:
            self._by_table.setdefault(table, set()).add(key)
        return entry

    def _unindex(self, key: CacheKey, entry: _CacheEntry) -> None:
        for txn in entry.txns:
            keys = self._by_txn.get(txn)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_txn[txn]
        for table in entry.tables:
            keys = self._by_table.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_table[table]

    def _doomed_keys(
        self, txn_set: FrozenSet[str], table_set: FrozenSet[str]
    ) -> Set[CacheKey]:
        doomed: Set[CacheKey] = set()
        for txn in txn_set:
            doomed |= self._by_txn.get(txn, set())
        for table in table_set:
            doomed |= self._by_table.get(table, set())
        return doomed

    def _remove(self, keys: Iterable[CacheKey]) -> None:
        for key in keys:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._unindex(key, entry)

    def invalidate(
        self,
        txns: Iterable[str] = (),
        tables: Iterable[str] = (),
    ) -> int:
        """Drop entries involving any of the given transaction names or
        tables; returns how many entries were removed.  Touches only the
        entries the inverted indexes name, never the whole store."""
        txn_set = frozenset(txns)
        table_set = frozenset(tables)
        if not txn_set and not table_set:
            return 0
        doomed = self._doomed_keys(txn_set, table_set)
        self._remove(doomed)
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()
        self._by_txn.clear()
        self._by_table.clear()

    def close(self) -> None:  # symmetry with PersistentQueryCache
        pass


class PersistentQueryCache(QueryCache):
    """A :class:`QueryCache` backed by a sqlite file under ``cache_dir``.

    The in-memory tier behaves exactly like the plain cache; misses fall
    through to the database, and every store is written through, so a
    later process pointed at the same directory warm-starts with the
    previous run's outcomes (``repro table1 --cache-dir``, repeated
    ``repro bench`` runs, a repair fixpoint resumed after a crash).

    Entries are stamped with :func:`~repro.analysis.encoding.
    encoding_fingerprint`; opening a cache written by a different
    encoding version drops every persisted row, so a code change can
    never replay stale outcomes.  The sqlite side mirrors the in-memory
    inverted indexes with a ``participants`` table, keeping
    :meth:`invalidate` O(touched) across runs too.

    Durability is deliberately relaxed (``synchronous=OFF``, and writes
    batched into one long transaction committed every
    ``_COMMIT_EVERY`` stores and on :meth:`close` -- per-store
    autocommit would make a cold run pay a transaction per query): the
    cache is a pure memo -- a crash can at worst lose or corrupt it,
    and a corrupt file is detected on open and rebuilt empty.  Reads on
    the same connection see the uncommitted writes; other processes see
    them after :meth:`close`.
    """

    _COMMIT_EVERY = 512

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS meta (
            key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE IF NOT EXISTS entries (
            c1 TEXT NOT NULL, c2 TEXT NOT NULL, b TEXT NOT NULL,
            level TEXT NOT NULL, distinct_args INTEGER NOT NULL,
            witness TEXT, txns TEXT NOT NULL, tabs TEXT NOT NULL,
            checksum TEXT,
            PRIMARY KEY (c1, c2, b, level, distinct_args));
        CREATE TABLE IF NOT EXISTS participants (
            kind TEXT NOT NULL, name TEXT NOT NULL,
            c1 TEXT NOT NULL, c2 TEXT NOT NULL, b TEXT NOT NULL,
            level TEXT NOT NULL, distinct_args INTEGER NOT NULL);
        CREATE INDEX IF NOT EXISTS participants_by_name
            ON participants (kind, name);
        CREATE INDEX IF NOT EXISTS participants_by_key
            ON participants (c1, c2, b, level, distinct_args);
    """

    def __init__(self, cache_dir: str, version: Optional[str] = None):
        super().__init__()
        import sqlite3

        from repro.analysis.encoding import encoding_fingerprint

        self.cache_dir = cache_dir
        self.version = version or encoding_fingerprint()
        self.persistent_hits = 0
        self.version_evictions = 0
        self.quarantined = 0
        self._db_broken = False
        self._pending_writes = 0
        os.makedirs(cache_dir, exist_ok=True)
        self.path = os.path.join(cache_dir, "oracle_cache.sqlite")
        self._conn = None
        # check_same_thread=False: a long-lived holder (the API
        # Workspace, and the HTTP service on top of it) opens the cache
        # on its constructing thread but stores/looks up from whichever
        # thread holds its lock.  Callers already serialize all cache
        # access (the workspace lock; the CLI is single-threaded), and
        # sqlite connections are safe to move between threads as long
        # as uses never overlap -- without this flag the first
        # cross-thread store raises ProgrammingError, which _guard_db
        # would swallow into a silent memory-only downgrade.
        connect = lambda target: sqlite3.connect(  # noqa: E731
            target, isolation_level=None, check_same_thread=False
        )
        try:
            self._conn = connect(self.path)
            self._open_pragmas()
            self._conn.executescript(self._SCHEMA)
            self._migrate_schema()
        except sqlite3.DatabaseError:
            # Not a sqlite file (torn write, foreign junk): rebuild
            # once -- removing the WAL/shm sidecars too, or sqlite may
            # replay a stale WAL into the fresh empty database.
            try:
                if self._conn is not None:
                    self._conn.close()
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.remove(self.path + suffix)
                    except FileNotFoundError:
                        pass
                self._conn = connect(self.path)
                self._open_pragmas()
                self._conn.executescript(self._SCHEMA)
            except (sqlite3.Error, OSError):  # pragma: no cover - disk gone
                self._db_broken = True
        if self._conn is None:  # pragma: no cover - connect itself failed
            self._conn = connect(":memory:")
        if not self._db_broken:
            # The version handshake needs the write lock; a concurrent
            # writer holding its batched transaction past busy_timeout
            # must degrade this opener to memory-only, not crash it.
            try:
                stored = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'encoding_version'"
                ).fetchone()
                if stored is None or stored[0] != self.version:
                    if stored is not None:
                        self.version_evictions = self._db_len()
                    self._conn.execute("DELETE FROM entries")
                    self._conn.execute("DELETE FROM participants")
                    self._conn.execute(
                        "INSERT OR REPLACE INTO meta "
                        "VALUES ('encoding_version', ?)",
                        (self.version,),
                    )
            except sqlite3.Error as error:
                self._guard_db(error)
        # Rows written during this run are always in memory too, so disk
        # lookups only ever pay off for rows persisted by *earlier* runs;
        # a store that opened empty can skip them entirely.
        self._persisted_at_open = 0 if self._db_broken else self._db_len()

    def _migrate_schema(self) -> None:
        # Caches written before entries grew a checksum column lack it
        # (CREATE TABLE IF NOT EXISTS never alters); add it in place so
        # the version handshake, not the schema, decides their fate.
        cols = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(entries)")
        }
        if "checksum" not in cols:
            self._conn.execute("ALTER TABLE entries ADD COLUMN checksum TEXT")

    @staticmethod
    def _checksum(raw_witness, txns_json: str, tabs_json: str) -> str:
        payload = "|".join((raw_witness or "", txns_json, tabs_json))
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def _open_pragmas(self) -> None:
        # WAL lets concurrent readers proceed under an open write
        # transaction, and the busy timeout makes a second writer wait
        # instead of failing instantly; a still-contended (or otherwise
        # erroring) statement trips _guard_db, which drops this process
        # to memory-only rather than aborting the analysis.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA busy_timeout=5000")

    def _guard_db(self, error: Exception) -> None:
        """A cache is a memo: a failing store must never take the run
        down.  Disable the persistent tier for this process and keep
        serving the in-memory one."""
        import sqlite3

        self._db_broken = True
        self._persisted_at_open = 0  # skip all further disk lookups
        try:
            if self._conn.in_transaction:
                self._conn.rollback()
        except sqlite3.Error:  # pragma: no cover - double fault
            pass

    def __len__(self) -> int:
        # Every persisted row a run saw is also in memory, so the db
        # count dominates (it may hold rows from earlier runs too).
        return max(len(self._entries), self._db_len())

    def _db_len(self) -> int:
        import sqlite3

        if self._db_broken:
            return 0
        try:
            return self._conn.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()[0]
        except sqlite3.Error as error:
            self._guard_db(error)
            return 0

    def _find(self, key: CacheKey) -> Tuple[bool, Optional[WitnessData]]:
        found, witness = super()._find(key)
        if found:
            return True, witness
        if not self._persisted_at_open:
            return False, None
        row = self._db_fetch(key)
        if row is not None:
            self.persistent_hits += 1
            return True, self._install(key, *row).witness
        if key[3] != "EC":
            ec_row = self._db_fetch(key[:3] + ("EC", key[4]))
            if ec_row is not None and ec_row[0] is None:
                self.persistent_hits += 1
                self._install(key[:3] + ("EC", key[4]), *ec_row)
                return True, None
        return False, None

    def _db_fetch(self, key: CacheKey):
        import sqlite3

        try:
            row = self._conn.execute(
                "SELECT witness, txns, tabs, checksum FROM entries "
                "WHERE c1=? AND c2=? AND b=? AND level=? AND distinct_args=?",
                self._db_key(key),
            ).fetchone()
        except sqlite3.Error as error:
            self._guard_db(error)
            return None
        if row is None:
            return None
        raw_witness, txns, tables, checksum = row
        # Re-decode through the corruption failpoint, then verify the
        # stored checksum: a torn or bit-flipped row is quarantined
        # (deleted) and reported as a miss, so the caller re-solves and
        # re-stores a clean entry instead of replaying garbage.
        payload = "|".join(
            (raw_witness or "", txns, tables)
        ).encode("utf-8")
        try:
            payload = failpoint_bytes("cache.read", payload)
        except FaultInjected:
            return None
        if checksum is not None and (
            hashlib.sha1(payload).hexdigest() != checksum
        ):
            self._quarantine(key)
            return None
        witness = None
        try:
            if raw_witness is not None:
                data = json.loads(raw_witness)
                witness = WitnessData(
                    pattern=data["pattern"],
                    fields1=frozenset(data["fields1"]),
                    fields2=frozenset(data["fields2"]),
                )
            return witness, json.loads(txns), json.loads(tables)
        except (ValueError, KeyError, TypeError):
            # Undetectable without the checksum (legacy row) or a
            # collision-free corruption: still never crash the run.
            self._quarantine(key)
            return None

    def _quarantine(self, key: CacheKey) -> None:
        import sqlite3

        self.quarantined += 1
        db_key = self._db_key(key)
        where = "c1=? AND c2=? AND b=? AND level=? AND distinct_args=?"
        try:
            self._begin_write()
            self._conn.execute(f"DELETE FROM entries WHERE {where}", db_key)
            self._conn.execute(
                f"DELETE FROM participants WHERE {where}", db_key
            )
            self._written()
        except sqlite3.Error as error:
            self._guard_db(error)

    @staticmethod
    def _db_key(key: CacheKey) -> Tuple[str, str, str, str, int]:
        return (key[0], key[1], key[2], key[3], int(key[4]))

    def _begin_write(self) -> None:
        if not self._conn.in_transaction:
            self._conn.execute("BEGIN")

    def _written(self) -> None:
        self._pending_writes += 1
        if self._pending_writes >= self._COMMIT_EVERY:
            self._commit()

    def _commit(self) -> None:
        if self._conn.in_transaction:
            self._conn.commit()
        self._pending_writes = 0

    def store(
        self,
        key: CacheKey,
        witness: Optional[WitnessData],
        txns: Iterable[str],
        tables: Iterable[str],
    ) -> None:
        import sqlite3

        entry = self._install(key, witness, txns, tables)
        if self._db_broken:
            return
        raw_witness = None
        if witness is not None:
            raw_witness = json.dumps(
                {
                    "pattern": witness.pattern,
                    "fields1": sorted(witness.fields1),
                    "fields2": sorted(witness.fields2),
                }
            )
        db_key = self._db_key(key)
        txns_json = json.dumps(sorted(entry.txns))
        tabs_json = json.dumps(sorted(entry.tables))
        try:
            self._begin_write()
            self._conn.execute(
                "INSERT OR REPLACE INTO entries "
                "(c1, c2, b, level, distinct_args, "
                "witness, txns, tabs, checksum) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                db_key
                + (
                    raw_witness,
                    txns_json,
                    tabs_json,
                    self._checksum(raw_witness, txns_json, tabs_json),
                ),
            )
            self._conn.execute(
                "DELETE FROM participants WHERE c1=? AND c2=? AND b=? "
                "AND level=? AND distinct_args=?",
                db_key,
            )
            self._conn.executemany(
                "INSERT INTO participants VALUES (?, ?, ?, ?, ?, ?, ?)",
                [("txn", name) + db_key for name in entry.txns]
                + [("table", name) + db_key for name in entry.tables],
            )
            self._written()
        except sqlite3.Error as error:
            self._guard_db(error)

    def invalidate(
        self,
        txns: Iterable[str] = (),
        tables: Iterable[str] = (),
    ) -> int:
        import sqlite3

        txn_set = frozenset(txns)
        table_set = frozenset(tables)
        if not txn_set and not table_set:
            return 0
        doomed = self._doomed_keys(txn_set, table_set)
        try:
            if not self._db_broken:
                for kind, names in (("txn", txn_set), ("table", table_set)):
                    for name in names:
                        for db_key in self._conn.execute(
                            "SELECT c1, c2, b, level, distinct_args "
                            "FROM participants WHERE kind=? AND name=?",
                            (kind, name),
                        ).fetchall():
                            doomed.add(
                                (
                                    db_key[0],
                                    db_key[1],
                                    db_key[2],
                                    db_key[3],
                                    bool(db_key[4]),
                                )
                            )
        except sqlite3.Error as error:
            self._guard_db(error)
        self._remove(doomed)
        if doomed and not self._db_broken:
            try:
                self._begin_write()
                for key in doomed:
                    db_key = self._db_key(key)
                    where = (
                        "c1=? AND c2=? AND b=? AND level=? AND distinct_args=?"
                    )
                    self._conn.execute(
                        f"DELETE FROM entries WHERE {where}", db_key
                    )
                    self._conn.execute(
                        f"DELETE FROM participants WHERE {where}", db_key
                    )
                    self._written()
            except sqlite3.Error as error:
                self._guard_db(error)
        return len(doomed)

    def clear(self) -> None:
        import sqlite3

        super().clear()
        if self._db_broken:
            return
        try:
            self._begin_write()
            self._conn.execute("DELETE FROM entries")
            self._conn.execute("DELETE FROM participants")
            self._written()
        except sqlite3.Error as error:
            self._guard_db(error)

    def close(self) -> None:
        import sqlite3

        try:
            self._commit()
        except sqlite3.Error as error:  # pragma: no cover - teardown race
            self._guard_db(error)
        self._conn.close()


def make_query_cache(cache_dir: Optional[str] = None) -> QueryCache:
    """The memo cache for a run: persistent under ``cache_dir`` when
    one is given, plain in-memory otherwise.  The single constructor
    the CLI and experiment drivers share."""
    if cache_dir:
        return PersistentQueryCache(cache_dir)
    return QueryCache()


# ---------------------------------------------------------------------------
# Query plan
# ---------------------------------------------------------------------------


@dataclass
class QuerySpec:
    """One SAT query: a focus pair of transaction ``a_name`` against one
    interfering transaction instance."""

    index: int
    a_name: str
    c1: CommandInfo
    c2: CommandInfo
    summary_b: TransactionSummary
    cache_key: CacheKey
    tables: FrozenSet[str]


@dataclass
class QueryBatch:
    """All queries contributing witnesses to one candidate access pair;
    their outcomes merge back into one ``AccessPair``."""

    summary_a: TransactionSummary
    c1: CommandInfo
    c2: CommandInfo
    queries: List[QuerySpec] = field(default_factory=list)


@dataclass
class QueryPlan:
    """The planner's output: one batch per candidate access pair."""

    batches: List[QueryBatch]

    def queries(self) -> List[QuerySpec]:
        return [q for batch in self.batches for q in batch.queries]


# Plan memo shared by every planner instance: summaries are interned
# (see repro.analysis.accesses), so re-planning the same program at the
# same level -- repeated analyses across strategy runs, service
# requests, level sweeps -- is a pointer-keyed dict hit.  Plans are
# construction-only data (nothing mutates a QueryPlan after the planner
# returns it), so sharing one instance across runs is safe.
_PLAN_CACHE: Dict[object, QueryPlan] = {}
_PLAN_CACHE_LIMIT = 1024


class QueryPlanner:
    """Enumerates the oracle's SAT queries for one program."""

    def plan(
        self,
        summaries: Dict[str, TransactionSummary],
        level: ConsistencyLevel,
        distinct_args: bool,
    ) -> QueryPlan:
        cache_key = (tuple(summaries.values()), level, distinct_args)
        cached = _PLAN_CACHE.get(cache_key)
        if cached is not None:
            return cached
        summary_fps = {
            name: fingerprint_summary(s) for name, s in summaries.items()
        }
        command_fps = {
            (name, c.label): fingerprint_command(c)
            for name, s in summaries.items()
            for c in s.commands
        }
        batches: List[QueryBatch] = []
        query_index = 0
        for summary in summaries.values():
            for c1, c2 in summary.ordered_pairs():
                batch = QueryBatch(summary_a=summary, c1=c1, c2=c2)
                for other in summaries.values():
                    key = query_cache_key(
                        command_fps[(summary.name, c1.label)],
                        command_fps[(summary.name, c2.label)],
                        summary_fps[other.name],
                        level,
                        distinct_args,
                    )
                    tables = frozenset(
                        {c1.table, c2.table}
                        | {c.table for c in other.commands}
                    )
                    batch.queries.append(
                        QuerySpec(
                            index=query_index,
                            a_name=summary.name,
                            c1=c1,
                            c2=c2,
                            summary_b=other,
                            cache_key=key,
                            tables=tables,
                        )
                    )
                    query_index += 1
                batches.append(batch)
        plan = QueryPlan(batches=batches)
        if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.clear()
        _PLAN_CACHE[cache_key] = plan
        return plan


# ---------------------------------------------------------------------------
# Query execution
# ---------------------------------------------------------------------------


def solve_query(
    c1: CommandInfo,
    c2: CommandInfo,
    summary_b: TransactionSummary,
    level: ConsistencyLevel,
    distinct_args: bool,
    use_prefilter: bool = True,
    budget=None,
) -> QueryOutcome:
    """Discharge one anomaly query; pure function of its arguments.

    Mirrors :meth:`PairEncoder.solve` but collects the candidate
    disjuncts exactly once (the seed path recomputes them when the
    oracle's prefilter is on) and runs on the folding builder.  The
    witness is identical either way; ``use_prefilter`` only mirrors the
    seed oracle's accounting, which bills a disjunct-free query as a
    SAT query when the static screen is off.
    """
    if not tables_may_conflict(c1, c2, summary_b):
        # No interferer command shares a table with the focus pair, so
        # the disjunct set is empty -- skip building the encoder at all.
        return QueryOutcome(witness=None, solved=not use_prefilter, stats={})
    if not has_disjuncts(c1, c2, summary_b.commands, distinct_args):
        # Emptiness decided from the memoised conflict lists alone --
        # identical outcome to building the encoder and finding the
        # disjunct list empty, minus the builder and solver setup.
        return QueryOutcome(witness=None, solved=not use_prefilter, stats={})
    encoder = PairEncoder(
        None, c1, c2, summary_b, level,
        distinct_args=distinct_args, fold_constants=True,
    )
    disjuncts = encoder.collect_disjuncts()
    if not disjuncts:
        return QueryOutcome(witness=None, solved=not use_prefilter, stats={})
    encoder.assert_axioms()
    encoder.builder.add(big_or([d.formula for d in disjuncts]))
    model = encoder.builder.check(budget=budget)
    stats = encoder.builder.solver.stats()
    if model is None:
        return QueryOutcome(witness=None, solved=True, stats=stats)
    fields1: FrozenSet[str] = frozenset()
    fields2: FrozenSet[str] = frozenset()
    pattern = ""
    for d in disjuncts:
        if evaluate(d.formula, model):
            fields1 |= d.fields1
            fields2 |= d.fields2
            pattern = pattern or d.pattern
    return QueryOutcome(
        witness=WitnessData(
            pattern=pattern or disjuncts[0].pattern,
            fields1=fields1,
            fields2=fields2,
        ),
        solved=True,
        stats=stats,
    )


class IncrementalStrategy:
    """Warm incremental solving over an
    :class:`~repro.analysis.oracle.OracleSession` pool.

    Every query lands on the persistent session of its focus triple
    (keyed by structural fingerprint, so the key is stable across the
    repair fixpoint's re-analyses): the first query pays for skeleton
    registration, later queries at other consistency levels reduce to
    one assumption-based solve on the warm solver with the axiom groups
    of that level activated.  The pool lives as long as the strategy
    instance, which the oracle/pipeline keep across ``analyze()`` calls
    -- that is what carries solver state from one fixpoint iteration to
    the next.
    """

    name = "incremental"

    def __init__(self):
        from repro.analysis.oracle import OracleSession

        self.pool = OracleSession()

    def run_levels(
        self,
        specs: Sequence[QuerySpec],
        spec_levels: Sequence[Sequence[ConsistencyLevel]],
        distinct_args: bool,
        use_prefilter: bool = True,
        budget=None,
    ) -> List[List[QueryOutcome]]:
        """One warm assumption sweep per focus triple: ``specs[i]`` is
        discharged at every level of ``spec_levels[i]`` through a single
        :meth:`~repro.analysis.oracle.OracleSession.solve_batch` call,
        so the level sweep pays one session lookup and one incremental
        solve sequence instead of one Python round-trip per level."""
        return [
            self.pool.solve_batch(
                s.c1,
                s.c2,
                s.summary_b,
                list(levels),
                distinct_args,
                use_prefilter=use_prefilter,
                key=(s.cache_key[0], s.cache_key[1], s.cache_key[2], distinct_args),
                budget=budget,
            )
            for s, levels in zip(specs, spec_levels)
        ]

    def close(self) -> None:
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


#: Retired strategy names, kept so old callers still work.  They resolve
#: to the in-process :class:`IncrementalStrategy`: the process-pool
#: runners ran Table 1 slower than it on a 2-core host (the service gets
#: its parallelism from running jobs on several workers), and
#: ``"cached"``'s cold solves behind the memo cache return the same
#: reports as the warm sessions.
DEPRECATED_NAMES = (
    "cached",
    "parallel",
    "parallel-incremental",
    "parallel_incremental",
)


def resolve_strategy(spec):
    """Map a strategy spec (name or instance) to a runner instance.

    Names: ``"incremental"`` (warm per-triple solver sessions + memo
    cache), ``"auto"`` (the default of :class:`~repro.api.Workspace`,
    same as ``"incremental"``) and the :data:`DEPRECATED_NAMES`, which
    resolve to ``"incremental"`` too; ``None`` means ``"incremental"``.
    ``"serial"`` is handled by the oracle itself (the seed execution
    loop) and is not a pipeline strategy.
    """
    if spec is None or spec in ("incremental", "auto") or spec in DEPRECATED_NAMES:
        return IncrementalStrategy()
    if hasattr(spec, "run_levels"):
        return spec
    raise ValueError(
        f"unknown analysis strategy {spec!r}; expected 'serial', "
        "'incremental', 'auto', or a strategy object"
    )


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


class AnalysisPipeline:
    """Plan, memoise, execute, and merge the oracle's SAT queries."""

    def __init__(
        self,
        level: ConsistencyLevel,
        use_prefilter: bool = True,
        distinct_args: bool = True,
        strategy=None,
        cache: Optional[QueryCache] = None,
        progress=None,
        budget=None,
    ):
        self.level = level
        self.use_prefilter = use_prefilter
        self.distinct_args = distinct_args
        self.planner = QueryPlanner()
        self.strategy = resolve_strategy(strategy)
        self.cache = cache if cache is not None else QueryCache()
        # Progress callback (see repro.events): coarse per-batch
        # narration -- start (planned queries, cache hits), solved (the
        # strategy fan-out's size), done (pairs found).  Mutable so a
        # long-lived pipeline can be observed per call.
        self.progress = progress
        # Optional repro.budget.Budget: bounds the strategy fan-out.
        # Exhaustion raises DeadlineExceededError carrying the pairs
        # from every batch whose queries all completed in time.
        self.budget = budget

    def analyze(self, program: ast.Program):
        return self._analyze([program], [self.level])[0]

    def analyze_many(self, programs: Sequence[ast.Program]) -> List:
        """Analyze several programs through *one* strategy run.

        Per-query results are pure functions of their fingerprints, so
        batching changes nothing about any program's report -- but all
        programs' cache misses are deduplicated together and handed to
        the strategy in one sweep (this is how a beam search scores a
        whole generation of candidate plans in one call instead of one
        ``analyze()`` at a time).  Queries shared between programs are
        solved once; the solve is attributed (``sat_queries``,
        ``solver_stats``) to the first program that requested it.  Each
        report's ``elapsed_seconds`` is the whole batch's wall-clock:
        the programs were solved together, so no finer attribution is
        honest.
        """
        return self._analyze(list(programs), [self.level])

    def analyze_levels(
        self, program: ast.Program, levels: Sequence[ConsistencyLevel]
    ) -> List:
        """Analyze one program at several consistency levels in one
        strategy sweep; returns one report per level, in order.

        Results are identical to one :meth:`analyze` per level (each
        query is a pure function of its fingerprints, and the cache is
        consulted per level), but the runner discharges a triple's whole
        level sweep on one warm session in one incremental solve
        sequence instead of re-entering the stack per level.  Like
        :meth:`analyze_many`, each report's ``elapsed_seconds`` is the
        whole sweep's wall-clock.
        """
        return self._analyze([program], list(levels))

    def _analyze(
        self,
        programs: Sequence[ast.Program],
        levels: Sequence[ConsistencyLevel],
    ) -> List:
        """The one driver: a report per (program, level) plan, programs
        outermost.

        Every plan's queries are looked up in the cache; the misses are
        grouped by focus triple and, within a triple, by full cache key
        -- structurally identical twins (within a program or across the
        batch) share one solve, and a triple's levels are distinct keys
        discharged in one ``run_levels`` sweep.  Attribution
        (``sat_queries``, ``solver_stats``) goes to the first plan that
        requested a key.
        """
        from repro.analysis.oracle import AnalysisReport, deadline_error
        from repro.events import emit

        start = time.perf_counter()
        plans: List[Tuple[ConsistencyLevel, QueryPlan]] = []
        for program in programs:
            summaries = summarize_program(program)
            for level in levels:
                plans.append(
                    (level, self.planner.plan(summaries, level, self.distinct_args))
                )
        outcomes: List[Dict[int, Optional[WitnessData]]] = [{} for _ in plans]
        lookup_counts: List[Tuple[int, int]] = []
        pending: Dict[
            Tuple, Dict[CacheKey, List[Tuple[int, QuerySpec]]]
        ] = {}
        for plan_index, (_, plan) in enumerate(plans):
            hits = misses = 0
            for spec in plan.queries():
                found, witness = self.cache.lookup(spec.cache_key)
                if found:
                    hits += 1
                    outcomes[plan_index][spec.index] = witness
                else:
                    misses += 1
                    triple_key = spec.cache_key[:3] + (self.distinct_args,)
                    pending.setdefault(triple_key, {}).setdefault(
                        spec.cache_key, []
                    ).append((plan_index, spec))
            lookup_counts.append((hits, misses))

        sweep_name = "+".join(level.name for level in levels)
        emit(
            self.progress,
            "analyze.start",
            level=sweep_name,
            programs=len(programs),
            queries=sum(h + m for h, m in lookup_counts),
            cache_hits=sum(h for h, _ in lookup_counts),
            cache_misses=sum(m for _, m in lookup_counts),
        )
        sat_queries = [0] * len(plans)
        solver_stats: List[Dict[str, int]] = [{} for _ in plans]
        exhausted = False
        if pending:
            triples = list(pending.values())
            # With a budget (or an observer) the sweep is chunked so the
            # deadline is re-checked -- and a cancellation-minded
            # progress callback gets a chance to abort -- between
            # chunks, without ever emitting one event per SAT query
            # (ticks are throttled to one per 0.2s).  The strategy also
            # bounds each solve internally.
            budget = self.budget
            chunked = budget is not None or self.progress is not None
            step = 32 if chunked else max(len(triples), 1)
            results: List[List[QueryOutcome]] = []
            last_tick = start
            for lo in range(0, len(triples), step):
                now = time.perf_counter()
                if chunked and lo and now - last_tick >= 0.2:
                    last_tick = now
                    emit(
                        self.progress,
                        "analyze.tick",
                        completed=lo,
                        total=len(triples),
                    )
                if budget is not None and budget.expired():
                    exhausted = True
                    break
                chunk = triples[lo : lo + step]
                try:
                    results.extend(
                        self.strategy.run_levels(
                            [next(iter(groups.values()))[0][1] for groups in chunk],
                            [[by_name(key[3]) for key in groups] for groups in chunk],
                            self.distinct_args,
                            self.use_prefilter,
                            budget=budget,
                        )
                    )
                except BudgetExhaustedError:
                    exhausted = True
                    break
            # zip() stops at the shorter list, so an exhausted run still
            # attributes and caches every completed triple's outcomes --
            # the retry after a deadline warm-starts from them.
            for groups, outs in zip(triples, results):
                for (key, group), outcome in zip(groups.items(), outs):
                    owner = group[0][0]
                    if outcome.solved:
                        sat_queries[owner] += 1
                    for stat, value in outcome.stats.items():
                        solver_stats[owner][stat] = (
                            solver_stats[owner].get(stat, 0) + value
                        )
                    for twin_owner, twin in group:
                        outcomes[twin_owner][twin.index] = outcome.witness
                    self.cache.store(
                        key,
                        outcome.witness,
                        txns={s.a_name for _, s in group}
                        | {s.summary_b.name for _, s in group},
                        tables=frozenset().union(*(s.tables for _, s in group)),
                    )
            emit(
                self.progress,
                "analyze.solved",
                unique_queries=sum(len(outs) for outs in results),
                strategy=self.strategy.name,
            )
        if exhausted:
            pairs = []
            checked = 0
            for (_, plan), plan_outcomes in zip(plans, outcomes):
                plan_pairs, plan_checked = _access_pairs(plan, plan_outcomes)
                pairs += plan_pairs
                checked += plan_checked
            raise deadline_error(
                sweep_name, pairs, checked, sum(len(p.batches) for _, p in plans)
            )

        elapsed = time.perf_counter() - start
        reports = [
            AnalysisReport(
                level=level.name,
                pairs=_access_pairs(plan, plan_outcomes)[0],
                pairs_checked=len(plan.batches),
                sat_queries=sat,
                elapsed_seconds=elapsed,
                strategy=self.strategy.name,
                cache_hits=hits,
                cache_misses=misses,
                solver_stats=stats,
            )
            for (level, plan), plan_outcomes, (hits, misses), sat, stats in zip(
                plans, outcomes, lookup_counts, sat_queries, solver_stats
            )
        ]
        emit(
            self.progress,
            "analyze.done",
            level=sweep_name,
            pairs=sum(len(r.pairs) for r in reports),
            elapsed_seconds=elapsed,
        )
        return reports

    def close(self) -> None:
        self.strategy.close()


def _access_pairs(
    plan: QueryPlan, outcomes: Dict[int, Optional[WitnessData]]
) -> Tuple[List, int]:
    """The plan's anomalous access pairs, merged from its query outcomes,
    and how many pairs were checked.

    A batch (access pair) counts as checked only when *every* one of
    its queries has an outcome -- reporting a pair anomaly-free on a
    half-finished batch would be unsound -- so the same merge serves a
    finished report and a deadline's partial result.
    """
    from repro.analysis.oracle import _merge_witnesses

    pairs = []
    checked = 0
    for batch in plan.batches:
        if any(spec.index not in outcomes for spec in batch.queries):
            continue
        checked += 1
        witnesses = [
            PairWitness(
                interferer=spec.summary_b.name,
                pattern=witness.pattern,
                fields1=witness.fields1,
                fields2=witness.fields2,
            )
            for spec in batch.queries
            if (witness := outcomes[spec.index]) is not None
        ]
        if witnesses:
            pairs.append(
                _merge_witnesses(batch.summary_a, batch.c1, batch.c2, witnesses)
            )
    return pairs, checked
