"""Static serializability-anomaly detection (the paper's oracle ``O``).

The detector reduces "is this database access pair anomalous under
consistency level L?" to propositional satisfiability, mirroring the
paper's FOL-plus-Z3 reduction at the bound the paper's examples exercise:
two interfering transaction instances with loops unrolled once.

Pipeline:

1. :mod:`repro.analysis.accesses` summarises every database command
   (tables, read/written fields, primary-key expressions, dataflow);
2. :mod:`repro.analysis.aliasing` decides which command pairs may touch
   the same record (forced / impossible / solver-chosen);
3. :mod:`repro.analysis.encoding` builds, per candidate pair and
   interfering transaction, a SAT formula whose models are anomalous
   executions permitted by the consistency level;
4. :mod:`repro.analysis.oracle` runs the search and reports
   :class:`~repro.analysis.oracle.AccessPair` results (the chi tuples of
   Section 3.2).

Consistency levels: ``EC`` (record-level atomicity only), ``CC`` (causal:
session-prefix and monotone visibility), ``RR`` (repeatable read: frozen
per-transaction visibility), ``SC`` (serializable: totally ordered,
atomically visible transactions).
"""

from repro.analysis.consistency import ConsistencyLevel, EC, CC, RR, SC
from repro.analysis.accesses import CommandInfo, TransactionSummary, summarize_program
from repro.analysis.encoding import PairSession
from repro.analysis.oracle import (
    AccessPair,
    AnomalyOracle,
    OracleSession,
    detect_anomalies,
)
from repro.analysis.pipeline import (
    AnalysisPipeline,
    IncrementalStrategy,
    PersistentQueryCache,
    QueryCache,
    QueryPlanner,
)

__all__ = [
    "ConsistencyLevel",
    "EC",
    "CC",
    "RR",
    "SC",
    "CommandInfo",
    "TransactionSummary",
    "summarize_program",
    "AccessPair",
    "AnomalyOracle",
    "OracleSession",
    "PairSession",
    "detect_anomalies",
    "AnalysisPipeline",
    "IncrementalStrategy",
    "PersistentQueryCache",
    "QueryCache",
    "QueryPlanner",
]
