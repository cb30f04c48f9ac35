"""The façade's wire types: frozen, versioned request/response objects.

Every public operation of :class:`~repro.api.workspace.Workspace` is a
pure function from a frozen request dataclass to a frozen result
dataclass.  The dataclass fields are the only description of each JSON
shape: one codec, shared by every wire class, reads a class's fields and
annotations once and derives from them the encoder (``to_json``), the
strict decoder (``from_json``) and the class's JSON Schema document
(``json_schema``).  Classes with a ``kind`` travel under an explicit
envelope -- ``{"version": 1, "kind": "analyze_request", ...}`` -- and
:mod:`repro.api.schema` dumps their schemas to the golden documents
under ``schemas/``, so changing a field without bumping
:data:`SCHEMA_VERSION` fails the drift gate in CI.

Decoding is strict: a missing required field, an unknown field, a value
of the wrong type, or a value outside its enum raises
:class:`~repro.api.errors.InvalidRequestError`; a different ``version``
raises :class:`~repro.api.errors.SchemaVersionError`.  Strictness is the
point -- the service must never half-understand a request.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from typing import Dict, Literal, Optional, Tuple, Type, Union, get_args, get_origin, get_type_hints

from repro.api.errors import InvalidRequestError, SchemaVersionError

#: The one protocol version this build speaks (the ``v1`` in ``/v1/...``).
SCHEMA_VERSION = 1

Level = Literal["EC", "CC", "RR", "SC"]
Search = Literal["greedy", "beam", "random"]
LEVELS: Tuple[str, ...] = get_args(Level)
SEARCHES: Tuple[str, ...] = get_args(Search)


# ---------------------------------------------------------------------------
# The codec: encoder, decoder and schema read off the dataclass fields
# ---------------------------------------------------------------------------

_JSON_TYPES = {
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    dict: "object",
}


def _unwrap(hint):
    """``Optional[X]`` -> ``X``; any other annotation unchanged."""
    if get_origin(hint) is Union:
        hint = next(a for a in get_args(hint) if a is not type(None))
    return hint


def _is_wire(hint) -> bool:
    return isinstance(hint, type) and issubclass(hint, _Wire)


def _schema(hint) -> dict:
    """The JSON Schema an annotation implies (a dict is a schema already)."""
    if isinstance(hint, dict):
        return hint
    hint = _unwrap(hint)
    if get_origin(hint) is Literal:
        return {"enum": list(get_args(hint))}
    if get_origin(hint) is tuple:
        return {"type": "array", "items": _schema(get_args(hint)[0])}
    if _is_wire(hint):
        return hint.json_schema()
    return {"type": _JSON_TYPES[hint]}


def _object(required: Tuple[str, ...], **properties) -> dict:
    """A closed JSON object schema; each property is an annotation or a
    schema."""
    doc = {
        "type": "object",
        "properties": {k: _schema(v) for k, v in properties.items()},
    }
    if required:
        doc["required"] = list(required)
    doc["additionalProperties"] = False
    return doc


def _typed(types: Tuple[type, ...], enum: Optional[Tuple[str, ...]] = None):
    """Decoder for a JSON value of one of ``types`` (and in ``enum``)."""
    names = "/".join(t.__name__ for t in types)

    def check(where: str, value):
        # JSON true/false must not satisfy integer/number fields (bool is an
        # int subclass in Python); the shipped validator agrees (_type_ok).
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise InvalidRequestError(
                f"{where} must be {names}, got {type(value).__name__}"
            )
        if enum is not None and value not in enum:
            raise InvalidRequestError(
                f"{where} must be one of {', '.join(enum)}; got {value!r}"
            )
        return value

    return check


def _strings(where: str, value) -> Tuple[str, ...]:
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise InvalidRequestError(f"{where} must be a list of strings")
    return tuple(value)


def _decoder(hint):
    """``(where, value) -> field value`` for one annotation; ``where``
    (``kind.field``) names the field in errors."""
    hint = _unwrap(hint)
    if get_origin(hint) is Literal:
        return _typed((str,), get_args(hint))
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        if item is str:
            return _strings
        as_list = _typed((list,))
        if item is dict:

            def objects(where: str, value) -> Tuple[dict, ...]:
                if any(not isinstance(v, dict) for v in as_list(where, value)):
                    raise InvalidRequestError(f"{where} must be a list of objects")
                return tuple(value)

            return objects
        return lambda where, value: tuple(
            item.from_json(v) for v in as_list(where, value)
        )
    if _is_wire(hint):
        as_dict = _typed((dict,))
        return lambda where, value: hint.from_json(as_dict(where, value))
    return _typed((int, float) if hint is float else (hint,))


def _to_json(value):
    """A field value as JSON: tuples as lists, wire objects encoded."""
    if isinstance(value, _Wire):
        return value.to_json()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


class _Codec:
    """One wire class's field table, read once from its dataclass fields."""

    def __init__(self, cls: type):
        hints = get_type_hints(cls)
        self.cls = cls
        self.kind = cls.kind
        self.label = cls.kind or cls._label
        self.required = cls._required
        self.envelope = (
            {"version": SCHEMA_VERSION, "kind": cls.kind} if cls.kind else {}
        )
        self.names = {f.name for f in fields(cls)} | set(self.envelope)
        self.schemas = {}
        self.decoders = []
        for f in fields(cls):
            hint = hints[f.name]
            fragment = f.metadata.get("schema")
            self.schemas[f.name] = hint if fragment is None else fragment
            types = (fragment or {}).get("type")
            nullable = isinstance(types, list) and "null" in types
            has_default = f.default is not MISSING or f.default_factory is not MISSING
            # An absent optional field without a dataclass default decodes
            # as its type's zero value: str() == "", tuple() == (), ...
            zero = None if has_default else get_origin(hint) or hint
            self.decoders.append((
                f.name, f"{self.label}.{f.name}", _decoder(hint),
                f.name in self.required, nullable, zero,
            ))

    def encode(self, obj) -> dict:
        out = dict(self.envelope)
        for name in self.schemas:
            value = getattr(obj, name)
            if value is not None:
                out[name] = _to_json(value)
        return out

    def decode(self, data: object):
        if not isinstance(data, dict):
            if self.kind:
                raise InvalidRequestError(
                    f"expected a JSON object for {self.kind}, "
                    f"got {type(data).__name__}"
                )
            raise InvalidRequestError(f"{self.label} must be a JSON object")
        if self.kind:
            version = data.get("version")
            if version != SCHEMA_VERSION:
                raise SchemaVersionError(
                    f"unsupported schema version {version!r} "
                    f"(this server speaks version {SCHEMA_VERSION})"
                )
            if data.get("kind") != self.kind:
                raise InvalidRequestError(
                    f"expected kind {self.kind!r}, got {data.get('kind')!r}"
                )
        extras = sorted(set(data) - self.names)
        if extras:
            raise InvalidRequestError(
                f"unknown field(s) for {self.label}: {', '.join(extras)}"
            )
        values = {}
        for name, where, check, required, nullable, zero in self.decoders:
            # A null where the schema allows one means "absent".
            if name in data and not (nullable and data[name] is None):
                values[name] = check(where, data[name])
            elif required:
                raise InvalidRequestError(
                    f"{self.label} is missing required field {name!r}"
                )
            elif zero is not None:
                values[name] = zero()
        return self.cls(**values)

    def schema(self) -> dict:
        if not self.kind:
            return _object(self.required, **self.schemas)
        return _object(
            ("version", "kind") + self.required,
            version={"enum": [SCHEMA_VERSION]},
            kind={"enum": [self.kind]},
            **self.schemas,
        )


@lru_cache(maxsize=None)  # one entry per wire class
def _codec(cls: type) -> _Codec:
    return _Codec(cls)


class _Wire:
    """Base of the wire dataclasses: one ``to_json``/``from_json`` for all.

    A subclass declares, next to its fields, only what their annotations
    cannot say: ``kind`` (the envelope of a top-level document),
    ``_label`` (the name errors give a nested object), ``_required``
    (the fields the v1 schema requires, in schema order), and a
    :func:`_fragment` on a field whose JSON Schema is richer than its
    annotation.
    """

    kind: Optional[str] = None
    _label = ""
    _required: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        """The JSON document: ``None`` fields left out, tuples as lists,
        nested wire objects encoded, the envelope when ``kind`` is set."""
        return _codec(type(self)).encode(self)

    @classmethod
    def from_json(cls, data: object):
        """Strictly decode a JSON document (see the module docstring)."""
        return _codec(cls).decode(data)

    @classmethod
    def json_schema(cls) -> dict:
        """The JSON Schema document of this class's wire shape."""
        return _codec(cls).schema()


def _fragment(schema: dict, **kwargs):
    """A dataclass field whose JSON Schema is ``schema`` instead of the one
    its annotation implies."""
    return field(metadata={"schema": schema}, **kwargs)


# ---------------------------------------------------------------------------
# Schema fragments for fields annotated only as ``dict`` or ``str``
# ---------------------------------------------------------------------------

#: ``source``/``benchmark`` of analyze and repair requests: the v1 schema
#: accepts ``null``, which decodes as absent.
_NULLABLE_STR = {"type": ["string", "null"]}

#: Plan documents have their own internal version (RewritePlan JSON);
#: the API schema treats them as opaque objects with a version+steps.
_PLAN = _object(("version", "steps"), version=int, steps=Tuple[dict, ...])

#: Budget documents accepted by analyze/repair requests; today the only
#: knob is a solver conflict cap (wall-clock lives in ``deadline_ms``).
_BUDGET = _object((), max_conflicts=int)

#: One seeded weak-exploration count in a live-protect result.
_EXPLORATION = _object(
    ("anomalies", "errors", "samples"), anomalies=int, errors=int, samples=int
)

_SIDES = ("original", "static", "target", "live")
_ANOMALIES = _object(_SIDES, **dict.fromkeys(_SIDES, _EXPLORATION))

#: One compiled mutation rule's wire row (match + serving + counters).
_RULE_ROW = _object(
    ("txn", "label", "op", "table", "serving", "identity"),
    txn=str,
    label=str,
    op=Literal["select", "update", "insert"],
    table=str,
    fields=Tuple[str, ...],
    serving=Tuple[str, ...],
    identity=bool,
    hits=int,
    rewrites=int,
    skips=int,
)

#: A plan step the live compiler could not lower, with its reason.
_UNSUPPORTED_STEP = _object(("step", "reason"), step=dict, reason=str)

#: The simulated overhead measurement document (see
#: :mod:`repro.live.overhead`).
_OVERHEAD = _object(
    ("benchmark", "predicted_throughput", "live_throughput", "overhead_ratio"),
    benchmark=str,
    clients=int,
    scale=int,
    seed=int,
    predicted_throughput=float,
    live_throughput=float,
    overhead_ratio=float,
    live_avg_latency_ms=float,
    live_p95_latency_ms=float,
    rules=int,
    rewritten_rules=int,
    unsupported=int,
)


# ---------------------------------------------------------------------------
# Shared payload fragments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairData(_Wire):
    """One anomalous access pair (the paper's chi tuple), wire form.

    Field sets are sorted tuples so the JSON is canonical -- two runs
    that find the same anomalies serialize byte-identically.
    """

    txn: str
    c1: str
    fields1: Tuple[str, ...]
    c2: str
    fields2: Tuple[str, ...]
    interferers: Tuple[str, ...]
    patterns: Tuple[str, ...]

    _label = "pair"
    _required = ("txn", "c1", "fields1", "c2", "fields2")

    @classmethod
    def from_pair(cls, pair) -> "PairData":
        """From an :class:`~repro.analysis.oracle.AccessPair`."""
        return cls(
            txn=pair.txn,
            c1=pair.c1,
            fields1=tuple(sorted(pair.fields1)),
            c2=pair.c2,
            fields2=tuple(sorted(pair.fields2)),
            interferers=tuple(pair.interferers),
            patterns=tuple(pair.patterns),
        )

    def describe(self) -> str:
        f1 = "{" + ", ".join(self.fields1) + "}"
        f2 = "{" + ", ".join(self.fields2) + "}"
        return f"{self.txn}: ({self.c1}, {f1}, {self.c2}, {f2})"


@dataclass(frozen=True)
class OutcomeData(_Wire):
    """What the search did to one anomalous pair."""

    action: str
    pair: PairData

    _label = "outcome"
    _required = ("action", "pair")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeRequest(_Wire):
    """Run the anomaly oracle on a program.

    Exactly one of ``source`` (DSL text) or ``benchmark`` (a corpus name
    such as ``"Courseware"``) selects the program.
    """

    source: Optional[str] = _fragment(_NULLABLE_STR, default=None)
    benchmark: Optional[str] = _fragment(_NULLABLE_STR, default=None)
    level: Level = "EC"
    use_prefilter: bool = True
    distinct_args: bool = True
    deadline_ms: Optional[int] = None
    budget: Optional[dict] = _fragment(_BUDGET, default=None)
    tenant: Optional[str] = None

    kind = "analyze_request"


@dataclass(frozen=True)
class AnalyzeResult(_Wire):
    """The oracle's verdict plus execution bookkeeping."""

    level: Level
    pairs: Tuple[PairData, ...]
    pairs_checked: int
    sat_queries: int
    cache_hits: int
    cache_misses: int
    strategy: str
    elapsed_seconds: float

    kind = "analyze_result"
    _required = ("level", "pairs")

    @classmethod
    def from_report(cls, report) -> "AnalyzeResult":
        """From an :class:`~repro.analysis.oracle.AnalysisReport`."""
        return cls(
            level=report.level,
            pairs=tuple(PairData.from_pair(p) for p in report.pairs),
            pairs_checked=report.pairs_checked,
            sat_queries=report.sat_queries,
            cache_hits=report.cache_hits,
            cache_misses=report.cache_misses,
            strategy=report.strategy,
            elapsed_seconds=report.elapsed_seconds,
        )


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepairRequest(_Wire):
    """Repair a program (or replay a saved plan on it).

    ``plan`` -- a serialized :class:`~repro.repair.plan.RewritePlan`
    document -- switches the call to replay mode: the plan is applied
    verbatim and no oracle work runs.
    """

    source: Optional[str] = _fragment(_NULLABLE_STR, default=None)
    benchmark: Optional[str] = _fragment(_NULLABLE_STR, default=None)
    level: Level = "EC"
    search: Search = "greedy"
    use_prefilter: bool = True
    plan: Optional[dict] = _fragment(_PLAN, default=None)
    deadline_ms: Optional[int] = None
    budget: Optional[dict] = _fragment(_BUDGET, default=None)
    tenant: Optional[str] = None

    kind = "repair_request"


@dataclass(frozen=True)
class RepairResult(_Wire):
    """A repair's full verdict.

    ``repaired_program`` and ``serializable_variant`` are printed DSL
    text (the printer is deterministic, so equality is byte equality);
    ``plan`` is the versioned plan document replayable via
    :class:`~repro.repair.plan.RewritePlan` or a ``RepairRequest`` with
    ``plan`` set.
    """

    initial_pairs: Tuple[PairData, ...]
    residual_pairs: Tuple[PairData, ...]
    outcomes: Tuple[OutcomeData, ...]
    plan: dict = _fragment(_PLAN)
    repaired_program: str
    serializable_variant: str
    tables_before: int
    tables_after: int
    search: str
    strategy: str
    elapsed_seconds: float

    kind = "repair_result"
    _required = ("initial_pairs", "residual_pairs", "plan", "repaired_program")

    @classmethod
    def from_report(cls, report, strategy: str = "serial") -> "RepairResult":
        """From a :class:`~repro.repair.engine.RepairReport`;
        ``strategy`` names the oracle execution strategy used."""
        from repro.lang import print_program

        return cls(
            initial_pairs=tuple(
                PairData.from_pair(p) for p in report.initial_pairs
            ),
            residual_pairs=tuple(
                PairData.from_pair(p) for p in report.residual_pairs
            ),
            outcomes=tuple(
                OutcomeData(action=o.action, pair=PairData.from_pair(o.pair))
                for o in report.outcomes
            ),
            plan=report.plan.to_json(),
            repaired_program=print_program(report.repaired_program),
            serializable_variant=print_program(report.serializable_variant()),
            tables_before=len(report.original_program.schemas),
            tables_after=len(report.repaired_program.schemas),
            search=report.strategy,
            strategy=strategy,
            elapsed_seconds=report.elapsed_seconds,
        )

    @property
    def repaired_count(self) -> int:
        return len(self.initial_pairs) - len(self.residual_pairs)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRequest(_Wire):
    """Measure the Table-1 workload (repair + CC/RR sweeps) per benchmark.

    ``benchmarks`` is a list of corpus names; empty means the full corpus.
    """

    benchmarks: Tuple[str, ...] = ()
    search: Search = "greedy"
    tenant: Optional[str] = None

    kind = "bench_request"


@dataclass(frozen=True)
class BenchRow(_Wire):
    """One benchmark's Table-1 measurements."""

    name: str
    txns: int
    tables_before: int
    tables_after: int
    ec: int
    at: int
    cc: int
    rr: int
    time_s: float
    repair_seconds: float
    plan_steps: int
    plan: dict = _fragment(_PLAN, default_factory=dict)

    _label = "bench_row"
    _required = ("name", "ec", "at", "cc", "rr", "plan_steps")


@dataclass(frozen=True)
class BenchResult(_Wire):
    """A bench sweep's rows plus the execution configuration used."""

    rows: Tuple[BenchRow, ...]
    search: str
    strategy: str
    elapsed_seconds: float

    kind = "bench_result"
    _required = ("rows",)


# ---------------------------------------------------------------------------
# protect (live repair)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiveProtectRequest(_Wire):
    """Compile a rewrite plan into live mutation rules and validate them.

    Live protection replays a corpus benchmark's transaction mix, so
    ``benchmark`` is required (a free-form ``source`` program has no
    workload to validate against).  ``plan`` -- a serialized
    :class:`~repro.repair.plan.RewritePlan` document -- protects with an
    externally produced plan; by default the benchmark's own greedy
    repair supplies it.  ``measure`` additionally runs the simulated
    overhead point (heavier; compare against ``BENCH_live.json``).
    """

    benchmark: str
    plan: Optional[dict] = _fragment(_PLAN, default=None)
    samples: int = 120
    seed: int = 11
    scale: int = 2
    measure: bool = False
    clients: int = 16
    tenant: Optional[str] = None

    kind = "live_protect_request"
    _required = ("benchmark",)

    @classmethod
    def from_json(cls, data: object) -> "LiveProtectRequest":
        """As for every wire type, plus the positivity the v1 schema
        cannot express."""
        request = super().from_json(data)
        for name in ("samples", "scale", "clients"):
            if getattr(request, name) <= 0:
                raise InvalidRequestError(f"{cls.kind}.{name} must be positive")
        return request


@dataclass(frozen=True)
class LiveProtectResult(_Wire):
    """A live-protection rollout report: rules, differential, overhead.

    ``anomalies`` holds the four seeded weak-exploration counts
    (``original``/``static``/``target``/``live``; see
    :mod:`repro.live.validate` for why the enforcement *target* -- the
    pre-postprocess repaired program -- is the gated comparison).
    ``overhead`` is the simulated measurement document when the request
    asked for one, else absent.
    """

    benchmark: str
    rules: int
    identity_rules: int
    unsupported: int
    unsupported_steps: Tuple[dict, ...] = _fragment(
        {"type": "array", "items": _UNSUPPORTED_STEP}
    )
    serial_match: bool
    verdict_match: bool
    passed: bool
    samples: int
    seed: int
    scale: int
    anomalies: dict = _fragment(_ANOMALIES)
    rule_summary: Tuple[dict, ...] = _fragment(
        {"type": "array", "items": _RULE_ROW}
    )
    overhead: Optional[dict] = _fragment(_OVERHEAD, default=None)
    elapsed_seconds: float = 0.0

    kind = "live_protect_result"
    _required = (
        "benchmark", "rules", "serial_match", "verdict_match", "passed",
        "anomalies",
    )


#: kind -> class of every enveloped document (the schema goldens).
WIRE_KINDS: Dict[str, Type[_Wire]] = {
    cls.kind: cls
    for cls in (AnalyzeRequest, AnalyzeResult, RepairRequest, RepairResult, BenchRequest,
                BenchResult, LiveProtectRequest, LiveProtectResult)
}

#: kind -> request class, for envelope-dispatched decoders (the service's
#: job endpoint accepts any request kind).
REQUEST_KINDS = {k: cls for k, cls in WIRE_KINDS.items() if k.endswith("_request")}


def decode_request(data: object):
    """Decode any request envelope by its ``kind``."""
    if not isinstance(data, dict):
        raise InvalidRequestError("request body must be a JSON object")
    kind = data.get("kind")
    cls = REQUEST_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(REQUEST_KINDS))
        raise InvalidRequestError(f"unknown request kind {kind!r} (known: {known})")
    return cls.from_json(data)
