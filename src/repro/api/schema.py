"""Versioned JSON schemas for every wire type, plus a tiny validator.

The documents returned by :func:`all_schemas` are the contract of the
``/v1`` HTTP surface.  The eight request/result documents come from the
wire dataclasses themselves: each class's ``json_schema()`` reads the
same field table as its ``to_json``/``from_json`` (see
:mod:`repro.api.types`).  Only the service's own documents (``error``,
``health``, ``stats``, ``job``, ``job_event``) are written here by
hand.  All of them are dumped to the committed ``schemas/`` directory
(``repro schemas --out schemas``) and CI regenerates and diffs them
(``repro schemas --check``): any change to a wire shape either bumps
:data:`~repro.api.types.SCHEMA_VERSION` (producing new ``*.v2.json``
files next to the frozen v1 ones) or is a build failure.  That is the
whole drift gate -- no schema review by eyeball.

The validator implements the subset of JSON Schema the documents use
(``type``, ``properties``, ``required``, ``additionalProperties``,
``items``, ``enum``, nullable via type lists) so the test suite can
validate live service responses without a third-party dependency.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api.types import SCHEMA_VERSION, WIRE_KINDS, PairData

# ---------------------------------------------------------------------------
# Schema documents
# ---------------------------------------------------------------------------

_STR = {"type": "string"}
_OPT_STR = {"type": ["string", "null"]}
_INT = {"type": "integer"}
_NUM = {"type": "number"}
_BOOL = {"type": "boolean"}

_COUNTERS = {"type": "object", "additionalProperties": _INT}

#: One tenant's entry in ``stats.service.tenants``: job totals from the
#: store plus the admission-side shed/breaker counters.
_TENANT_STATS = {
    "type": "object",
    "properties": {
        "queued": _INT,
        "running": _INT,
        "done": _INT,
        "failed": _INT,
        "cancelled": _INT,
        "shed": _INT,
        "breaker_trips": _INT,
        "suspended": _BOOL,
    },
    "additionalProperties": False,
}

_EVENT = {
    "type": "object",
    "properties": {"stage": _STR, "detail": {"type": "object"}},
    "required": ["stage", "detail"],
    "additionalProperties": False,
}


def all_schemas() -> Dict[str, dict]:
    """``name -> schema document`` for the current protocol version.
    Names map to files ``schemas/<name>.v<version>.json``.  The eight
    request/result documents come from the wire dataclasses; only the
    service's own documents are written here."""
    docs = {kind: cls.json_schema() for kind, cls in WIRE_KINDS.items()}
    # Partial results attached to a ``deadline-exceeded`` error payload:
    # every pair confirmed anomalous before the deadline, plus how far the
    # sweep got (``pairs_checked`` of ``pairs_total`` candidate pairs).
    partial = {
        "type": "object",
        "properties": {
            "level": _STR,
            "pairs": {"type": "array", "items": PairData.json_schema()},
            "pairs_checked": _INT,
            "pairs_total": _INT,
        },
        "required": ["pairs", "pairs_checked", "pairs_total"],
        "additionalProperties": False,
    }
    error = {
        "type": "object",
        "properties": {
            "error": {
                "type": "object",
                "properties": {
                    "code": _STR,
                    "message": _STR,
                    "partial": partial,
                },
                "required": ["code", "message"],
                "additionalProperties": False,
            }
        },
        "required": ["error"],
        "additionalProperties": False,
    }
    health = {
        "type": "object",
        "properties": {
            "status": {"enum": ["ok", "draining"]},
            "version": _STR,
            "protocol": {"enum": [SCHEMA_VERSION]},
            "strategy": _STR,
        },
        "required": ["status", "version", "protocol"],
        "additionalProperties": False,
    }
    stats = {
        "type": "object",
        "properties": {
            "version": _STR,
            "strategy": _STR,
            "uptime_seconds": _NUM,
            "requests": _COUNTERS,
            "cache": {
                "type": ["object", "null"],
                "properties": {
                    "hits": _INT,
                    "misses": _INT,
                    "hit_rate": _NUM,
                    "persistent_hits": _INT,
                    "entries": _INT,
                },
                "required": ["hits", "misses", "hit_rate"],
                "additionalProperties": False,
            },
            "sessions": _COUNTERS,
            "jobs": _COUNTERS,
            "service": {
                "type": "object",
                "properties": {
                    "workers": _INT,
                    "workers_alive": _INT,
                    "worker_restarts": _INT,
                    "queue_depth": _INT,
                    "max_queue_depth": _INT,
                    "draining": _BOOL,
                    "recovered_jobs": _INT,
                    "breaker_trips": _INT,
                    "admission": _COUNTERS,
                    "tenants": {
                        "type": "object",
                        "additionalProperties": _TENANT_STATS,
                    },
                },
                "required": [
                    "workers", "queue_depth", "draining", "admission",
                ],
                "additionalProperties": False,
            },
        },
        "required": ["version", "strategy", "requests"],
        "additionalProperties": False,
    }
    job = {
        "type": "object",
        "properties": {
            "id": _STR,
            "kind": {"enum": ["analyze", "repair", "bench", "protect"]},
            "status": {
                "enum": ["queued", "running", "done", "failed", "cancelled"]
            },
            "tenant": _STR,
            "created_at": _NUM,
            "started_at": {"type": ["number", "null"]},
            "finished_at": {"type": ["number", "null"]},
            "attempts": _INT,
            "worker": _OPT_STR,
            "events": {"type": "array", "items": _EVENT},
            "result": {"type": ["object", "null"]},
            "error": {"type": ["object", "null"]},
        },
        "required": ["id", "kind", "status", "events"],
        "additionalProperties": False,
    }
    # One NDJSON line on a ``GET /v1/jobs/<id>/events?stream=1`` body:
    # either a progress event (``stage`` + ``detail``) or, when the
    # stream has been idle for the heartbeat interval, a keep-alive
    # ``{"kind": "heartbeat"}`` that clients must ignore.
    job_event = {
        "type": "object",
        "properties": {
            "stage": _STR,
            "detail": {"type": "object"},
            "kind": {"enum": ["heartbeat"]},
        },
        "additionalProperties": False,
    }
    docs.update(
        error=error, health=health, stats=stats, job=job, job_event=job_event
    )
    return docs


def schema_filename(name: str, version: int = SCHEMA_VERSION) -> str:
    return f"{name}.v{version}.json"


def dump_schemas(out_dir: str) -> List[str]:
    """Write every schema document under ``out_dir``; returns the file
    names written.  Documents are serialized with sorted keys so the
    golden diff is stable."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, doc in sorted(all_schemas().items()):
        filename = schema_filename(name)
        with open(os.path.join(out_dir, filename), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(filename)
    return written


def check_schemas(out_dir: str) -> List[str]:
    """Compare the committed golden files against the live documents;
    returns a list of human-readable drift descriptions (empty = clean)."""
    import os

    problems = []
    for name, doc in sorted(all_schemas().items()):
        path = os.path.join(out_dir, schema_filename(name))
        if not os.path.exists(path):
            problems.append(f"{schema_filename(name)}: missing (run `repro schemas --out {out_dir}`)")
            continue
        with open(path) as fh:
            try:
                committed = json.load(fh)
            except json.JSONDecodeError as exc:
                problems.append(f"{schema_filename(name)}: unreadable ({exc})")
                continue
        if committed != doc:
            problems.append(
                f"{schema_filename(name)}: drift -- the live schema differs from "
                "the committed golden; bump SCHEMA_VERSION or fix the change"
            )
    return problems


# ---------------------------------------------------------------------------
# Mini validator
# ---------------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: object, name: str) -> bool:
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, expected)


def iter_violations(value: object, schema: dict, path: str = "$") -> Iterator[str]:
    """Yield every violation of ``schema`` by ``value`` (subset validator
    -- see the module docstring for the supported keywords)."""
    if "enum" in schema:
        if value not in schema["enum"]:
            yield f"{path}: {value!r} not in enum {schema['enum']}"
        return
    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(value, n) for n in names):
            yield (
                f"{path}: expected {'/'.join(names)}, "
                f"got {type(value).__name__}"
            )
            return
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for req in schema.get("required", []):
            if req not in value:
                yield f"{path}: missing required property {req!r}"
        additional = schema.get("additionalProperties", True)
        for key, sub in value.items():
            if key in props:
                yield from iter_violations(sub, props[key], f"{path}.{key}")
            elif additional is False:
                yield f"{path}: unexpected property {key!r}"
            elif isinstance(additional, dict):
                yield from iter_violations(sub, additional, f"{path}.{key}")
    elif isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for i, sub in enumerate(value):
                yield from iter_violations(sub, items, f"{path}[{i}]")


def validate(value: object, schema: dict) -> Tuple[bool, Optional[str]]:
    """(ok, first violation) -- convenience over :func:`iter_violations`."""
    for violation in iter_violations(value, schema):
        return False, violation
    return True, None
