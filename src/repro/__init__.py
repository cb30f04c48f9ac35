"""repro: a reproduction of "Repairing Serializability Bugs in Distributed
Database Programs via Automated Schema Refactoring" (Atropos, PLDI 2021).

Public API tour::

    from repro import parse_program, detect_anomalies, repair

    program = parse_program(DSL_SOURCE)
    pairs = detect_anomalies(program)          # the oracle O(P)
    report = repair(program)                   # the full Atropos pipeline
    print(report.summary())
    fixed = report.repaired_program            # AT program
    strong = report.serializable_variant()     # AT-SC program

Both shortcuts are thin wrappers over :mod:`repro.api` -- the one
versioned front door.  Long-lived callers should hold a
:class:`repro.api.Workspace` directly (shared warm solver sessions,
persistent cache, progress callbacks), and network callers get the same
workspace over HTTP via :mod:`repro.service`::

    from repro.api import Workspace, RepairRequest

    with Workspace(strategy="auto", cache_dir=".cache") as ws:
        result = ws.repair(RepairRequest(benchmark="Courseware"))

Subsystems (see DESIGN.md for the full inventory):

- :mod:`repro.lang` -- the database-program DSL (Figure 5);
- :mod:`repro.semantics` -- weakly isolated operational semantics (Fig 6);
- :mod:`repro.smt` -- CDCL SAT solver + formula layer (the Z3 substitute);
- :mod:`repro.analysis` -- the static anomaly oracle;
- :mod:`repro.refactor` -- value correspondences, redirect/logger rules;
- :mod:`repro.repair` -- the repair algorithm (Figure 10);
- :mod:`repro.api` -- the typed, versioned façade (Workspace);
- :mod:`repro.service` -- the JSON-over-HTTP server on top of it;
- :mod:`repro.corpus` -- the nine Table-1 benchmarks;
- :mod:`repro.store` -- geo-replicated store simulator (Figures 12-15);
- :mod:`repro.exp` -- experiment drivers for every table and figure.
"""

from repro.analysis import AnomalyOracle, EC, CC, RR, SC
from repro.errors import ReproError
from repro.lang import parse_program, print_program

# Load the repair subpackage *before* the `repair` function below shadows
# it as a package attribute: a later `import repro.repair` is a
# sys.modules hit and leaves the function binding alone, whereas a lazy
# first load would clobber it with the module object.
import repro.repair as _repair_pkg  # noqa: E402,F401


def _detect_version() -> str:
    """Single-source the package version from ``pyproject.toml``.

    Running from a source tree (``PYTHONPATH=src``, or an editable
    install) the adjacent ``pyproject.toml`` is authoritative -- it wins
    over any distribution metadata, so a stale wheel elsewhere in the
    environment cannot misreport the checkout's version.  Installed
    without a source tree, the distribution metadata (written by the
    build backend from the same ``pyproject.toml``) is the value.
    Either way the number lives in exactly one place and ``/v1/health``
    reports it.
    """
    import os
    import re

    pyproject = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "pyproject.toml",
    )
    try:
        with open(pyproject, encoding="utf-8") as fh:
            text = fh.read()
        if re.search(r'^name\s*=\s*"repro"', text, re.M):
            match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)
            if match:
                return match.group(1)
    except OSError:
        pass
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:  # pragma: no cover - no metadata, no source tree
        return "0.0.0+unknown"


__version__ = _detect_version()


def detect_anomalies(program, level=EC, use_prefilter=True):
    """Convenience wrapper over :mod:`repro.api` returning just the
    anomalous pairs (the seed ``"serial"`` reference configuration)."""
    from repro.api import Workspace

    with Workspace(strategy="serial", use_prefilter=use_prefilter) as ws:
        return ws.analyze_program(program, level=level).pairs


def repair(
    program,
    level=EC,
    use_prefilter=True,
    strategy="serial",
    cache=None,
    search="greedy",
    progress=None,
    **search_options,
):
    """Run the full repair pipeline on ``program`` (a thin wrapper over
    :meth:`repro.api.Workspace.repair_program`).

    A strategy given by name is owned by this call and torn down (warm
    solver sessions included) before returning; a strategy *instance*
    belongs to the caller and is left running for reuse.  ``cache`` may
    be a :class:`~repro.analysis.pipeline.PersistentQueryCache` to
    warm-start the oracle from an earlier run's outcomes.
    """
    from repro.api import Workspace

    with Workspace(
        strategy=strategy,
        cache=cache,
        use_prefilter=use_prefilter,
    ) as ws:
        return ws.repair_program(
            program,
            level=level,
            search=search,
            on_progress=progress,
            **search_options,
        )


__all__ = [
    "AnomalyOracle",
    "detect_anomalies",
    "EC",
    "CC",
    "RR",
    "SC",
    "ReproError",
    "parse_program",
    "print_program",
    "repair",
    "__version__",
]
