"""Per-layer spans and counts, recorded from the benchmark's own files.

The program has no tracing of its own yet, so a traced run wraps each
layer's public functions *where their callers look them up*: a class
attribute for methods, and for module functions every ``repro`` module
global bound to the function (``from x import f`` copies the binding
into the importing module, so patching only the defining module would
miss those callers).  Each wrapped call records a span ``(name, start,
end, parent)``; spans stay in memory and are written out when the run
ends.  Untraced runs install nothing, so they measure the program as
users run it.

Work that a strategy ships to its shard processes is invisible here: it
shows only as the wall time of the ``analysis.strategy`` span waiting on
it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Solver counters summed from ``AnalysisReport.solver_stats``.
SOLVER_STATS = ("decisions", "props", "conflicts")


class Tracer:
    """An in-memory span recorder with named counters."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[["Tracer", object, bool], None]] = None,
    ) -> Callable:
        """``fn`` recording a span per call.  ``on_result(tracer, result,
        outermost)`` sees each return value; ``outermost`` is false when
        a span of the same name encloses this one."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            record = [name, time.perf_counter_ns(), 0, parent]
            tracer.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result, not tracer._inside(parent, name))
            return result

        return traced

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- patching ------------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_result))

    def patch_function(self, module, attr: str, name: str, wrapper=None) -> None:
        """Rebind ``module.attr`` and every ``repro`` module global that
        holds the same function object."""
        original = getattr(module, attr)
        replacement = wrapper or self.wrap(name, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def seconds(self, name: str) -> float:
        """Inclusive time in spans called ``name``, counting a recursive
        or re-entrant call only once (at its outermost span)."""
        total = 0
        for index, (span_name, start, end, parent) in enumerate(self.spans):
            if span_name == name and not self._inside(parent, name):
                total += end - start
        return total / 1e9

    def self_seconds(self, name: str) -> float:
        """Time in ``name`` spans not covered by their direct children."""
        child_time: Dict[int, int] = {}
        for span_name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0) + (end - start)
        total = 0
        for index, (span_name, start, end, parent) in enumerate(self.spans):
            if span_name == name and not self._inside(parent, name):
                total += (end - start) - child_time.get(index, 0)
        return total / 1e9

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent}
                ) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


# -- the layers ----------------------------------------------------------------


def _count_reports(tracer: Tracer, result, outermost: bool) -> None:
    """Sum an oracle call's report counters (outermost calls only: the
    serial path's ``analyze_levels`` calls ``analyze`` per level)."""
    if not outermost:
        return
    reports = result if isinstance(result, list) else [result]
    for report in reports:
        tracer.count("analysis.queries", report.cache_hits + report.cache_misses)
        tracer.count("analysis.cache_hits", report.cache_hits)
        tracer.count("analysis.cache_misses", report.cache_misses)
        tracer.count("analysis.sat_queries", report.sat_queries)
        for stat in SOLVER_STATS:
            tracer.count(f"smt.{stat}", report.solver_stats.get(stat, 0))


def _count_histories(tracer: Tracer, result, outermost: bool) -> None:
    tracer.count("semantics.histories")


def _counting_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.count(name)
            yield item

    return counted


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer's entry points; ``tracer.restore()``
    unwraps them."""
    import repro.analysis.accesses as accesses
    import repro.analysis.oracle as oracle
    import repro.analysis.pipeline as pipeline
    import repro.api.workspace as workspace
    import repro.lang.parser as parser
    import repro.live.compile as live_compile
    import repro.live.intercept as intercept
    import repro.live.validate  # noqa: F401 - binds the names patched below
    import repro.refactor.migrate as migrate
    import repro.semantics.history as history
    import repro.semantics.scheduler as scheduler
    import repro.store.profile as profile
    import repro.store.runner as runner
    from repro.repair import plan as plan_mod
    from repro.repair import search as search_mod

    tracer.patch_method(workspace.Workspace, "bench", "api.bench")
    for attr in ("analyze", "analyze_levels", "analyze_many"):
        tracer.patch_method(
            oracle.AnomalyOracle, attr, "analysis.oracle", _count_reports
        )
    tracer.patch_function(parser, "parse_program", "lang.parse")
    tracer.patch_function(accesses, "summarize_program", "analysis.summarize")
    tracer.patch_method(pipeline.QueryPlanner, "plan", "analysis.plan")
    for cls in vars(pipeline).values():
        if inspect.isclass(cls) and cls.__module__ == pipeline.__name__:
            for attr in ("run", "run_levels"):
                if attr in cls.__dict__ and cls.__name__.endswith("Strategy"):
                    tracer.patch_method(cls, attr, "analysis.strategy")
    tracer.patch_method(search_mod.GreedySearch, "search", "repair.search")
    tracer.patch_function(
        search_mod, "propose_candidates", "repair.candidates",
        wrapper=_counting_generator(
            tracer, "repair.candidates", search_mod.propose_candidates
        ),
    )
    for cls in vars(plan_mod).values():
        if (
            inspect.isclass(cls)
            and issubclass(cls, plan_mod.RewriteStep)
            and "apply" in cls.__dict__
            and cls is not plan_mod.RewriteStep
        ):
            tracer.patch_method(cls, "apply", "refactor.apply")

    tracer.patch_function(live_compile, "compile_plan", "live.compile")
    tracer.patch_function(migrate, "migrate_database", "refactor.migrate")
    tracer.patch_function(scheduler, "run_serial", "semantics.run_serial")
    tracer.patch_function(
        scheduler, "run_interleaved", "semantics.run_interleaved",
        wrapper=tracer.wrap(
            "semantics.run_interleaved", scheduler.run_interleaved,
            _count_histories,
        ),
    )
    tracer.patch_function(
        history, "is_serializable", "semantics.is_serializable"
    )
    tracer.patch_method(intercept.LiveInterceptor, "execute", "live.intercept")
    tracer.patch_function(profile, "profile_program", "store.profile")
    tracer.patch_function(runner, "simulate", "store.simulate")
    return tracer
