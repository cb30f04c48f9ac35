"""Paths, statistics and child-process handling shared by the workloads.

Every process that runs program code is a child of the benchmark
(``python3 perfbench/run.py``): a ``table1`` or ``protect`` pass, the
``repro serve`` server.  Each child starts in a session of its own, so
the processes it spawns in turn (service workers, analysis shard
processes) can be found again in ``/proc`` and proven gone after
teardown.  Peak memory comes from the kernel's accounting of exited
children (``os.wait4``): a child's figure covers itself and every
descendant it reaped.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (job database, traces, temp files); ignored by git.
OUT = ROOT / "perfbench" / "out"


class ProgramMissing(RuntimeError):
    """The checkout has no program to benchmark."""


def require_program() -> None:
    """Fail fast when the checkout holds the benchmark but not the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def out_dir(*parts: str) -> Path:
    path = OUT.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env() -> Dict[str, str]:
    """Environment for program processes: the source tree on the path and
    temp files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(out_dir("tmp"))
    return env


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """True nearest-rank percentile: the ceil(q*n)-th smallest value.

    ``q`` is a fraction in (0, 1]; ``q*n`` is rounded to 12 places
    first so float error (0.95*20 = 19.000000000000004) cannot push the
    rank up by one.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 12))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- child processes -----------------------------------------------------------


def spawn(argv: Sequence[str], **kwargs) -> Tuple[subprocess.Popen, float]:
    """Start a program process in its own session; returns it with the
    monotonic time taken just before the start (the set-up clock's zero:
    CLOCK_MONOTONIC is shared by every process on the host)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        list(argv),
        cwd=str(ROOT),
        env=child_env(),
        start_new_session=True,
        **kwargs,
    )
    return proc, started


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc`` and return its peak resident set in MB (itself
    and every descendant it reaped).  Kills it after ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            kill_session(proc.pid)
            deadline = time.monotonic() + 10.0
        time.sleep(0.005)


def _session_of(pid: int) -> Optional[Tuple[str, int]]:
    """(state, session id) of ``pid`` from ``/proc``; None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    return fields[0], int(fields[3])


def session_members(sid: int) -> List[int]:
    """Running processes of session ``sid``.  A zombie has ended and only
    waits for its (possibly adoptive) parent to collect it."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            info = _session_of(int(entry))
            if info is not None and info[1] == sid and info[0] not in "ZX":
                members.append(int(entry))
    return members


def kill_session(sid: int) -> None:
    for pid in session_members(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def await_session_gone(sid: int, timeout: float = 15.0) -> List[int]:
    """Wait until no process of session ``sid`` is left; returns the
    stragglers (then killed) if any outlived ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        left = session_members(sid)
        if not left:
            return []
        if time.monotonic() > deadline:
            kill_session(sid)
            return left
        time.sleep(0.02)


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in child output")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- pass processes ------------------------------------------------------------


def run_passes(
    module: str, args_of: Callable[[int], List[str]], seconds: float, trace: bool
):
    """Start one fresh process per pass (``python3 -m <module>
    <args_of(pass number)>``) until ``seconds`` have elapsed.

    A pass process prints one JSON line with ``ready`` (monotonic time
    its set-up finished), ``pass_s``, ``untimed_s`` (time it spent on
    outputs for the checks) and ``layers`` (traced runs).  Returns
    ``(passes, attempted, errors, peak_mb)``; each pass gains
    ``setup_s`` and ``lifetime_s`` (spawn to exit, less ``untimed_s``).
    """
    name = module.rsplit(".", 1)[-1]
    logs = out_dir("logs")
    passes: List[dict] = []
    errors: List[str] = []
    peak_mb = 0.0
    start = time.monotonic()
    index = 0
    while time.monotonic() - start < seconds:
        index += 1
        argv = [sys.executable, "-m", module, *args_of(index)]
        if trace:
            argv += ["--trace-file", str(out_dir("traces") / f"{name}-{index}.jsonl")]
        out_path = logs / f"{name}-{index}.out"
        with open(out_path, "w") as out, open(logs / f"{name}-{index}.err", "w") as err:
            proc, spawned = spawn(argv, stdout=out, stderr=err)
            peak_mb = max(peak_mb, reap(proc, timeout=150))
        ended = time.monotonic()
        left = await_session_gone(proc.pid)
        if left:
            errors.append(f"pass {index} left processes running: {left}")
        try:
            doc = last_json_line(out_path.read_text())
        except ValueError:
            doc = None
        if proc.returncode != 0 or doc is None:
            errors.append(f"pass {index} exited {proc.returncode}")
            continue
        doc["setup_s"] = doc["ready"] - spawned
        doc["lifetime_s"] = ended - spawned - doc["untimed_s"]
        passes.append(doc)
    return passes, index, errors, peak_mb


def pass_metrics(passes: Sequence[dict], peak_mb: float, trace: bool) -> dict:
    """The run's metrics from its pass processes."""
    from perfbench import layers

    op_s = median([p["pass_s"] for p in passes])
    if trace:
        values = {
            name: median([p["layers"][name] for p in passes])
            for name in passes[0]["layers"]
        }
        values["op_traced_s"] = op_s
        return layers.complete(values)
    return {
        "setup_s": metric(median([p["setup_s"] for p in passes]), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "op_p50_s": metric(op_s, "s"),
        "ops_per_s": metric(len(passes) / sum(p["lifetime_s"] for p in passes), "1/s"),
    }
