"""Shared configuration for the benchmark harness.

Every file in this directory regenerates one of the paper's tables or
figures (see DESIGN.md's per-experiment index).  Benchmarks print the
regenerated rows/series so `pytest benchmarks/ --benchmark-only -s`
doubles as the reproduction report; EXPERIMENTS.md records a captured
run against the paper's numbers.
"""

import os
from pathlib import Path

import pytest

from repro.store import PerfConfig

#: Where the scaling benches write their JSON unless an environment
#: variable names a path: git-ignored, so a test run never rewrites the
#: committed ``BENCH_*.json`` baselines (CI passes explicit paths).
OUT_DIR = Path(__file__).parent / "out"

# Scaled-down but shape-preserving simulation parameters: the paper runs
# 90 s per point on AWS; we run 4 simulated seconds per point.
BENCH_PERF_CONFIG = PerfConfig(duration_ms=4_000.0, warmup_ms=500.0)
CLIENT_COUNTS = (1, 8, 32, 96, 192)


@pytest.fixture(scope="session")
def perf_config():
    return BENCH_PERF_CONFIG


@pytest.fixture
def bench_out():
    """``bench_out(env_var, filename)``: the path a bench writes its JSON
    to -- ``$env_var`` when set, else ``filename`` under :data:`OUT_DIR`."""

    def path(env_var: str, filename: str) -> str:
        chosen = os.environ.get(env_var)
        if chosen:
            return chosen
        OUT_DIR.mkdir(exist_ok=True)
        return str(OUT_DIR / filename)

    return path
