"""``import repro`` pulls in nothing outside the standard library.

The package declares no runtime dependencies (``pyproject.toml``), so a
third-party module loaded by the import would fail on a clean install
and cost every ``repro`` process its import time and memory."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.api, repro.cli
loaded = set(sys.modules) - before
print(json.dumps(sorted(
    name for name in loaded
    if name.partition(".")[0] not in sys.stdlib_module_names
    and name.partition(".")[0] != "repro"
)))
"""


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
)
def test_import_loads_only_stdlib_and_repro():
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == []
