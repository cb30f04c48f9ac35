"""Known answers for the service load driver's nearest-rank percentile
(:mod:`benchmarks.service_load`)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from service_load import percentile  # noqa: E402


def test_nearest_rank_known_answers():
    assert percentile(list(range(1, 11)), 90) == 9
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([], 50) == 0.0
    # The rank is clamped to [1, n].
    assert percentile([5, 7], 0) == 5
    assert percentile([5, 7], 100) == 7
