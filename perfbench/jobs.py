"""Seeded job inputs for the ``service`` workload.

Each distinct program is the repo's own service-load program,
``benchmarks/service_load.job_request``: one table read and written back
by every transaction (two selects, two read-modify-write updates), with
every identifier numbered by the program's index so no two distinct
programs share a name.  The seed draws each program's size (2-6
transactions) and kind (half analyze, half repair), and which jobs
resubmit an earlier request document unchanged, as CI re-runs do: about
a third.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Tuple

from benchmarks.service_load import job_request

REPEAT_SHARE = 1 / 3
KINDS = ("analyze_request", "repair_request")
TXNS = (2, 6)
#: Timed programs are numbered from here: six-digit indexes, so an index
#: never reads as part of another number in a result.
FIRST_INDEX = 100_000


class JobPlan:
    """The run's job sequence: job ``i`` is the same for a given seed
    whichever client thread takes it.  Distinct programs are numbered
    from ``first_index``, so two plans with far-apart first indexes never
    share a program."""

    def __init__(self, seed: int, first_index: int = FIRST_INDEX):
        self._rng = random.Random(seed)
        self._first_index = first_index
        self._lock = threading.Lock()
        #: distinct request documents by key (the program's index)
        self.distinct: Dict[str, dict] = {}
        #: (kind, transactions) of each distinct program by key
        self.shapes: Dict[str, Tuple[str, int]] = {}

    def next(self) -> Tuple[str, dict, bool]:
        """(request key, request document, is a resubmission)."""
        with self._lock:
            rng = self._rng
            if self.distinct and rng.random() < REPEAT_SHARE:
                key = rng.choice(list(self.distinct))
                return key, self.distinct[key], True
            index = self._first_index + len(self.distinct)
            kind = rng.choice(KINDS)
            txns = rng.randint(*TXNS)
            key = str(index)
            self.distinct[key] = job_request(index, kind=kind, txns=txns)
            self.shapes[key] = (kind, txns)
            return key, self.distinct[key], False
