"""References the fast paths are held to, shared by the equivalence suites.

* Recorded simulated-timeline fingerprints: ``tests/golden/timelines.json``
  is written by ``tools/record_timeline_golden.py``, which also owns the
  workloads, so a suite re-runs a case with exactly the code that
  recorded it.
* :class:`ListScanQueue`, the plain FIFO first-match list that
  :class:`repro.models.mpi.matchq.MatchQueue`'s head, index and vector
  routes must agree with.
"""

from __future__ import annotations

import importlib.util
import json
import os

from repro.models.mpi.matchq import ANY

_TOOL_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tools", "record_timeline_golden.py"
)
_spec = importlib.util.spec_from_file_location("record_timeline_golden", _TOOL_PATH)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)

with open(recorder.GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)["rows"]


def assert_matches_recording(name: str, machine=None):
    """Re-run one recorded case and compare every fingerprint field exactly.

    Returns the run's ``ProgramResult`` for further checks.
    """
    result, row = recorder.record_case(name, machine=machine)
    assert row == GOLDEN[name]
    return result


class ListScanQueue:
    """MPI first-match by a linear scan of a Python list."""

    def __init__(self):
        self.entries = []

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return (item for item, _, _ in self.entries)

    def append(self, item, src, tag):
        self.entries.append((item, src, tag))

    def pop_first(self, src, tag):
        """Remove and return the first entry compatible with ``(src, tag)``."""

        def compatible(a, b):
            return a == ANY or b == ANY or a == b

        for i, (item, s, t) in enumerate(self.entries):
            if compatible(src, s) and compatible(tag, t):
                del self.entries[i]
                return item
        return None
