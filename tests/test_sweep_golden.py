"""Golden records of the three bench sweeps.

``tests/golden/sweeps.json`` (written by ``tools/record_sweep_golden.py``)
holds one scenario ranking-flip sweep, one hardware-profile sweep and one
correlated fault-recovery bench, each with the harness call that made
it.  Every test re-runs one call and compares the whole record: rows,
rankings, flips, specs and per-arm fault counters.  Simulated times are
deterministic, so any difference is a change in what the bench reports.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.harness as harness
from repro.apps.adapt import AdaptConfig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "sweeps.json")

with open(GOLDEN_PATH) as _fh:
    _GOLDEN = json.load(_fh)


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_sweep_record_matches_recording(name):
    entry = _GOLDEN[name]
    kwargs = dict(entry["kwargs"])
    if kwargs.get("workload") == "small":
        kwargs["workload"] = AdaptConfig(mesh_n=8, phases=3, solver_iters=6)
    record = getattr(harness, entry["fn"])(**kwargs)
    assert json.loads(json.dumps(record)) == entry["record"]
