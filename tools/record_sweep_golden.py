#!/usr/bin/env python
"""Record the sweep-bench golden records for the harness suite.

``tests/test_sweep_golden.py`` re-runs three bench sweeps and asserts
that each returns exactly the record this script wrote:

* a scenario ranking-flip sweep (two classes x two intensities x P=8/32,
  default mesh, insights on) whose ranking flips on all three axes;
* a hardware-profile sweep (three profiles x P=2/8 on a small scenario)
  with best-model flips on both axes;
* a correlated fault-recovery bench (mpi and hybrid at P=16 under
  ``bursty-links``, three arms each) on the small adapt workload.

Times are simulated, so the records are deterministic; any change to a
sweep's grid order, ranking, flip list or row fields shows up as a diff.
Re-run only when a bench record changes on purpose (and say so in the
commit):

    PYTHONPATH=src python tools/record_sweep_golden.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden", "sweeps.json"
)

#: name -> (harness function, keyword arguments); ``workload: "small"``
#: stands for the CLI's small adapt preset
CALLS = {
    "scenario_sweep": ("run_scenario_bench", {
        "classes": ["refinement_storm", "imbalance_wave"],
        "intensities": [0.2, 1.0],
        "nprocs_list": [8, 32],
    }),
    "profile_sweep": ("run_profile_bench", {
        "profiles": ["origin2000", "numa-epyc", "fat-tree-cluster"],
        "nprocs_list": [2, 8],
        "mesh_n": 6,
        "phases": 3,
        "solver_iters": 4,
    }),
    "fault_bench": ("run_fault_bench", {
        "app": "adapt",
        "models": ["mpi", "hybrid"],
        "nprocs_list": [16],
        "profile": "bursty-links",
        "correlated": True,
        "workload": "small",
    }),
}


def run_call(fn_name: str, kwargs: dict) -> dict:
    """Run one recorded bench call; returns its record as plain JSON data."""
    import repro.harness as harness
    from repro.apps.adapt import AdaptConfig

    kwargs = dict(kwargs)
    if kwargs.get("workload") == "small":
        kwargs["workload"] = AdaptConfig(mesh_n=8, phases=3, solver_iters=6)
    return json.loads(json.dumps(getattr(harness, fn_name)(**kwargs)))


def main() -> int:
    golden = {}
    for name, (fn_name, kwargs) in CALLS.items():
        record = run_call(fn_name, kwargs)
        golden[name] = {"fn": fn_name, "kwargs": kwargs, "record": record}
        print(f"recorded {name}: {len(record['rows'])} rows")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH)} ({len(golden)} records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
