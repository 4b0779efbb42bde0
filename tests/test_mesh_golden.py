"""Differential golden suite: mesh adaptation is byte-identical.

``tests/golden/mesh.json`` (written by ``tools/record_mesh_golden.py``)
fingerprints, step by step, the meshes, mark sets, dual graphs, vertex
graphs, solve plans and phase plans of every generated scenario class at
two seeds and of the moving-shock adapt workload, and the meshes of
shock-adapted structured and Delaunay meshes; for a 3-D moving-shock
build at P=8 and P=64 it fingerprints every phase plan and the
reference checksum.  It was recorded
before ``TriMesh`` moved from lists of tuples to arrays with a cached
edge table, and it is the oracle for that change: each test here
replays one case on the current tree and compares every SHA-256.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_TOOL_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "record_mesh_golden.py")
_spec = importlib.util.spec_from_file_location("record_mesh_golden", _TOOL_PATH)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)

with open(recorder.GOLDEN_PATH) as _fh:
    _GOLDEN = json.load(_fh)

_CASES = dict(recorder.cases())


@pytest.mark.parametrize("name", sorted(_GOLDEN["rows"]))
def test_mesh_matches_recording(name):
    """Every step's mesh, marks, graphs and plans match the recording."""
    golden = _GOLDEN["rows"][name]
    steps = _CASES[name]()
    for i, (got, want) in enumerate(zip(steps, golden)):
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        assert not diff, f"step {i} ({want.get('step')}) differs in {diff}"
    assert len(steps) == len(golden)


def test_golden_file_covers_every_case():
    """The recording spans every scenario class, seed and mesh it claims to."""
    assert sorted(_GOLDEN["rows"]) == sorted(_CASES)
    assert _GOLDEN["scenario_seeds"] == [0, 1]
    assert _GOLDEN["scenario_shape"] == {"mesh_n": 12, "phases": 3}
    steps = {row["step"] for rows in _GOLDEN["rows"].values() for row in rows}
    assert steps == {"init", "dissolve", "coarsen", "marks", "close", "cascade",
                     "dual", "solve_plan", "plan", "reference"}
