"""Differential golden suite: partitions are byte-identical to the recording.

``tests/golden/partition.json`` (written by
``tools/record_partition_golden.py``) fingerprints, for every input
graph the recorder builds, the dual graph arrays themselves, every
partitioner at every recorded ``nparts``, heavy-edge matchings and the
coarse graphs they contract to, and one induced subgraph.  It was
recorded before the partitioner moved from per-vertex loops to CSR array
code, and it is the oracle that replaced those loops: each test here
rebuilds one input on the current tree and compares every SHA-256.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os

import pytest

_TOOL_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tools", "record_partition_golden.py"
)
_spec = importlib.util.spec_from_file_location("record_partition_golden", _TOOL_PATH)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)

with open(recorder.GOLDEN_PATH) as _fh:
    _GOLDEN = json.load(_fh)


@functools.lru_cache(maxsize=1)
def _graphs():
    return dict(recorder.cases())


@pytest.mark.parametrize("name", sorted(_GOLDEN["rows"]))
def test_partition_matches_recording(name):
    """Graph, partitions, matchings, coarse graphs and subgraph all match."""
    golden = _GOLDEN["rows"][name]
    row = recorder.fingerprint(_graphs()[name])
    assert row["graph"] == golden["graph"], "input dual graph changed"
    assert row["subgraph"] == golden["subgraph"]
    assert row["coarsen"] == golden["coarsen"]
    mismatched = sorted(k for k, v in row["parts"].items() if golden["parts"].get(k) != v)
    assert not mismatched, f"partitions differ: {mismatched}"
    assert row == golden


def test_golden_file_covers_every_input():
    """The recording spans every graph, partitioner and nparts it claims to."""
    assert sorted(_GOLDEN["rows"]) == sorted(_graphs())
    assert set(_GOLDEN["partitioners"]) == {"rcb", "spectral", "multilevel"}
    assert _GOLDEN["nparts"] == [2, 3, 7, 8, 16, 64]
    for row in _GOLDEN["rows"].values():
        assert len(row["parts"]) == 18
