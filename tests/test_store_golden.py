"""Golden store keys: a lookup must keep finding what older stores wrote.

``tests/golden/store_keys.json`` (written by ``tools/record_store_golden.py``)
pins, for a grid crossing every workload kind with fault specs,
``derived`` switches, machine profiles and placements, the sha256 of each
cell's canonical signature text, its store key, and the bytes of the
object ``ResultStore.put`` files for it.  A moved key would silently turn
every existing store into misses, so any difference in a key is a break
of the on-disk contract, not a refactor; object bytes move only with a
new ``STORE_LAYOUT``.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_TOOL_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tools", "record_store_golden.py"
)
_spec = importlib.util.spec_from_file_location("record_store_golden", _TOOL_PATH)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)

with open(recorder.GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    return recorder.cells(tmp_path_factory.mktemp("store-golden"))


def test_grid_matches_recorded_labels(grid):
    assert [label for label, _ in grid] == sorted(GOLDEN)


def test_every_key_and_record_matches_recording(grid, tmp_path):
    got = {label: recorder.fingerprint(cell, tmp_path / "store")
           for label, cell in grid}
    diff = [label for label in GOLDEN if got.get(label) != GOLDEN[label]]
    assert not diff, f"{len(diff)} cells moved, first: {diff[0]}"
