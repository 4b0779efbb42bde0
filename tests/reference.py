"""References the fast paths are held to, shared by the equivalence suites.

* Recorded simulated-timeline fingerprints: ``tests/golden/timelines.json``
  is written by ``tools/record_timeline_golden.py``, which also owns the
  workloads, so a suite re-runs a case with exactly the code that
  recorded it.
* :class:`ListScanQueue`, the plain FIFO first-match list that
  :class:`repro.models.mpi.matchq.MatchQueue`'s head, index and vector
  routes must agree with.
* :func:`reference_nbytes`, the plain recursive wire-size estimate that
  :func:`repro.models.payload.nbytes_of`'s exact-type shortcuts must
  agree with.
* :func:`reference_canonical_json`, the store's canonical signature text
  by one recursive ``isinstance`` walk and a plain ``json.dumps``, which
  :func:`repro.serving.store.canonical_json` must agree with.
* :func:`reference_accel`, the per-body scalar Barnes–Hut walk that
  :meth:`repro.apps.nbody.tree.QuadTree.forces`'s all-body walk must
  agree with bit for bit, and :func:`reference_cost_ranges`, the
  boundary-by-boundary cost-zones split that
  :func:`repro.apps.nbody.common.cost_ranges` must agree with.
* :func:`reference_find_stale`, the stale entries of a sweep by one
  decode of every stored object, which
  :func:`repro.serving.invalidate.find_stale`'s identity-index lookup
  must agree with.
* :func:`write_store_object`, the v3 object layout spelled out on its
  own: ``ResultStore.put`` must write the same bytes, and a test files
  any payload bytes or meta line, sound or not, behind a header that
  holds.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import marshal
import os
import zlib
from pathlib import Path

import numpy as np

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


def reference_nbytes(payload) -> int:
    """Wire-size estimate by one isinstance chain, recursing into items."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 16 + sum(reference_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 16 + sum(
            reference_nbytes(k) + reference_nbytes(v) for k, v in payload.items()
        )
    attrs = getattr(payload, "__dict__", None)
    if attrs is not None:
        return 16 + sum(reference_nbytes(v) for v in attrs.values())
    return 8


def _reference_plain(value):
    """A JSON-safe canonical form of ``value`` (recursive, order-free)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _reference_plain(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, dict):
        return {str(k): _reference_plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_reference_plain(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    return repr(value)


def reference_canonical_json(obj) -> str:
    """Canonical JSON text: plain the whole value first, then dump it."""
    return json.dumps(_reference_plain(obj), sort_keys=True, separators=(",", ":"))


def reference_accel(tree, i, theta=0.7, eps=1e-3, visited=None):
    """Acceleration on body ``i`` by one stack walk; (ax, ay, interactions).

    Children are pushed in reverse so they pop in quadrant order (a
    preorder walk), a leaf's bodies are taken in sorted id order, and the
    sums run left to right from ``0.0``. Adds each visited node to
    ``visited``.
    """
    xi, yi = float(tree.pos[i, 0]), float(tree.pos[i, 1])
    ax = ay = 0.0
    count = 0
    stack = [0]
    while stack:
        node = stack.pop()
        if visited is not None:
            visited.add(node)
        m = tree.mass[node]
        if m == 0.0:
            continue
        dx = tree.comx[node] - xi
        dy = tree.comy[node] - yi
        dist2 = dx * dx + dy * dy
        if tree.children[node] is None:
            for b in sorted(tree.bodies[node]):
                if b == i:
                    continue
                bx = float(tree.pos[b, 0]) - xi
                by = float(tree.pos[b, 1]) - yi
                r2 = bx * bx + by * by + eps * eps
                w = float(tree.m[b]) / (r2 * np.sqrt(r2))
                ax += w * bx
                ay += w * by
                count += 1
        elif (2 * tree.half[node]) ** 2 < theta * theta * dist2:
            r2 = dist2 + eps * eps
            w = m / (r2 * np.sqrt(r2))
            ax += w * dx
            ay += w * dy
            count += 1
        else:
            stack.extend(reversed(tree.children[node]))
    return ax, ay, count


def reference_cost_ranges(costs, nprocs):
    """Cost-zones split one boundary at a time: ``nprocs`` (lo, hi) ranges."""
    costs = np.asarray(costs, dtype=np.float64)
    n = len(costs)
    cum = np.cumsum(costs)
    total = cum[-1] if n else 0.0
    ranges = []
    lo = 0
    for p in range(nprocs):
        if p == nprocs - 1:
            hi = n
        else:
            target = total * (p + 1) / nprocs
            hi = int(np.searchsorted(cum, target, side="left")) + 1
            hi = max(lo, min(hi, n))
        ranges.append((lo, hi))
        lo = hi
    return ranges


def reference_find_stale(cells, store):
    """``{identity: [stale keys]}`` by reading every object in ``store``.

    An entry is stale when its record carries the identity of one of
    ``cells`` but a key none of those cells has.
    """
    wanted = {}
    for cell in cells:
        wanted.setdefault(cell.identity(), set()).add(cell.key())
    stale = {}
    for _, record in store.entries():
        if record is None:
            continue
        ident = record.get("identity")
        key = record.get("key")
        if ident in wanted and key not in wanted[ident]:
            stale.setdefault(ident, []).append(key)
    return stale


def write_store_object(store, key, payload, meta):
    """Write the v3 object file of ``key`` into ``store`` by hand.

    ``payload`` becomes the payload span: ``bytes`` as they are, anything
    else as ``marshal`` format 2 of its canonical JSON's value.  ``meta``
    becomes the meta line: a ``str`` as it is, anything else as canonical
    JSON.  The header holds ``key``, the CRC-32 of the payload, the meta
    line and the newline after each as 8 hex digits, and the payload's
    byte length.  Returns the object path.
    """
    def canonical(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    if not isinstance(payload, bytes):
        payload = marshal.dumps(json.loads(canonical(payload)), 2)
    if not isinstance(meta, str):
        meta = canonical(meta)
    body = payload + b"\n" + meta.encode() + b"\n"
    header = f"{key} {zlib.crc32(body):08x} {len(payload)}\n".encode()
    path = store.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + body)
    return path
