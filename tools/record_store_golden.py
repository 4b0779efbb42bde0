#!/usr/bin/env python
"""Record the result-store key golden for the serving suite.

``tests/test_store_golden.py`` rebuilds every cell below and asserts that
the store signs it exactly as this script recorded:

* ``signature_sha256``: sha256 of ``canonical_json(cell.signature())``;
* ``key``: ``cell.key()``, the content address a lookup reads;
* ``record_sha256``: sha256 of the object file ``ResultStore.put`` writes
  for the cell with a fixed payload (in the ``STORE_LAYOUT`` layout).

The grid crosses every workload kind (default, default and custom
``AdaptConfig``, ``Adapt3DConfig``, ``JacobiConfig``, ``NBodyConfig``, a
``ScenarioSpec`` as an object and saved to a path) with fault specs
(none, a preset name, a ``gilbert:`` spec, a ``FaultProfile``),
``derived`` switches (none, flat, nested), machine profiles (none, a
registered name, a custom overlay) and both placements.  A key that
moves means every store written before it stops hitting, so re-record
only with an intentional ``STORE_SCHEMA`` or ``repro.__version__``
change, or with a new ``STORE_LAYOUT``, which moves only
``record_sha256`` (and say so in the commit):

    PYTHONPATH=src python tools/record_store_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden", "store_keys.json"
)

#: the payload every recorded object carries (only the bytes matter)
PAYLOAD = {"elapsed_ns": 1234.5, "model": "mpi", "nprocs": 4,
           "rank_results": [1.25, -0.0, 3]}

PLACEMENTS = ("first-touch", "round-robin")
PROCS = (1, 4, 8, 16)


def _workloads(scratch: Path):
    """``(label, app, workload)`` for every workload kind."""
    from repro.apps.adapt import AdaptConfig
    from repro.apps.adapt3d.common import Adapt3DConfig
    from repro.apps.jacobi import JacobiConfig
    from repro.apps.nbody import NBodyConfig
    from repro.workloads.shock import MovingShock
    from repro.workloads.synth import generate_scenario

    spec = generate_scenario("multi_front", seed=3, mesh_n=6, phases=2)
    path = spec.save(scratch / "golden.scenario.json")
    return [
        ("none", "adapt", None),
        ("adapt-default", "adapt", AdaptConfig()),
        ("adapt-custom", "adapt", AdaptConfig(
            mesh_n=6, phases=2, solver_iters=3, omega=0.65,
            shock=MovingShock(x0=0.3, speed=0.2, max_level=3),
        )),
        ("adapt3d", "adapt3d", Adapt3DConfig(mesh_n=2, phases=2)),
        ("jacobi", "jacobi", JacobiConfig(nx=48, ny=32, iters=5)),
        ("nbody", "nbody", NBodyConfig()),
        ("scenario-object", "scenario", spec),
        ("scenario-path", "scenario", str(path)),
    ]


def _faults():
    from repro.faults import FaultProfile

    return [
        ("none", None),
        ("preset", "bursty-links"),
        ("gilbert", "gilbert:p=0.1,r=0.5,loss=0.4,domains=link:cube:1+router:0"),
        ("profile", FaultProfile(name="golden", drop_rate=0.02, delay_rate=0.1,
                                 delay_ns=1500.0, window_ns=(1e4, 5e6))),
    ]


def _derived():
    return [
        ("none", None),
        ("flat", {"link_stats": "on"}),
        ("nested", {"link_stats": "on",
                    "tuning": {"b": [1, 2.5, None, (3, "x")], "a": {"z": True}}}),
    ]


def _profiles():
    from repro.machine.profiles import MachineProfile

    return [
        ("none", None),
        ("registered", "numa-epyc"),
        ("overlay", MachineProfile("golden-overlay", "hub and link tweak",
                                   overrides=(("hub_ns", 45.0), ("router_hop_ns", 30.0)))),
    ]


def cells(scratch: Path):
    """``[(label, Cell)]`` of the recorded grid, in a fixed order.

    Every workload appears with every non-workload combination whose
    index lines up with it mod 4, plus once with all defaults; the model
    and P rotate with the position, so each workload meets each fault,
    ``derived``, profile and placement value.
    """
    from repro.harness.experiment import _programs
    from repro.serving import Cell

    combos = list(itertools.product(_faults(), _derived(), _profiles(), PLACEMENTS))
    out = []
    for w, (wl_name, app, workload) in enumerate(_workloads(scratch)):
        models = sorted(_programs(app))
        picks = [combos[0]] + [c for j, c in enumerate(combos) if (w + j) % 4 == 0]
        for (fl_name, faults), (dv_name, derived), (mp_name, profile), placement \
                in picks:
            i = len(out)
            model = models[i % len(models)]
            nprocs = PROCS[i % len(PROCS)]
            label = (f"{i:03d} {app}/{wl_name}/{model}/P{nprocs}/{placement}/"
                     f"faults={fl_name}/derived={dv_name}/profile={mp_name}")
            out.append((label, Cell(app, model, nprocs, workload, placement,
                                    faults=faults, derived=derived,
                                    machine_profile=profile)))
    return out


def fingerprint(cell, store_root: Path) -> dict:
    """The three pinned hashes of one cell (see the module docstring)."""
    from repro.serving import ResultStore, canonical_json

    sig = cell.signature()
    key = cell.key()
    path = ResultStore(store_root).put(key, sig, PAYLOAD, identity=cell.identity())
    return {
        "signature_sha256": hashlib.sha256(canonical_json(sig).encode()).hexdigest(),
        "key": key,
        "record_sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest(),
    }


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        return {label: fingerprint(cell, tmp / "store")
                for label, cell in cells(tmp)}


def main() -> int:
    golden = record()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} cells to {os.path.normpath(GOLDEN_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
