#!/usr/bin/env python
"""Record the mesh golden fingerprints for the 2-D adaptation substrate.

``tests/test_mesh_golden.py`` asserts that 2-D mesh adaptation still
produces *byte-identical* meshes, marks, dual graphs and solve plans,
compared with the recordings this script wrote.  The recordings are
SHA-256 digests of each array's raw bytes (with dtype and shape), so any
change of value, order, dtype or length shows up.

Two kinds of input are recorded:

* every generated scenario class at two seeds, built through
  :func:`repro.apps.adapt.script.build_script` at P=8, and two builds of
  the moving-shock adapt workload (which also coarsens), with the adapt
  steps they call (dissolve, coarsen, close, cascade, the balancer's dual
  graphs and the solve plans) wrapped so the state after each is
  fingerprinted, and every field of every finished phase plan;
* a few structured meshes and one Delaunay mesh, adapted for several
  phases by a moving shock (once under the red-green closure and once
  under the "mixed" 1:3 closure), fingerprinted after every step.

A mesh state is its vertex coordinates, triangle array, alive mask,
parent and level arrays and the sorted midpoint map ``(a, b, mid)``;
mark sets are sorted ``(a, b)`` rows.  Triangle and vertex ids are part
of the digest, so the order in which refinement creates them is pinned.

Re-run only when an intentional mesh change lands (and say so in the
commit):

    PYTHONPATH=src python tools/record_mesh_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "tests", "golden", "mesh.json")

SCENARIO_SEEDS = (0, 1)
SCENARIO_SHAPE = {"mesh_n": 12, "phases": 3}
SCENARIO_NPROCS = 8
STRUCTURED_N = (2, 5, 9)
SHOCK_PHASES = 5
#: (mesh_n, phases, nprocs) of the moving-shock adapt builds
ADAPT_CASES = ((8, 3, 3), (12, 6, 8))

Row = Dict[str, object]


def digest(arr) -> str:
    """SHA-256 over an array's dtype, shape and raw bytes."""
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def digest_all(arrays) -> str:
    """One digest over a sequence of arrays (their digests, in order)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(digest(a).encode())
    return h.hexdigest()


def midpoint_rows(mesh) -> np.ndarray:
    """The memoised midpoint map as sorted ``(a, b, mid)`` int64 rows."""
    from repro.mesh.mesh2d import unpack_edge_keys

    keys, mids = mesh.midpoint_table()
    return np.stack([*unpack_edge_keys(keys), mids], axis=1).astype(np.int64)


def edge_rows(edges) -> np.ndarray:
    """A set of ``(a, b)`` edge keys as sorted int64 rows."""
    return np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)


def mesh_state(mesh) -> Dict[str, str]:
    return {
        "verts": digest(np.asarray(mesh.verts_array(), dtype=np.float64)),
        "tris": digest(np.asarray(mesh.tris, dtype=np.int64).reshape(-1, 3)),
        "alive": digest(np.asarray(mesh.alive, dtype=bool)),
        "parent": digest(np.asarray(mesh.parent, dtype=np.int64)),
        "level": digest(np.asarray(mesh.level, dtype=np.int64)),
        "midpoints": digest(midpoint_rows(mesh)),
    }


def families_digest(families: Dict[int, Tuple[int, ...]]) -> str:
    rows = [(p, *kids) for p, kids in sorted(families.items())]
    return digest_all(np.asarray(r, dtype=np.int64) for r in rows)


def graph_state(mesh) -> Dict[str, str]:
    """The PLUM dual graph and the solver's vertex graph of ``mesh``."""
    from repro.mesh.dual import dual_graph
    from repro.partition import mesh_dual_graph
    from repro.solver.kernels import vertex_csr

    graph, tids = mesh_dual_graph(mesh)
    _, adj = dual_graph(mesh)
    xadj, adjncy = vertex_csr(mesh)
    return {
        "dual_tids": digest(np.asarray(tids, dtype=np.int64)),
        "dual_xadj": digest(graph.xadj),
        "dual_adjncy": digest(graph.adjncy),
        "dual_coords": digest(graph.coords),
        "dual_adj": digest_all(np.asarray(adj[t], dtype=np.int64) for t in tids),
        "vertex_xadj": digest(xadj),
        "vertex_adjncy": digest(adjncy),
    }


def solve_plan_state(out) -> Dict[str, str]:
    rows, row_xadj, row_adjncy, forcing, ghost_sends = out
    pairs = sorted(ghost_sends)
    return {
        "rows": digest_all(rows),
        "row_xadj": digest_all(row_xadj),
        "row_adjncy": digest_all(row_adjncy),
        "forcing": digest_all(forcing),
        "ghost_pairs": digest(np.asarray(pairs, dtype=np.int64).reshape(-1, 2)),
        "ghost_sends": digest_all(ghost_sends[p] for p in pairs),
    }


def value_digest(value) -> str:
    """Digest of one :class:`PhasePlan` field (arrays, lists, dicts, scalars)."""
    if isinstance(value, np.ndarray):
        return digest(value)
    if isinstance(value, dict):
        return digest_all([int_rows(list(value)), *(np.asarray(v) for v in value.values())])
    if isinstance(value, list):
        if value and isinstance(value[0], np.ndarray):
            return digest_all(value)
        return digest(int_rows(value))
    return repr(value)


def int_rows(items) -> np.ndarray:
    """Ints or int tuples as an int64 array of rows (empty: shape ``(0,)``)."""
    if not items:
        return np.zeros(0, dtype=np.int64)
    return np.asarray(items, dtype=np.int64).reshape(len(items), -1)


def plan_state(plan) -> Row:
    """Every field of one phase of an adapt trajectory."""
    return {
        "step": "plan",
        **{f.name: value_digest(getattr(plan, f.name)) for f in dataclasses.fields(plan)},
    }


def build_steps(build: Callable) -> List[Row]:
    """Fingerprints after every adapt step of one ``build_script`` call.

    ``build(build_script)`` runs the build; the adapt steps it calls are
    wrapped for the duration, and every phase plan of the finished
    trajectory is fingerprinted after them.
    """
    import repro.apps.adapt.script as script
    import repro.plum.balancer as balancer

    steps: List[Row] = []

    def wrap(owner, name: str, record: Callable) -> Tuple[object, str, Callable]:
        real = getattr(owner, name)

        def hooked(*args, **kwargs):
            out = real(*args, **kwargs)
            steps.append(record(args, out))
            return out

        setattr(owner, name, hooked)
        return owner, name, real

    def on_dissolve(args, out):
        return {"step": "dissolve", "families": families_digest(out), **mesh_state(args[0])}

    def on_coarsen(args, out):
        return {
            "step": "coarsen",
            "candidates": digest(np.asarray(sorted(args[1]), dtype=np.int64)),
            "families": families_digest(out.families),
            **mesh_state(args[0]),
        }

    def on_close(args, out):
        return {"step": "close", "marks": digest(edge_rows(args[1])),
                "closed": digest(edge_rows(out))}

    def on_cascade(args, out):
        return {"step": "cascade", "families": families_digest(out.families),
                **mesh_state(args[0])}

    def on_dual(args, out):
        graph, tids = out
        return {"step": "dual", "tids": digest(np.asarray(tids, dtype=np.int64)),
                "xadj": digest(graph.xadj), "adjncy": digest(graph.adjncy),
                "coords": digest(graph.coords)}

    def on_solve(args, out):
        return {"step": "solve_plan", **solve_plan_state(out)}

    undo = [
        wrap(script, "dissolve_green_families", on_dissolve),
        wrap(script, "coarsen", on_coarsen),
        wrap(script, "close_marks", on_close),
        wrap(script, "refine_cascade", on_cascade),
        wrap(script, "_solve_plan", on_solve),
        wrap(balancer, "mesh_dual_graph", on_dual),
    ]
    try:
        built = build(script.build_script)
    finally:
        for owner, name, real in reversed(undo):
            setattr(owner, name, real)
    steps.extend(plan_state(plan) for plan in built.phases)
    steps.append({"step": "reference", "checksum": repr(built.reference_checksum)})
    return steps


def scenario_steps(cls: str, seed: int) -> List[Row]:
    """Fingerprints of one generated scenario's build at P=8."""
    from repro.workloads.synth import generate_scenario, spec_config

    spec = generate_scenario(cls, seed=seed, **SCENARIO_SHAPE)
    return build_steps(lambda build: build(spec_config(spec), SCENARIO_NPROCS))


def adapt_steps(mesh_n: int, phases: int, nprocs: int) -> List[Row]:
    """Fingerprints of the moving-shock adapt build (it coarsens, too)."""
    from repro.apps.adapt import AdaptConfig

    config = AdaptConfig(mesh_n=mesh_n, phases=phases)
    return build_steps(lambda build: build(config, nprocs))


def shock_steps(mesh, mode: str) -> List[Row]:
    """Fingerprints of ``mesh`` adapted by a moving shock, step by step."""
    from repro.mesh.coarsen import coarsen
    from repro.mesh.refine import (
        close_marks,
        dissolve_green_families,
        hanging_edge_marks,
        refine_cascade,
    )
    from repro.workloads.shock import MovingShock

    shock = MovingShock(x0=0.1, speed=0.17, band=0.08, coarsen_distance=0.15, max_level=3)
    steps: List[Row] = [{"step": "init", **mesh_state(mesh), **graph_state(mesh)}]
    for k in range(1, SHOCK_PHASES + 1):
        dissolved = dissolve_green_families(mesh)
        steps.append({"step": "dissolve", "families": families_digest(dissolved),
                      **mesh_state(mesh)})
        candidates = shock.coarsen_candidates(mesh, k)
        report = coarsen(mesh, candidates)
        steps.append({"step": "coarsen",
                      "candidates": digest(np.asarray(sorted(candidates), dtype=np.int64)),
                      "families": families_digest(report.families), **mesh_state(mesh)})
        hanging = hanging_edge_marks(mesh)
        marks = set(shock.marks(mesh, k)) | hanging
        steps.append({"step": "marks", "hanging": digest(edge_rows(hanging)),
                      "marks": digest(edge_rows(marks))})
        closed = close_marks(mesh, marks, mode=mode)
        steps.append({"step": "close", "closed": digest(edge_rows(closed))})
        cascade = refine_cascade(mesh, marks, mode=mode)
        for _ in range(16):
            extra = hanging_edge_marks(mesh)
            if not extra:
                break
            cascade.families.update(refine_cascade(mesh, extra, mode=mode).families)
        mesh.validate()
        steps.append({"step": "cascade", "families": families_digest(cascade.families),
                      "rounds": cascade.cascade_rounds, **mesh_state(mesh),
                      **graph_state(mesh)})
    return steps


def cases() -> List[Tuple[str, Callable[[], List[Row]]]]:
    """Every (name, recorder) the golden covers, in recording order."""
    from repro.mesh import delaunay_mesh, structured_mesh
    from repro.workloads.synth import SCENARIO_CLASSES

    out: List[Tuple[str, Callable[[], List[Row]]]] = []
    for cls in sorted(SCENARIO_CLASSES):
        for seed in SCENARIO_SEEDS:
            out.append((f"scenario-{cls}-s{seed}", lambda c=cls, s=seed: scenario_steps(c, s)))
    for mesh_n, phases, nprocs in ADAPT_CASES:
        out.append((f"adapt-n{mesh_n}-k{phases}-p{nprocs}",
                    lambda a=(mesh_n, phases, nprocs): adapt_steps(*a)))
    for n in STRUCTURED_N:
        out.append((f"structured-{n}", lambda n=n: shock_steps(structured_mesh(n), "red-green")))
    out.append(("structured-9-mixed", lambda: shock_steps(structured_mesh(9), "mixed")))
    out.append(("delaunay-150", lambda: shock_steps(delaunay_mesh(150, seed=3), "red-green")))
    return out


def main() -> int:
    rows = {}
    for name, record in cases():
        rows[name] = record()
        print(f"recorded {name:<32} {len(rows[name])} steps")
    record = {
        "scenario_seeds": list(SCENARIO_SEEDS),
        "scenario_shape": SCENARIO_SHAPE,
        "scenario_nprocs": SCENARIO_NPROCS,
        "rows": rows,
    }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH)} ({len(rows)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
