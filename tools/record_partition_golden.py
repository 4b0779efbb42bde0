#!/usr/bin/env python
"""Record the partition golden fingerprints for the partitioner suite.

``tests/test_partition_golden.py`` asserts that every partitioner (RCB,
spectral, multilevel) still returns *byte-identical* part arrays, and that
the multilevel internals (heavy-edge matching, coarsening, induced
subgraphs) and the mesh dual graphs themselves still produce
byte-identical arrays, compared with the recordings this script wrote.
The recordings are SHA-256 digests of each array's raw bytes (with dtype
and shape), so any change of value, order, dtype or length shows up.

Inputs are the dual graphs of the meshes PLUM actually repartitions in
generated scenarios (all four classes, two seeds, the last mesh each
build hands to the balancer), a structured, a Delaunay and a tetrahedral
mesh dual, a king's-move grid graph (degree 8, so contracted pairs share
up to four parallel edges and the order of float sums shows), and a
variant of each with non-integer vertex weights and non-integer
symmetric edge weights.

Re-run only when an intentional partition change lands (and say so in
the commit):

    PYTHONPATH=src python tools/record_partition_golden.py
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden", "partition.json"
)

SCENARIO_SEEDS = (0, 1)
SCENARIO_SHAPE = {"mesh_n": 12, "phases": 3}
SCENARIO_NPROCS = 8
NPARTS = (2, 3, 7, 8, 16, 64)
PARTITIONERS = ("rcb", "spectral", "multilevel")
MATCH_SEEDS = (0, 3)


def digest(arr) -> str:
    """SHA-256 over an array's dtype, shape and raw bytes."""
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def graph_digest(graph) -> Dict[str, str]:
    out = {
        "xadj": digest(graph.xadj),
        "adjncy": digest(graph.adjncy),
        "vwgt": digest(graph.vwgt),
        "ewgt": digest(graph.ewgt),
    }
    if graph.coords is not None:
        out["coords"] = digest(graph.coords)
    return out


def scenario_meshes() -> List[Tuple[str, object]]:
    """The last mesh each generated scenario's build repartitions."""
    import repro.plum.balancer as balancer
    from repro.apps.adapt.script import build_script
    from repro.workloads.synth import SCENARIO_CLASSES, generate_scenario, spec_config

    real = balancer.mesh_dual_graph
    out = []
    for cls in sorted(SCENARIO_CLASSES):
        for seed in SCENARIO_SEEDS:
            seen = []

            def capture(mesh, weights=None):
                seen.append(copy.deepcopy(mesh))
                return real(mesh, weights)

            balancer.mesh_dual_graph = capture
            try:
                spec = generate_scenario(cls, seed=seed, **SCENARIO_SHAPE)
                build_script(spec_config(spec), SCENARIO_NPROCS)
            finally:
                balancer.mesh_dual_graph = real
            out.append((spec.name, seen[-1]))
    return out


def reweighted(graph):
    """``graph`` with non-integer vertex weights and symmetric edge weights."""
    from repro.partition import Graph

    n = graph.num_vertices
    vwgt = np.random.default_rng(n).uniform(0.5, 3.0, n)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    lo = np.minimum(src, graph.adjncy)
    hi = np.maximum(src, graph.adjncy)
    # an exact integer hash of the unordered pair, so (v, u) and (u, v) agree
    ewgt = 0.25 + ((lo * 2654435761 + hi * 40503) % 1009) / 173.0
    return Graph(graph.xadj, graph.adjncy, vwgt, ewgt, graph.coords)


def king_graph(side: int):
    """``side`` x ``side`` grid, each cell joined to its 8 neighbours."""
    from repro.partition import Graph

    adj = {}
    for y in range(side):
        for x in range(side):
            adj[y * side + x] = [
                (y + dy) * side + x + dx
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
                if (dx or dy) and 0 <= x + dx < side and 0 <= y + dy < side
            ]
    g = np.mgrid[0:side, 0:side].reshape(2, -1)[::-1].T / side
    return Graph.from_adjacency(adj, coords=g)


def cases() -> List[Tuple[str, object]]:
    """Every (name, graph) the golden covers, in recording order."""
    from repro.mesh import delaunay_mesh, structured_mesh
    from repro.mesh.generator3d import structured_tet_mesh
    from repro.partition import mesh_dual_graph

    meshes = scenario_meshes() + [
        ("structured-12", structured_mesh(12)),
        ("delaunay-400", delaunay_mesh(400, seed=3)),
        ("tet-3", structured_tet_mesh(3)),
    ]
    graphs = [(name, mesh_dual_graph(mesh)[0]) for name, mesh in meshes]
    out = []
    for name, graph in graphs + [("king-20", king_graph(20))]:
        out.append((name, graph))
        out.append((name + "+w", reweighted(graph)))
    return out


def fingerprint(graph) -> Dict[str, object]:
    """Every recorded output for one input graph."""
    from repro.partition import PARTITIONERS as FNS
    from repro.partition.multilevel import coarsen_graph, heavy_edge_matching

    row: Dict[str, object] = {
        "num_vertices": graph.num_vertices,
        "graph": graph_digest(graph),
        "parts": {
            f"{name}/{nparts}": digest(FNS[name](graph, nparts))
            for name in PARTITIONERS
            for nparts in NPARTS
        },
    }
    coarse = {}
    for seed in MATCH_SEEDS:
        match = heavy_edge_matching(graph, seed=seed)
        cg, cmap = coarsen_graph(graph, match)
        coarse[str(seed)] = {
            "match": digest(match),
            "cmap": digest(cmap),
            "coarse": graph_digest(cg),
        }
    row["coarsen"] = coarse
    keep = np.flatnonzero(np.arange(graph.num_vertices) % 3 != 1)
    sub, orig = graph.subgraph(keep)
    row["subgraph"] = {"orig": digest(orig), **graph_digest(sub)}
    return row


def main() -> int:
    rows = {}
    for name, graph in cases():
        rows[name] = fingerprint(graph)
        print(f"recorded {name:<28} n={graph.num_vertices}")
    record = {
        "nparts": list(NPARTS),
        "partitioners": list(PARTITIONERS),
        "match_seeds": list(MATCH_SEEDS),
        "rows": rows,
    }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH)} ({len(rows)} graphs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
