"""Precomputed trajectory of one adaptive run (model-independent).

For a given workload and processor count, everything *structural* about the
run is deterministic and identical under all three programming models: how
the mesh refines and coarsens, which processor owns which element, which
elements migrate at each rebalance, which vertex values cross each
partition boundary.  :func:`build_script` computes that trajectory once;
the per-model programs replay it, doing the real numerics for their own
ranks and paying their model's communication costs with real payloads.

The script also carries the *sequential reference checksum* so every model
implementation can be verified to produce the identical solution.

A plan is read-only once built, and every rank of every model program
reads the same one.  What the ranks would otherwise each re-derive from
the global tables — each rank's own entries of a pair table
(:meth:`PhasePlan.pairs_of`), a model's slot layout — is computed once
per plan through :meth:`PhasePlan.once` and shared by all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.apps.adapt.common import AdaptConfig
from repro.mesh.coarsen import coarsen
from repro.mesh.generator import structured_mesh
from repro.mesh.mesh2d import TriMesh, edge_keys_of, unpack_edge_keys
from repro.mesh.refine import (
    close_marks,
    dissolve_green_families,
    hanging_edge_marks,
    refine_cascade,
)
from repro.partition import PARTITIONERS
from repro.plum.balancer import PlumBalancer, inherit_ownership
from repro.plum.cost import remap_cost
from repro.plum.policy import ImbalancePolicy
from repro.solver.kernels import interpolate_new_vertices, jacobi_sweep, vertex_csr

__all__ = ["PhasePlan", "AdaptScript", "build_script"]

Pair = Tuple[int, int]


@dataclass
class PhasePlan:
    """One phase of the trajectory: transition into it + its solve.

    Read-only once built.  :meth:`once` memoises values derived from the
    plan and :meth:`pairs_of` gives each rank its own entries of a pair
    table; both are built on first use and shared by all ranks.
    """

    index: int
    nverts: int
    nels: int
    elems_per_rank: np.ndarray
    # --- solve decomposition ---
    rows: List[np.ndarray]                 # per-rank owned vertex ids
    row_xadj: List[np.ndarray]             # per-rank CSR over rows
    row_adjncy: List[np.ndarray]           # global neighbour ids
    forcing: List[np.ndarray]              # per-rank forcing for rows
    ghost_sends: Dict[Pair, np.ndarray]    # (src,dst) -> vertex ids src sends dst
    # --- transition into this phase (all empty for phase 0) ---
    interp_triples: List[Tuple[int, int, int]] = field(default_factory=list)
    refined_per_rank: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    coarsened_families: int = 0
    mark_rounds: int = 0
    boundary_marks: Dict[Pair, np.ndarray] = field(default_factory=dict)
    local_marked_per_rank: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    migration_elems: Dict[Pair, np.ndarray] = field(default_factory=dict)
    migration_verts: Dict[Pair, np.ndarray] = field(default_factory=dict)
    #: coarsening handoff: (old child owner -> new parent owner) -> vertex ids
    coarsen_transfers: Dict[Pair, np.ndarray] = field(default_factory=dict)
    pre_elems_per_rank: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    rebalanced: bool = False
    imbalance_before: float = 1.0
    imbalance_after: float = 1.0
    repartition_elements: int = 0

    def once(self, fn: Callable[..., Any], *args) -> Any:
        """``fn(self, *args)``, computed on the first call and shared after.

        The memo lives in the instance ``__dict__``, not in a dataclass
        field, so equality, ``repr`` and field digests see only the
        trajectory.  Arrays in the result are made read-only.
        """
        memo = self.__dict__.setdefault("_once", {})
        key = (fn, args)
        if key not in memo:
            memo[key] = _read_only(fn(self, *args))
        return memo[key]

    def pairs_of(self, table: str, rank: int) -> Tuple[Tuple[Pair, np.ndarray], ...]:
        """The ``(pair, value)`` entries of pair table ``table`` that involve ``rank``.

        ``table`` names a ``Pair``-keyed field (``"ghost_sends"``, ...);
        the entries with ``rank`` as src or dst come in the table's own
        iteration order.
        """
        return self.once(_pairs_by_rank, table)[rank]


def _pairs_by_rank(plan: PhasePlan, table: str) -> Tuple[Tuple[Tuple[Pair, np.ndarray], ...], ...]:
    """Every rank's entries of one pair table, from a single pass over it."""
    views: List[List[Tuple[Pair, np.ndarray]]] = [[] for _ in plan.rows]
    for pair, value in getattr(plan, table).items():
        p, q = pair
        views[p].append((pair, value))
        if q != p:
            views[q].append((pair, value))
    return tuple(map(tuple, views))


def _read_only(value: Any) -> Any:
    """``value`` with every array in it (through tuples and lists) write-protected."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    return value


@dataclass
class AdaptScript:
    """The full precomputed run."""

    config: AdaptConfig
    nprocs: int
    phases: List[PhasePlan]
    max_nverts: int
    reference_checksum: float
    imbalance_trace: List[Tuple[float, float]]  # (before, after) per phase

    @property
    def total_elements_final(self) -> int:
        return self.phases[-1].nels


def _owners(tids: np.ndarray, owner: Dict[int, int]) -> np.ndarray:
    """``owner[t]`` of every id in ``tids``, as an int64 array."""
    return np.fromiter(map(owner.__getitem__, tids.tolist()), np.int64, len(tids))


def _elements(mesh) -> Tuple[np.ndarray, np.ndarray]:
    """Alive element ids (ascending) and their vertex rows, in 2-D or 3-D."""
    if isinstance(mesh, TriMesh):
        table = mesh.edges()
        return table.tids, table.verts
    tids = mesh.alive_tris()
    rows = np.asarray([mesh.tri_verts(t) for t in tids], dtype=np.int64)
    return np.asarray(tids, dtype=np.int64), rows.reshape(len(tids), -1)


def _vertex_owner(mesh: TriMesh, owner: Dict[int, int]) -> np.ndarray:
    """owner_vert[v] = min rank among owners of alive elements using v."""
    tids, verts = _elements(mesh)
    out = np.full(mesh.num_vertices, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(out, verts.ravel(), np.repeat(_owners(tids, owner), verts.shape[1]))
    out[out == np.iinfo(np.int64).max] = -1
    return out


def _elem_verts(mesh: TriMesh, owner: Dict[int, int], nprocs: int) -> List[np.ndarray]:
    """Per rank, the sorted vertex ids of its owned alive elements."""
    tids, verts = _elements(mesh)
    nv = mesh.num_vertices
    tagged = np.unique(np.repeat(_owners(tids, owner), verts.shape[1]) * nv + verts.ravel())
    cuts = np.searchsorted(tagged, np.arange(nprocs + 1) * nv)
    return [tagged[cuts[p] : cuts[p + 1]] - p * nv for p in range(nprocs)]


def _solve_plan(
    mesh: TriMesh, owner: Dict[int, int], nprocs: int, forcing_all: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], List[np.ndarray], Dict[Pair, np.ndarray]]:
    """Owner-computes decomposition of the vertex relaxation.

    A rank's *ghosts* are every non-owned vertex it must hold fresh: the
    neighbourhood of its rows (read by the relaxation stencil) **plus** all
    vertices of its owned elements (read by interpolation and carried by
    migration — a corner element may have no locally-owned vertex at all).
    """
    xadj, adjncy = vertex_csr(mesh)
    owner_vert = _vertex_owner(mesh, owner)
    elem_verts = _elem_verts(mesh, owner, nprocs)
    rows: List[np.ndarray] = []
    row_xadj: List[np.ndarray] = []
    row_adjncy: List[np.ndarray] = []
    forcing: List[np.ndarray] = []
    ghost_sends: Dict[Pair, np.ndarray] = {}
    for p in range(nprocs):
        mine = np.flatnonzero(owner_vert == p)
        rows.append(mine)
        if len(mine) == 0:
            row_xadj.append(np.zeros(1, dtype=np.int64))
            row_adjncy.append(np.zeros(0, dtype=np.int64))
            forcing.append(np.zeros(0))
            needed = elem_verts[p]
            if len(needed) == 0:
                continue
        else:
            starts = xadj[mine]
            degs = xadj[mine + 1] - starts
            rx = np.zeros(len(mine) + 1, dtype=np.int64)
            np.cumsum(degs, out=rx[1:])
            # the rows' CSR slices, gathered in one index pass
            ra = adjncy[np.arange(rx[-1]) + np.repeat(starts - rx[:-1], degs)]
            row_xadj.append(rx)
            row_adjncy.append(ra)
            forcing.append(forcing_all[mine])
            needed = np.union1d(ra, elem_verts[p])
        ghosts = needed[(owner_vert[needed] != p) & (owner_vert[needed] >= 0)]
        ghosts = np.unique(ghosts)
        for q in np.unique(owner_vert[ghosts]):
            ghost_sends[(int(q), p)] = ghosts[owner_vert[ghosts] == q]
    return rows, row_xadj, row_adjncy, forcing, ghost_sends


def _owner_of_refined(mesh: TriMesh, tid: int, owner: Dict[int, int]) -> int:
    t = tid
    while t >= 0 and t not in owner:
        t = int(mesh.parent[t])
    return owner.get(t, 0)


def build_script(
    config: AdaptConfig,
    nprocs: int,
    faults=None,
    machine_profile=None,
) -> AdaptScript:
    """Compute the full trajectory for ``config`` on ``nprocs`` processors.

    ``faults``, when it resolves to a *correlated, fault-aware* profile
    (``fault_aware=True`` with Gilbert–Elliott failure domains), switches
    PLUM into failure-aware reassignment: the profile's stationary
    per-route expectations on this run's topology (and hardware profile)
    become a link-penalty matrix that steers heavy halo pairs off flaky
    routes.  Any other value — ``None``, an i.i.d. profile, a correlated
    profile without ``fault_aware`` — leaves the trajectory bit-identical
    to the fault-blind build, which is what keeps faults-off runs (and
    fault-blind baselines) unchanged.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    link_penalty = None
    if faults is not None:
        from repro.faults import resolve_profile
        from repro.plum.faultaware import rank_penalty_matrix

        prof = resolve_profile(faults)
        if prof.fault_aware and prof.correlated:
            link_penalty = rank_penalty_matrix(
                prof, nprocs, machine_profile=machine_profile
            )
    shock = config.shock
    mesh = structured_mesh(config.mesh_n)
    balancer = PlumBalancer(
        nparts=nprocs,
        partitioner=PARTITIONERS[config.partitioner],
        policy=ImbalancePolicy(config.imbalance_threshold),
        reassigner=config.reassigner,
        link_penalty=link_penalty,
    )
    owner = balancer.initial_partition(mesh)
    phases: List[PhasePlan] = []
    imbalance_trace: List[Tuple[float, float]] = []
    prev_active = np.zeros(0, dtype=bool)  # vertex activity of the prior phase

    for k in range(config.phases):
        plan = PhasePlan(
            index=k,
            nverts=0,
            nels=0,
            elems_per_rank=np.zeros(nprocs, dtype=np.int64),
            rows=[],
            row_xadj=[],
            row_adjncy=[],
            forcing=[],
            ghost_sends={},
        )
        if k > 0:
            nv_before = mesh.num_vertices
            pre_owner = owner
            # --- adaptation (dissolve -> coarsen -> mark -> cascade refine) ---
            dissolved = dissolve_green_families(mesh)
            owner_postdissolve = inherit_ownership(mesh, pre_owner)
            coarsen_report = coarsen(mesh, shock.coarsen_candidates(mesh, k))
            owner_mid = inherit_ownership(mesh, owner_postdissolve)
            # family handoffs: when a green family dissolves or a red family
            # merges onto processor p, the children other processors owned
            # carry their vertex values to p (otherwise p may later migrate
            # a corner value it never held — a one-sweep-stale corruption)
            handoff: Dict[Pair, set] = {}
            for parent_t, family in dissolved.items():
                p_new = owner_postdissolve[parent_t]
                for child in family:
                    q_old = pre_owner.get(child, p_new)
                    if q_old != p_new:
                        handoff.setdefault((q_old, p_new), set()).update(
                            mesh.tri_verts(child)
                        )
            for parent_t, family in coarsen_report.families.items():
                p_new = owner_mid[parent_t]
                for child in family:
                    q_old = owner_postdissolve[child]
                    if q_old != p_new:
                        handoff.setdefault((q_old, p_new), set()).update(
                            mesh.tri_verts(child)
                        )
            plan.coarsen_transfers = {
                pair: np.asarray(sorted(vids), dtype=np.int64)
                for pair, vids in sorted(handoff.items())
            }
            marks = set(shock.marks(mesh, k)) | hanging_edge_marks(mesh)
            closed = close_marks(mesh, marks)
            # distributed mark agreement: marked edges on partition boundaries
            table = mesh.edges()
            eids = table.lookup(edge_keys_of(closed))
            eids = eids[eids >= 0]
            own_mid = np.full(mesh.num_all_triangles + 1, -1, dtype=np.int64)
            own_mid[table.tids] = _owners(table.tids, owner_mid)
            # a boundary edge's missing second triangle (-1) reads the -1 pad
            first, second = own_mid[table.tris[eids].T]
            straddle = (second >= 0) & (second != first)
            local_marked = np.bincount(first, minlength=nprocs) + np.bincount(
                second[straddle], minlength=nprocs
            )
            pa = np.minimum(first, second)[straddle]
            pb = np.maximum(first, second)[straddle]
            lo, hi = unpack_edge_keys(table.key[eids[straddle]])
            bmarks = _group_by_pair(pa, pb, lo * (1 << 20) + hi, nprocs)
            plan.pre_elems_per_rank = np.bincount(
                own_mid[table.tids], minlength=nprocs
            ).astype(np.int64)
            ref_report = refine_cascade(mesh, marks)
            mesh.validate()
            # interpolation triples for every *activated* vertex: brand-new
            # midpoints, plus old midpoints whose edge was re-refined after a
            # coarsening (their stored values are stale everywhere, so they
            # are re-interpolated — deterministically, in every program and
            # in the sequential reference alike)
            used_now = mesh.edges().used_vertices(mesh.num_vertices)
            mkeys, mids = mesh.midpoint_table()
            fresh = np.ones(len(mids), dtype=bool)
            known = mids < len(prev_active)
            fresh[known] = ~prev_active[mids[known]]
            act = used_now[mids] & fresh
            order = np.argsort(mids[act])
            lo, hi = unpack_edge_keys(mkeys[act][order])
            triples = list(zip(mids[act][order].tolist(), lo.tolist(), hi.tolist()))
            owner_inh = inherit_ownership(mesh, owner_mid)
            refined_per_rank = np.zeros(nprocs, dtype=np.int64)
            for parent in ref_report.families:
                refined_per_rank[_owner_of_refined(mesh, parent, owner_mid)] += 1
            # --- PLUM rebalance + migration ---
            imb_before = ImbalancePolicy.imbalance(balancer.loads(owner_inh))
            if config.rebalance:
                result = balancer.rebalance(mesh, owner_inh)
                new_owner = result.owner
                plan.rebalanced = result.rebalanced
                plan.repartition_elements = mesh.num_triangles if result.rebalanced else 0
            else:
                new_owner = owner_inh
            imb_after = ImbalancePolicy.imbalance(balancer.loads(new_owner))
            tids = mesh.edges().tids
            src, dst = _owners(tids, owner_inh), _owners(tids, new_owner)
            moved = src != dst
            plan.migration_elems = _group_by_pair(src[moved], dst[moved], tids[moved], nprocs)
            for pair, elems in plan.migration_elems.items():
                plan.migration_verts[pair] = np.unique(mesh.tris[elems]).astype(np.int64)
            owner = new_owner
            plan.interp_triples = triples
            plan.refined_per_rank = refined_per_rank
            plan.coarsened_families = coarsen_report.families_merged
            plan.mark_rounds = max(ref_report.cascade_rounds, 1)
            plan.boundary_marks = bmarks
            plan.local_marked_per_rank = local_marked
            plan.imbalance_before = imb_before
            plan.imbalance_after = imb_after
            imbalance_trace.append((imb_before, imb_after))
        else:
            plan.local_marked_per_rank = np.zeros(nprocs, dtype=np.int64)
            plan.refined_per_rank = np.zeros(nprocs, dtype=np.int64)
            plan.pre_elems_per_rank = np.zeros(nprocs, dtype=np.int64)
            imbalance_trace.append((1.0, ImbalancePolicy.imbalance(balancer.loads(owner))))

        # --- solve decomposition for this phase ---
        coords = mesh.verts_array()
        forcing_all = shock.field(k, coords)
        rows, rx, ra, forcing, ghost_sends = _solve_plan(mesh, owner, nprocs, forcing_all)
        plan.nverts = mesh.num_vertices
        plan.nels = mesh.num_triangles
        plan.elems_per_rank = np.bincount(
            _owners(mesh.edges().tids, owner), minlength=nprocs
        ).astype(np.int64)
        plan.rows = rows
        plan.row_xadj = rx
        plan.row_adjncy = ra
        plan.forcing = forcing
        plan.ghost_sends = ghost_sends
        prev_active = np.zeros(mesh.num_vertices, dtype=bool)
        for r in rows:
            prev_active[r] = True
        phases.append(plan)

    reference = _sequential_reference(config, phases)
    return AdaptScript(
        config=config,
        nprocs=nprocs,
        phases=phases,
        max_nverts=max(p.nverts for p in phases),
        reference_checksum=reference,
        imbalance_trace=imbalance_trace,
    )


def _group_by_pair(
    src: np.ndarray, dst: np.ndarray, values: np.ndarray, nprocs: int
) -> Dict[Pair, np.ndarray]:
    """``(src, dst) -> sorted values`` for each pair present, pairs ascending."""
    pair = src * nprocs + dst
    order = np.lexsort((values, pair))
    pair, values = pair[order], np.asarray(values, dtype=np.int64)[order]
    cuts = np.flatnonzero(np.diff(pair)) + 1
    return {
        divmod(int(pair[a]), nprocs): values[a:b]
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(pair)])
        if b > a
    }


def _sequential_reference(config: AdaptConfig, phases: List[PhasePlan]) -> float:
    """Replay the numerics sequentially; returns the final checksum.

    Because Jacobi is order-independent, every model implementation must
    reproduce this value exactly.
    """
    u = np.zeros(phases[0].nverts)
    for plan in phases:
        if plan.index > 0:
            u = interpolate_new_vertices(u, plan.interp_triples, plan.nverts)
        for _ in range(config.solver_iters):
            updates = []
            for p in range(len(plan.rows)):
                if len(plan.rows[p]) == 0:
                    updates.append(np.zeros(0))
                    continue
                updates.append(
                    jacobi_sweep(
                        u,
                        plan.row_xadj[p],
                        plan.row_adjncy[p],
                        plan.rows[p],
                        plan.forcing[p],
                        omega=config.omega,
                    )
                )
            for p, vals in enumerate(updates):
                u[plan.rows[p]] = vals
    last = phases[-1]
    return float(sum(u[r].sum() for r in last.rows))
