"""Precomputed trajectory of one adaptive run (model-independent).

For a given workload and processor count, everything *structural* about the
run is deterministic and identical under all three programming models: how
the mesh refines and coarsens, which processor owns which element, which
elements migrate at each rebalance, which vertex values cross each
partition boundary.  :func:`build_script` computes that trajectory once;
the per-model programs replay it, doing the real numerics for their own
ranks and paying their model's communication costs with real payloads.

One phase loop builds the trajectory of both the triangular (2-D) and the
tetrahedral (3-D) application.  What differs by dimension — the
structured-mesh generator, green dissolution, coarsening passes, mark
closure and the refinement cascade — is a small per-dimension table of
mesh operations (``_TRIANGLES``, ``_TETRAHEDRA``); ownership, handoffs,
boundary marks, migration, the solve plan and the sequential reference
are derived once from the alive elements, whatever their kind.

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
from typing import Any, Callable, Dict, List, Set, Tuple, Union

import numpy as np

from repro.apps.adapt.common import AdaptConfig
from repro.apps.adapt3d.common import Adapt3DConfig
from repro.mesh.coarsen import coarsen
from repro.mesh.coarsen3d import coarsen3d
from repro.mesh.generator import structured_mesh
from repro.mesh.generator3d import structured_tet_mesh
from repro.mesh.mesh2d import TriMesh, edge_keys_of, unpack_edge_keys
from repro.mesh.mesh3d import TetMesh
from repro.mesh.refine import (
    close_marks,
    dissolve_green_families,
    hanging_edge_marks,
    refine_cascade,
)
from repro.mesh.refine3d import (
    close_marks3d,
    dissolve_green_families3d,
    hanging_edge_marks3d,
    refine_closed3d,
)
from repro.partition import PARTITIONERS
from repro.plum.balancer import PlumBalancer, inherit_ownership
from repro.plum.policy import ImbalancePolicy
from repro.solver.kernels import interpolate_new_vertices, jacobi_sweep, vertex_csr

__all__ = ["PhasePlan", "AdaptScript", "build_script"]

Pair = Tuple[int, int]
Mesh = Union[TriMesh, TetMesh]
Config = Union[AdaptConfig, Adapt3DConfig]


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

    config: Config
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


def _elements(mesh: Mesh) -> Tuple[np.ndarray, np.ndarray]:
    """Alive element ids (ascending) and their vertex rows, in 2-D or 3-D."""
    if isinstance(mesh, TriMesh):
        table = mesh.edges()
        return table.tids, table.verts
    tids = mesh.alive_tris()
    rows = np.asarray([mesh.tri_verts(t) for t in tids], dtype=np.int64)
    return np.asarray(tids, dtype=np.int64), rows.reshape(len(tids), -1)


def _vertex_owner(mesh: Mesh, owner: Dict[int, int]) -> np.ndarray:
    """owner_vert[v] = min rank among owners of alive elements (triangles
    or tetrahedra) using v."""
    tids, verts = _elements(mesh)
    out = np.full(mesh.num_vertices, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(out, verts.ravel(), np.repeat(_owners(tids, owner), verts.shape[1]))
    out[out == np.iinfo(np.int64).max] = -1
    return out


def _elem_verts(mesh: Mesh, owner: Dict[int, int], nprocs: int) -> List[np.ndarray]:
    """Per rank, the sorted vertex ids of its owned alive elements (of
    either mesh kind)."""
    tids, verts = _elements(mesh)
    nv = mesh.num_vertices
    tagged = np.unique(np.repeat(_owners(tids, owner), verts.shape[1]) * nv + verts.ravel())
    cuts = np.searchsorted(tagged, np.arange(nprocs + 1) * nv)
    return [tagged[cuts[p] : cuts[p + 1]] - p * nv for p in range(nprocs)]


def _solve_plan(
    mesh: Mesh, owner: Dict[int, int], nprocs: int, forcing_all: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], List[np.ndarray], Dict[Pair, np.ndarray]]:
    """Owner-computes decomposition of the vertex relaxation, on a
    triangular or a tetrahedral mesh.

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


def _owner_of_refined(mesh: Mesh, tid: int, owner: Dict[int, int]) -> int:
    t = tid
    while t >= 0 and t not in owner:
        t = int(mesh.parent[t])
    return owner.get(t, 0)


@dataclass(frozen=True)
class _MeshOps:
    """The mesh operations of one adaptation phase, per element kind.

    Each entry looks its function up when called, so a hook on a module
    name (the bench tracer, the mesh-golden recorder) sees every call.
    """

    structured: Callable[[int], Mesh]
    #: mesh -> {revived parent: its dissolved green children}
    dissolve: Callable[[Mesh], Dict[int, Tuple[int, ...]]]
    #: one coarsening pass over candidate ids; the report has ``families``
    coarsen: Callable[[Mesh, Set[int]], Any]
    #: passes, each on re-evaluated candidates, while one still merges
    coarsen_passes: int
    hanging_marks: Callable[[Mesh], Set[Tuple[int, int]]]
    close: Callable[[Mesh, Set[Tuple[int, int]]], Set[Tuple[int, int]]]
    #: refine to a conforming mesh; the report has ``families``, ``cascade_rounds``
    refine: Callable[[Mesh, Set[Tuple[int, int]]], Any]


_TRIANGLES = _MeshOps(
    structured=lambda n: structured_mesh(n),
    dissolve=lambda mesh: dissolve_green_families(mesh),
    coarsen=lambda mesh, candidates: coarsen(mesh, candidates),
    coarsen_passes=1,
    hanging_marks=lambda mesh: hanging_edge_marks(mesh),
    close=lambda mesh, marks: close_marks(mesh, marks),
    refine=lambda mesh, marks: refine_cascade(mesh, marks),
)

_TETRAHEDRA = _MeshOps(
    structured=lambda n: structured_tet_mesh(n),
    dissolve=lambda mesh: dissolve_green_families3d(mesh),
    # non-strict: the refinement below re-closes the exposed interfaces,
    # with the in-phase hanging-node closure loop
    coarsen=lambda mesh, candidates: coarsen3d(mesh, candidates, strict=False),
    coarsen_passes=3,
    hanging_marks=lambda mesh: hanging_edge_marks3d(mesh),
    close=lambda mesh, marks: close_marks3d(mesh, marks),
    refine=lambda mesh, marks: refine_closed3d(mesh, marks),
)

_MESH_OPS = {AdaptConfig: _TRIANGLES, Adapt3DConfig: _TETRAHEDRA}


def build_script(
    config: Config,
    nprocs: int,
    faults=None,
    machine_profile=None,
) -> AdaptScript:
    """Compute the full trajectory for ``config`` on ``nprocs`` processors.

    The config's type picks the mesh: an :class:`AdaptConfig` adapts
    triangles, an :class:`~repro.apps.adapt3d.common.Adapt3DConfig`
    tetrahedra, through one phase loop.

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
    ops = _MESH_OPS.get(type(config))
    if ops is None:
        raise TypeError(
            f"build_script needs an AdaptConfig or an Adapt3DConfig, got {type(config).__name__}"
        )
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
    mesh = ops.structured(config.mesh_n)
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
            pre_owner = owner
            # --- adaptation (dissolve -> coarsen -> mark -> cascade refine) ---
            dissolved = ops.dissolve(mesh)
            owner_mid = inherit_ownership(mesh, pre_owner)
            # family handoffs: when a green family dissolves or a red family
            # merges onto processor p, the children other processors owned
            # carry their vertex values to p (otherwise p may later migrate
            # a corner value it never held — a one-sweep-stale corruption)
            handoff: Dict[Pair, set] = {}
            _hand_off(handoff, mesh, dissolved, pre_owner, owner_mid)
            merged = 0
            for _ in range(ops.coarsen_passes):
                report = ops.coarsen(mesh, shock.coarsen_candidates(mesh, k))
                if not report.families_merged:
                    break
                merged += report.families_merged
                owner_next = inherit_ownership(mesh, owner_mid)
                _hand_off(handoff, mesh, report.families, owner_mid, owner_next)
                owner_mid = owner_next
            plan.coarsen_transfers = {
                pair: np.asarray(sorted(vids), dtype=np.int64)
                for pair, vids in sorted(handoff.items())
            }
            marks = set(shock.marks(mesh, k)) | ops.hanging_marks(mesh)
            closed = ops.close(mesh, marks)
            # distributed mark agreement: marked edges on partition boundaries
            tids, verts = _elements(mesh)
            own_mid = _owners(tids, owner_mid)
            plan.boundary_marks, plan.local_marked_per_rank = _boundary_marks(
                closed, verts, own_mid, nprocs
            )
            plan.pre_elems_per_rank = np.bincount(own_mid, minlength=nprocs).astype(np.int64)
            ref_report = ops.refine(mesh, marks)
            mesh.validate()
            tids, verts = _elements(mesh)
            # interpolation triples for every *activated* vertex: brand-new
            # midpoints, plus old midpoints whose edge was re-refined after a
            # coarsening (their stored values are stale everywhere, so they
            # are re-interpolated — deterministically, in every program and
            # in the sequential reference alike)
            used_now = np.zeros(mesh.num_vertices, dtype=bool)
            used_now[verts] = True
            mkeys, mids = mesh.midpoint_table()
            fresh = np.ones(len(mids), dtype=bool)
            known = mids < len(prev_active)
            fresh[known] = ~prev_active[mids[known]]
            act = used_now[mids] & fresh
            order = np.argsort(mids[act])
            lo, hi = unpack_edge_keys(mkeys[act][order])
            plan.interp_triples = list(zip(mids[act][order].tolist(), lo.tolist(), hi.tolist()))
            owner_inh = inherit_ownership(mesh, owner_mid)
            plan.refined_per_rank = np.zeros(nprocs, dtype=np.int64)
            for parent in ref_report.families:
                plan.refined_per_rank[_owner_of_refined(mesh, parent, owner_mid)] += 1
            # --- PLUM rebalance + migration ---
            imb_before = ImbalancePolicy.imbalance(balancer.loads(owner_inh))
            if config.rebalance:
                result = balancer.rebalance(mesh, owner_inh)
                new_owner = result.owner
                plan.rebalanced = result.rebalanced
                plan.repartition_elements = len(tids) if result.rebalanced else 0
            else:
                new_owner = owner_inh
            imb_after = ImbalancePolicy.imbalance(balancer.loads(new_owner))
            src, dst = _owners(tids, owner_inh), _owners(tids, new_owner)
            moved = np.flatnonzero(src != dst)
            for pair, at in _group_by_pair(src[moved], dst[moved], moved, nprocs).items():
                plan.migration_elems[pair] = tids[at]
                plan.migration_verts[pair] = np.unique(verts[at])
            owner = new_owner
            plan.coarsened_families = merged
            plan.mark_rounds = max(ref_report.cascade_rounds, 1)
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
        tids, _ = _elements(mesh)
        plan.nverts = mesh.num_vertices
        plan.nels = len(tids)
        plan.elems_per_rank = np.bincount(_owners(tids, owner), minlength=nprocs).astype(np.int64)
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


def _hand_off(
    handoff: Dict[Pair, set],
    mesh: Mesh,
    families: Dict[int, Tuple[int, ...]],
    before: Dict[int, int],
    after: Dict[int, int],
) -> None:
    """Add to ``handoff`` the vertices each family's children carry to its parent's owner.

    ``before`` owned the children, ``after`` owns the revived parent.
    """
    for parent, family in families.items():
        p_new = after[parent]
        for child in family:
            q_old = before.get(child, p_new)
            if q_old != p_new:
                handoff.setdefault((q_old, p_new), set()).update(mesh.tri_verts(child))


def _boundary_marks(
    closed: Set[Tuple[int, int]], verts: np.ndarray, own: np.ndarray, nprocs: int
) -> Tuple[Dict[Pair, np.ndarray], np.ndarray]:
    """Partition-boundary agreement on the closed mark set.

    ``verts`` are the alive elements' vertex rows and ``own`` their
    owners.  A closed edge ``(lo, hi)`` counts once for each distinct rank
    owning an element on it, and every pair of those ranks exchanges its
    id ``lo * 2**20 + hi`` (vertex ids below ``2**20``, as that id format
    already needs).  Returns ``(pair -> ids, marked edges per rank)``.
    """
    a, b = np.triu_indices(verts.shape[1], 1)
    lo = np.minimum(verts[:, a], verts[:, b])
    hi = np.maximum(verts[:, a], verts[:, b])
    hit = np.isin((lo << 32) | hi, edge_keys_of(closed))
    # one tag per (marked edge, owning rank): ascending by edge, then rank
    owners = np.broadcast_to(own[:, None], hit.shape)
    edge, rank = np.divmod(np.unique(((lo << 20) + hi)[hit] * nprocs + owners[hit]), nprocs)
    # pair each rank on an edge with every later one, ``d`` tags apart
    src, dst, ids = [rank[:0]], [rank[:0]], [edge[:0]]
    for d in range(1, len(edge)):
        same = edge[d:] == edge[:-d]
        if not same.any():
            break
        src.append(rank[:-d][same])
        dst.append(rank[d:][same])
        ids.append(edge[d:][same])
    marks = _group_by_pair(np.concatenate(src), np.concatenate(dst), np.concatenate(ids), nprocs)
    return marks, np.bincount(rank, minlength=nprocs)


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


def _sequential_reference(config: Config, phases: List[PhasePlan]) -> float:
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
