"""The PLUM orchestrator: monitor → repartition → reassign → report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.mesh.mesh2d import TriMesh
from repro.mesh.mesh3d import TetMesh
from repro.partition import mesh_dual_graph, multilevel
from repro.partition.graph import check_nparts
from repro.partition.metrics import partition_summary
from repro.plum.cost import RemapCost, remap_cost
from repro.plum.policy import ImbalancePolicy
from repro.plum.remap import apply_assignment, reassign_greedy, reassign_optimal, similarity_matrix

__all__ = ["PlumBalancer", "RebalanceResult"]


@dataclass
class RebalanceResult:
    """Outcome of one :meth:`PlumBalancer.rebalance` call."""

    rebalanced: bool
    imbalance_before: float
    imbalance_after: float
    owner: Dict[int, int]
    cost: Optional[RemapCost] = None
    edge_cut: Optional[float] = None
    #: fault-weighted cut of the chosen assignment, and what the
    #: fault-blind assignment would have cost (set only when the balancer
    #: holds a link-penalty matrix)
    fault_cut: Optional[float] = None
    fault_cut_blind: Optional[float] = None


class PlumBalancer:
    """Load balancing for one adaptive run.

    ``partitioner(graph, nparts)`` is any k-way partitioner from
    :mod:`repro.partition`; ``reassigner`` is ``"greedy"`` (PLUM's
    heuristic) or ``"optimal"`` (Hungarian).

    ``link_penalty``, when given, is an ``nparts x nparts`` matrix of
    expected per-message fault cost between processors (see
    :func:`repro.plum.faultaware.rank_penalty_matrix`); the part ->
    processor assignment is then refined to keep heavy-talking partition
    pairs off flaky routes, trading a bounded amount of extra migration
    (``fault_move_weight``) for cleaner halo traffic.  ``None`` — the
    default — leaves every code path exactly as fault-blind PLUM.
    """

    def __init__(
        self,
        nparts: int,
        partitioner: Callable = multilevel,
        policy: Optional[ImbalancePolicy] = None,
        reassigner: str = "greedy",
        link_penalty: Optional[np.ndarray] = None,
        fault_move_weight: float = 0.5,
    ):
        nparts = check_nparts(nparts)
        if reassigner not in ("greedy", "optimal"):
            raise ValueError(f"unknown reassigner {reassigner!r}")
        if link_penalty is not None:
            link_penalty = np.asarray(link_penalty, dtype=np.float64)
            if link_penalty.shape != (nparts, nparts):
                raise ValueError(
                    f"link_penalty must be {nparts}x{nparts}, "
                    f"got {link_penalty.shape}"
                )
        self.nparts = nparts
        self.partitioner = partitioner
        self.policy = policy or ImbalancePolicy()
        self.reassigner = reassigner
        self.link_penalty = link_penalty
        self.fault_move_weight = fault_move_weight
        self.history: List[RebalanceResult] = []

    # -- pieces ---------------------------------------------------------------

    def loads(self, owner: Dict[int, int], weights: Optional[Dict[int, float]] = None) -> np.ndarray:
        """Per-processor load implied by an ownership map.

        Every owner must be a processor in ``[0, nparts)``; otherwise a
        ``ValueError`` names the first element that has another owner.
        """
        parts = np.fromiter(owner.values(), dtype=np.int64, count=len(owner))
        bad = (parts < 0) | (parts >= self.nparts)
        if bad.any():
            tid = list(owner)[int(np.argmax(bad))]
            raise ValueError(
                f"element {tid} has owner {owner[tid]}, outside processors "
                f"[0, {self.nparts})"
            )
        w = None
        if weights is not None:
            w = np.fromiter((weights.get(t, 1.0) for t in owner), dtype=np.float64,
                            count=len(owner))
        # bincount adds each element's weight in order, as a loop would
        return np.bincount(parts, weights=w, minlength=self.nparts).astype(np.float64)

    def initial_partition(self, mesh: Union[TriMesh, TetMesh]) -> Dict[int, int]:
        """Partition a fresh triangular or tetrahedral mesh (no reassignment needed).

        With a link-penalty matrix, the fresh part labels are still
        permuted onto processors fault-aware: nothing has owners yet, so
        the swap search is pure fault-cut minimisation at zero cost.
        """
        graph, tids = mesh_dual_graph(mesh)
        part = self.partitioner(graph, self.nparts)
        if self.link_penalty is not None:
            from repro.plum.faultaware import comm_matrix, refine_assignment
            from repro.plum.remap import apply_assignment

            comm = comm_matrix(graph, part, self.nparts)
            assign = refine_assignment(
                np.arange(self.nparts, dtype=np.int64),
                np.zeros((self.nparts, self.nparts)),
                comm,
                self.link_penalty,
                move_weight=0.0,
            )
            part = apply_assignment(part, assign)
        return {tid: int(p) for tid, p in zip(tids, part)}

    # -- the main entry point ---------------------------------------------------

    def rebalance(
        self,
        mesh: Union[TriMesh, TetMesh],
        owner: Dict[int, int],
        weights: Optional[Dict[int, float]] = None,
        force: bool = False,
    ) -> RebalanceResult:
        """Rebalance ownership of the alive elements of ``mesh``.

        ``owner`` maps every alive element id to its current processor
        (new elements inherit their parent's owner before calling this —
        see :func:`inherit_ownership`).  Returns the (possibly unchanged)
        ownership and the remap cost actually incurred.
        """
        alive = mesh.alive_tris()
        missing = [t for t in alive if t not in owner]
        if missing:
            raise KeyError(f"{len(missing)} alive elements lack owners, e.g. {missing[:5]}")
        before = self.policy.imbalance(self.loads({t: owner[t] for t in alive}, weights))
        if not force and before <= self.policy.threshold:
            result = RebalanceResult(
                rebalanced=False,
                imbalance_before=before,
                imbalance_after=before,
                owner=dict(owner),
            )
            self.history.append(result)
            return result

        wmap = weights or {}
        graph, tids = mesh_dual_graph(mesh, weights=weights)
        part = self.partitioner(graph, self.nparts)
        current = np.asarray([owner[t] for t in tids], dtype=np.int64)
        w = np.asarray([wmap.get(t, 1.0) for t in tids])
        S = similarity_matrix(current, part, w, self.nparts)
        assign = reassign_greedy(S) if self.reassigner == "greedy" else reassign_optimal(S)
        fault_cut = fault_cut_blind = None
        if self.link_penalty is not None:
            from repro.plum.faultaware import (
                comm_matrix,
                penalised_cut,
                refine_assignment,
            )

            comm = comm_matrix(graph, part, self.nparts)
            fault_cut_blind = penalised_cut(comm, self.link_penalty, assign)
            assign = refine_assignment(
                assign, S, comm, self.link_penalty,
                move_weight=self.fault_move_weight,
            )
            fault_cut = penalised_cut(comm, self.link_penalty, assign)
        new_owner_arr = apply_assignment(part, assign)
        cost = remap_cost(current, new_owner_arr, w, self.nparts)
        new_owner = {tid: int(p) for tid, p in zip(tids, new_owner_arr)}
        after = self.policy.imbalance(self.loads(new_owner, weights))
        summary = partition_summary(graph, part, self.nparts)
        result = RebalanceResult(
            rebalanced=True,
            imbalance_before=before,
            imbalance_after=after,
            owner=new_owner,
            cost=cost,
            edge_cut=summary.edge_cut,
            fault_cut=fault_cut,
            fault_cut_blind=fault_cut_blind,
        )
        self.history.append(result)
        return result


def inherit_ownership(mesh: Union[TriMesh, TetMesh], owner: Dict[int, int]) -> Dict[int, int]:
    """Extend an ownership map to cover exactly the alive elements.

    The elements are triangles or tetrahedra.  Refined elements inherit
    their nearest owned *ancestor*'s processor; coarsened (revived)
    parents inherit from an owned *descendant* (the majority owner among
    their most recent children).  Entries for dead elements are dropped.
    """
    parent = np.asarray(mesh.parent).tolist()
    kids: Optional[Dict[int, List[int]]] = None
    out: Dict[int, int] = {}
    for tid in mesh.alive_tris():
        found = owner.get(tid)
        if found is not None:
            out[tid] = found
            continue
        if kids is None:
            kids = {}
            for t, p in enumerate(parent):
                if p >= 0:
                    kids.setdefault(p, []).append(t)
        # walk up the ancestry; at each unowned ancestor, poll its owned
        # descendants (covers revived-then-resplit families, where the
        # nearest owners are the *previous* children of an ancestor)
        t = tid
        while t >= 0:
            if t in owner:
                found = owner[t]
                break
            found = _descendant_owner(t, owner, kids)
            if found is not None:
                break
            t = parent[t]
        if found is None:
            raise KeyError(f"element {tid} has no owned ancestor or descendant")
        out[tid] = found
    return out


def _descendant_owner(tid: int, owner: Dict[int, int], kids: Dict[int, List[int]]) -> Optional[int]:
    """Majority owner among the owned historical descendants of ``tid``."""
    votes: Dict[int, int] = {}
    queue = list(kids.get(tid, ()))
    while queue:
        t = queue.pop()
        p = owner.get(t)
        if p is not None:
            votes[p] = votes.get(p, 0) + 1
        else:
            queue.extend(kids.get(t, ()))
    if not votes:
        return None
    return max(sorted(votes), key=lambda p: votes[p])
