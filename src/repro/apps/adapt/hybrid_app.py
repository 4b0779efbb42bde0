"""The adaptive-mesh application under the hybrid model.

MPI between nodes, shared memory within: the irregular phases (mark
agreement, coarsening handoff, migration) stay message-passing — they are
rare and latency-tolerant — but the hot per-sweep halo exchange is split
by the node map.  Ghost values whose producer and consumer share a node
card cross through a shared solution board (two cheap node barriers and
coherence misses instead of send/recv overhead); only node-crossing pairs
pay MPI per-message costs.  Barriers are hierarchical (node fan-in, a
leaders-only MPI barrier, fan-out).

Numerics are untouched — the checksum is bit-identical to the sequential
reference like every other model implementation.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.apps.adapt.script import AdaptScript
from repro.solver.kernels import jacobi_sweep, residual_norm

__all__ = ["adapt_hybrid"]

TAG_MARKS = 11
TAG_MIGRATE = 12
TAG_HALO = 13
TAG_COARSEN = 14
_MARK_FLOPS = 6
_INTERP_FLOPS = 4


def adapt_hybrid(ctx, script: AdaptScript) -> Generator:
    """One rank of the hybrid implementation; returns the global checksum."""
    cfg = script.config
    mcfg = ctx.machine.config
    me = ctx.rank
    cpn = mcfg.cpus_per_node
    u = np.zeros(script.max_nverts)
    mpi = ctx.mpi

    yield from ctx.setup_leaders()
    # node-shared solution board, indexed by global vertex id: producers of
    # intra-node ghosts publish here instead of sending messages
    board = ctx.shalloc("halo_board", (script.max_nverts,), np.float64)

    def same_node(p: int, q: int) -> bool:
        return p // cpn == q // cpn

    for plan in script.phases:
        if plan.index > 0:
            # ---------------- adaptation (message-passing, as in MPI) -----
            ctx.phase_begin("adapt")
            yield from ctx.compute(
                plan.pre_elems_per_rank[me] * _MARK_FLOPS * mcfg.flop_ns
            )
            for _ in range(plan.mark_rounds):
                sends, recvs = [], []
                for (p, q), ids in plan.pairs_of("boundary_marks", me):
                    if p == me:
                        r = yield from mpi.isend(ids, q, tag=TAG_MARKS)
                        sends.append(r)
                        r = yield from mpi.irecv(q, tag=TAG_MARKS)
                        recvs.append(r)
                    elif q == me:
                        r = yield from mpi.isend(ids, p, tag=TAG_MARKS)
                        sends.append(r)
                        r = yield from mpi.irecv(p, tag=TAG_MARKS)
                        recvs.append(r)
                if sends:
                    yield from mpi.waitall(sends + recvs)
            yield from ctx.compute(plan.refined_per_rank[me] * mcfg.mesh_op_ns)
            sends, recvs, rverts = [], [], []
            for (p, q), verts in plan.pairs_of("coarsen_transfers", me):
                if p == me:
                    r = yield from mpi.isend(u[verts], q, tag=TAG_COARSEN)
                    sends.append(r)
                if q == me:
                    r = yield from mpi.irecv(p, tag=TAG_COARSEN)
                    recvs.append(r)
                    rverts.append(verts)
            if sends or recvs:
                got = yield from mpi.waitall(recvs + sends)
                for verts, vals in zip(rverts, got[: len(recvs)]):
                    u[verts] = vals
            if plan.interp_triples:
                t = np.asarray(plan.interp_triples, dtype=np.int64)
                u[t[:, 0]] = 0.5 * (u[t[:, 1]] + u[t[:, 2]])
                yield from ctx.compute(len(t) * _INTERP_FLOPS * mcfg.flop_ns)
            ctx.phase_end()

            # ---------------- PLUM rebalance ----------------
            ctx.phase_begin("balance")
            if plan.rebalanced:
                yield from ctx.compute(
                    plan.repartition_elements / ctx.nprocs * mcfg.partition_op_ns
                )
                owner_blob = np.zeros(plan.nels, dtype=np.int64)
                yield from mpi.bcast(owner_blob, root=0)
            sends, recvs = [], []
            for (p, q), elems in plan.pairs_of("migration_elems", me):
                verts = plan.migration_verts[(p, q)]
                if p == me:
                    payload = {"elems": elems, "verts": verts, "vals": u[verts]}
                    nbytes = len(elems) * cfg.element_bytes + len(verts) * 16
                    r = yield from mpi.isend(payload, q, tag=TAG_MIGRATE, nbytes=nbytes)
                    sends.append(r)
                if q == me:
                    r = yield from mpi.irecv(p, tag=TAG_MIGRATE)
                    recvs.append(r)
            got = yield from mpi.waitall(recvs + sends)
            for payload in got[: len(recvs)]:
                u[payload["verts"]] = payload["vals"]
            yield from ctx.global_barrier()
            ctx.phase_end()

        # ---------------- solve ----------------
        ctx.phase_begin("solve")
        rows = plan.rows[me]
        # split each direction of the halo by the node map
        halo = plan.pairs_of("ghost_sends", me)
        msg_sends = sorted(
            (q, ids) for (p, q), ids in halo if p == me and not same_node(p, q)
        )
        msg_recvs = sorted(
            (p, ids) for (p, q), ids in halo if q == me and not same_node(p, q)
        )
        shared_recvs = sorted(
            (p, ids) for (p, q), ids in halo
            if q == me and p != me and same_node(p, q)
        )
        out_ids = [
            ids for (p, q), ids in halo if p == me and q != me and same_node(p, q)
        ]
        shared_out = (
            np.unique(np.concatenate(out_ids)) if out_ids
            else np.zeros(0, dtype=np.int64)
        )

        def halo_exchange():
            """Messages across nodes, the shared board within them."""
            if len(shared_out):
                board.data[shared_out] = u[shared_out]
                yield from ctx.sas.stouch_idx(board, shared_out, write=True)
            reqs, rtags = [], []
            for q, ids in msg_recvs:
                r = yield from mpi.irecv(q, tag=TAG_HALO)
                reqs.append(r)
                rtags.append(ids)
            for q, ids in msg_sends:
                r = yield from mpi.isend(u[ids], q, tag=TAG_HALO)
                reqs.append(r)
            got = yield from mpi.waitall(reqs)
            for ids, vals in zip(rtags, got[: len(rtags)]):
                u[ids] = vals
            # producers published before this barrier; readers pull after it
            yield from ctx.node_barrier()
            for _, ids in shared_recvs:
                yield from ctx.sas.stouch_idx(board, ids, write=False)
                u[ids] = board.data[ids]
            # nobody overwrites the board until every peer has read it
            yield from ctx.node_barrier()

        yield from halo_exchange()
        for _ in range(cfg.solver_iters):
            if len(rows):
                new = jacobi_sweep(
                    u, plan.row_xadj[me], plan.row_adjncy[me], rows,
                    plan.forcing[me], omega=cfg.omega,
                )
                res = residual_norm(new, u[rows])
                u[rows] = new
            else:
                res = 0.0
            yield from ctx.compute(len(plan.row_adjncy[me]) * mcfg.edge_update_ns)
            yield from halo_exchange()
            yield from ctx.allreduce(res)
        ctx.phase_end()

    local = float(u[plan.rows[me]].sum()) if len(plan.rows[me]) else 0.0
    checksum = yield from ctx.allreduce(local)
    return checksum
