"""The adaptive-mesh application under MPI (message passing).

Everything is explicit: each rank keeps its own copy of the solution for
the vertices it owns (plus ghosts), exchanges halo values with two-sided
messages every relaxation sweep, agrees on boundary edge marks with
explicit exchange rounds, and physically migrates element payloads when
PLUM rebalances.  This is by far the longest of the three implementations —
the programming-effort comparison of experiment R-T3 measures exactly that.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.apps.adapt.script import AdaptScript
from repro.solver.kernels import jacobi_sweep, residual_norm

__all__ = ["adapt_mpi"]

TAG_MARKS = 11
TAG_MIGRATE = 12
TAG_HALO = 13
TAG_COARSEN = 14
_MARK_FLOPS = 6       # indicator evaluation per element edge-scan
_INTERP_FLOPS = 4     # midpoint average per new vertex


def adapt_mpi(ctx, script: AdaptScript) -> Generator:
    """One rank of the MPI implementation; returns the global checksum."""
    cfg = script.config
    mcfg = ctx.machine.config
    me = ctx.rank
    u = np.zeros(script.max_nverts)
    checksum = 0.0

    for plan in script.phases:
        if plan.index > 0:
            # ---------------- adaptation ----------------
            ctx.phase_begin("adapt")
            # evaluate the error indicator over my elements
            yield from ctx.compute(
                plan.pre_elems_per_rank[me] * _MARK_FLOPS * mcfg.flop_ns
            )
            # agree on boundary-edge marks: one exchange per cascade round
            for rnd in range(plan.mark_rounds):
                sends, recvs = [], []
                for (p, q), ids in plan.pairs_of("boundary_marks", me):
                    if p == me:
                        r = yield from ctx.isend(ids, q, tag=TAG_MARKS)
                        sends.append(r)
                        r = yield from ctx.irecv(q, tag=TAG_MARKS)
                        recvs.append(r)
                    elif q == me:
                        r = yield from ctx.isend(ids, p, tag=TAG_MARKS)
                        sends.append(r)
                        r = yield from ctx.irecv(p, tag=TAG_MARKS)
                        recvs.append(r)
                if sends:
                    yield from ctx.waitall(sends + recvs)
            # subdivide my elements
            yield from ctx.compute(plan.refined_per_rank[me] * mcfg.mesh_op_ns)
            # coarsening handoff: a merged family's new owner collects the
            # vertex values its former co-owners held
            sends, recvs, rverts = [], [], []
            for (p, q), verts in plan.pairs_of("coarsen_transfers", me):
                if p == me:
                    r = yield from ctx.isend(u[verts], q, tag=TAG_COARSEN)
                    sends.append(r)
                if q == me:
                    r = yield from ctx.irecv(p, tag=TAG_COARSEN)
                    recvs.append(r)
                    rverts.append(verts)
            if sends or recvs:
                got = yield from ctx.waitall(recvs + sends)
                for verts, vals in zip(rverts, got[: len(recvs)]):
                    u[verts] = vals
            # interpolate solution onto the new vertices (all pre-phase
            # endpoints, so this vectorises)
            if plan.interp_triples:
                t = np.asarray(plan.interp_triples, dtype=np.int64)
                u[t[:, 0]] = 0.5 * (u[t[:, 1]] + u[t[:, 2]])
                yield from ctx.compute(len(t) * _INTERP_FLOPS * mcfg.flop_ns)
            ctx.phase_end()

            # ---------------- PLUM rebalance ----------------
            ctx.phase_begin("balance")
            if plan.rebalanced:
                # parallel repartitioning (PLUM runs it on all processors),
                # then the new element map is made globally known
                yield from ctx.compute(
                    plan.repartition_elements / ctx.nprocs * mcfg.partition_op_ns
                )
                owner_blob = np.zeros(plan.nels, dtype=np.int64)
                yield from ctx.bcast(owner_blob, root=0)
            # migrate element payloads (connectivity + state + vertex values)
            sends, recvs = [], []
            for (p, q), elems in plan.pairs_of("migration_elems", me):
                verts = plan.migration_verts[(p, q)]
                if p == me:
                    payload = {"elems": elems, "verts": verts, "vals": u[verts]}
                    nbytes = len(elems) * cfg.element_bytes + len(verts) * 16
                    r = yield from ctx.isend(payload, q, tag=TAG_MIGRATE, nbytes=nbytes)
                    sends.append(r)
                if q == me:
                    r = yield from ctx.irecv(p, tag=TAG_MIGRATE)
                    recvs.append(r)
            got = yield from ctx.waitall(recvs + sends)
            for payload in got[: len(recvs)]:
                u[payload["verts"]] = payload["vals"]
            yield from ctx.barrier()
            ctx.phase_end()

        # ---------------- solve ----------------
        ctx.phase_begin("solve")
        rows = plan.rows[me]
        halo = plan.pairs_of("ghost_sends", me)
        my_sends = sorted((q, ids) for (p, q), ids in halo if p == me)
        my_recvs = sorted((p, ids) for (p, q), ids in halo if q == me)

        def halo_exchange():
            """Send my fresh owned values out, pull ghost updates in."""
            reqs, rtags = [], []
            for q, ids in my_recvs:
                r = yield from ctx.irecv(q, tag=TAG_HALO)
                reqs.append(r)
                rtags.append(ids)
            for q, ids in my_sends:
                r = yield from ctx.isend(u[ids], q, tag=TAG_HALO)
                reqs.append(r)
            got = yield from ctx.waitall(reqs)
            for ids, vals in zip(rtags, got[: len(rtags)]):
                u[ids] = vals

        # refresh ghosts for the (possibly new) decomposition, then sweep;
        # exchanging *after* each update keeps ghosts fresh for the next
        # phase's interpolation and migration as well
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
            # global convergence check
            yield from ctx.allreduce(res)
        ctx.phase_end()

    local = float(u[plan.rows[me]].sum()) if len(plan.rows[me]) else 0.0
    checksum = yield from ctx.allreduce(local)
    return checksum
