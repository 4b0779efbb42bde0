"""The adaptive-mesh application under SHMEM (one-sided communication).

Data exchange is by ``put`` into pre-agreed slots of symmetric staging
buffers, with ``barrier_all`` providing the consumption points — no message
matching, no receiver-side calls.  Both sides compute the same trajectory
(the PLUM partition is global knowledge), so the receiver always knows
which slots hold what: the SHMEM idiom that buys its low overhead.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

import numpy as np

from repro.apps.adapt.script import AdaptScript, PhasePlan
from repro.solver.kernels import jacobi_sweep, residual_norm

__all__ = ["adapt_shmem"]

_MARK_FLOPS = 6
_INTERP_FLOPS = 4


def _slot_layout(plan: PhasePlan, table: str) -> Tuple[Dict, int]:
    """Assign each pair of a plan's pair table a disjoint slot in a staging buffer."""
    offsets: Dict = {}
    total = 0
    for pair, ids in sorted(getattr(plan, table).items()):
        offsets[pair] = total
        total += len(ids)
    return offsets, total


def _mark_slots(plan: PhasePlan) -> Tuple[Dict, int]:
    """Equal-stride slots for the boundary-mark pairs; returns (slot_of, size)."""
    stride = max(max((len(v) for v in plan.boundary_marks.values()), default=0), 1)
    slot_of = {pair: i * stride for i, pair in enumerate(sorted(plan.boundary_marks))}
    return slot_of, max(len(plan.boundary_marks), 1) * stride


def adapt_shmem(ctx, script: AdaptScript) -> Generator:
    """One rank of the SHMEM implementation; returns the global checksum."""
    cfg = script.config
    mcfg = ctx.machine.config
    me = ctx.rank
    u = np.zeros(script.max_nverts)

    for plan in script.phases:
        k = plan.index
        if k > 0:
            # ---------------- adaptation ----------------
            ctx.phase_begin("adapt")
            yield from ctx.compute(
                plan.pre_elems_per_rank[me] * _MARK_FLOPS * mcfg.flop_ns
            )
            # boundary-mark agreement: put my marked ids into a symmetric
            # staging buffer on each neighbour, barrier, read
            slot_of, stage_size = plan.once(_mark_slots)
            stage = ctx.salloc(f"marks{k}", (stage_size,), np.int64)
            for _ in range(plan.mark_rounds):
                for pair, ids in plan.pairs_of("boundary_marks", me):
                    other = pair[1] if pair[0] == me else pair[0]
                    if len(ids):
                        yield from ctx.put(stage, other, ids, offset=slot_of[pair])
                yield from ctx.barrier_all()
            yield from ctx.compute(plan.refined_per_rank[me] * mcfg.mesh_op_ns)
            # coarsening handoff: put the vertex values my merged children
            # held into the new parent owner's staging buffer
            if plan.coarsen_transfers:
                co_offsets, co_total = plan.once(_slot_layout, "coarsen_transfers")
                co_stage = ctx.salloc(f"coarsen{k}", (max(co_total, 1),), np.float64)
                my_co = sorted(plan.pairs_of("coarsen_transfers", me))
                for (p, q), verts in my_co:
                    if p == me:
                        yield from ctx.put(co_stage, q, u[verts], offset=co_offsets[(p, q)])
                yield from ctx.barrier_all()
                mine_co = co_stage.local(me)
                for (p, q), verts in my_co:
                    if q == me:
                        off = co_offsets[(p, q)]
                        u[verts] = mine_co[off : off + len(verts)]
            if plan.interp_triples:
                t = np.asarray(plan.interp_triples, dtype=np.int64)
                u[t[:, 0]] = 0.5 * (u[t[:, 1]] + u[t[:, 2]])
                yield from ctx.compute(len(t) * _INTERP_FLOPS * mcfg.flop_ns)
            ctx.phase_end()

            # ---------------- PLUM rebalance ----------------
            ctx.phase_begin("balance")
            if plan.rebalanced:
                # parallel repartitioning, then broadcast of the element map
                yield from ctx.compute(
                    plan.repartition_elements / ctx.nprocs * mcfg.partition_op_ns
                )
                yield from ctx.broadcast(np.zeros(plan.nels, dtype=np.int64), root=0)
            # migrate: put departing elements' vertex values into the new
            # owner's staging buffer (both sides know the layout)
            my_mig = plan.pairs_of("migration_elems", me)
            mig_out = {pair: elems for pair, elems in my_mig if pair[0] == me}
            mig_in = {
                pair: plan.migration_verts[pair] for pair, _ in my_mig if pair[1] == me
            }
            in_offsets, in_total = plan.once(_slot_layout, "migration_verts")
            stage_v = ctx.salloc(f"mig{k}", (max(in_total, 1),), np.float64)
            for pair, elems in sorted(mig_out.items()):
                verts = plan.migration_verts[pair]
                # element records travel too: charge their volume as one put
                yield from ctx.put(stage_v, pair[1], u[verts], offset=in_offsets[pair])
                ctx.stats.put_bytes += len(elems) * cfg.element_bytes
            yield from ctx.barrier_all()
            local_stage = stage_v.local(me)
            for pair, verts in sorted(mig_in.items()):
                u[verts] = local_stage[in_offsets[pair] : in_offsets[pair] + len(verts)]
            ctx.phase_end()

        # ---------------- solve ----------------
        ctx.phase_begin("solve")
        rows = plan.rows[me]
        in_offsets, in_total = plan.once(_slot_layout, "ghost_sends")
        halo = ctx.salloc(f"halo{k}", (max(in_total, 1),), np.float64)
        my_halo = plan.pairs_of("ghost_sends", me)
        my_puts = sorted((q, ids) for (p, q), ids in my_halo if p == me)
        my_gets = sorted((p, ids) for (p, q), ids in my_halo if q == me)

        def halo_exchange():
            """Put my fresh boundary values into each neighbour's slots."""
            for q, ids in my_puts:
                yield from ctx.put(halo, q, u[ids], offset=in_offsets[(me, q)])
            yield from ctx.barrier_all()  # implies quiet: puts delivered
            mine = halo.local(me)
            for p, ids in my_gets:
                u[ids] = mine[in_offsets[(p, me)] : in_offsets[(p, me)] + len(ids)]

        # refresh ghosts for this decomposition, then sweep; exchanging
        # after each update keeps ghosts fresh for the next phase too
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
            yield from ctx.sum_to_all(res)
        ctx.phase_end()

    local = float(u[plan.rows[me]].sum()) if len(plan.rows[me]) else 0.0
    checksum = yield from ctx.sum_to_all(local)
    return checksum
