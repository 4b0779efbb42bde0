"""The adaptive-mesh application under CC-SAS (shared address space).

The shortest of the three implementations: the solution lives in shared
Jacobi double-buffers, ghost "communication" is just reading a neighbour's
vertices (the hardware fetches the cache lines), mark agreement is a shared
mark array behind a barrier, and PLUM "migration" is nothing but writing
the new ownership array — elements never move because memory is shared.

Tuning (the difference between naive and competitive SAS on the
Origin2000, ablated in experiment R-T7/R-F6):

* **data reordering** (``reorder=True``, default): each phase the solution
  is laid out partition-contiguously, cache-line aligned per processor, so
  a processor's rows never share lines with another's — eliminating false
  sharing at the price of an explicit (charged) re-layout copy per phase;
* **tree barrier** (machine default): ⌈log P⌉-stage combining tree instead
  of one serialising counter.
"""

from __future__ import annotations

from typing import Generator, Tuple

import numpy as np

from repro.apps.adapt.script import AdaptScript, PhasePlan
from repro.solver.kernels import jacobi_sweep, residual_norm

__all__ = ["adapt_sas", "adapt_sas_noreorder"]

_MARK_FLOPS = 6
_INTERP_FLOPS = 4


def _layout(plan: PhasePlan, cap: int, line_elems: int, reorder: bool) -> Tuple[np.ndarray, int]:
    """slot[v] for the phase's active vertices; returns (slots, size).

    With reordering, each rank's rows become one contiguous, line-aligned
    segment; without, slots are the raw (interleaved) vertex ids.
    """
    if not reorder:
        return np.arange(cap, dtype=np.int64), cap
    slots = np.full(cap, -1, dtype=np.int64)
    pos = 0
    for r in plan.rows:
        pos = -(-pos // line_elems) * line_elems  # align to a cache line
        slots[r] = np.arange(pos, pos + len(r))
        pos += len(r)
    return slots, max(pos, 1)


def adapt_sas(ctx, script: AdaptScript, reorder: bool = True) -> Generator:
    """One rank of the CC-SAS implementation; returns the global checksum."""
    cfg = script.config
    mcfg = ctx.machine.config
    me = ctx.rank
    cap = script.max_nverts
    line_elems = mcfg.line_bytes // 8
    marks = ctx.shalloc("marks", (cap,), np.int64)
    owner_arr = ctx.shalloc("owner", (cap,), np.int64)

    slots, size = script.phases[0].once(_layout, cap, line_elems, reorder)
    bufs = [
        ctx.shalloc("u0_a", (size,), np.float64),
        ctx.shalloc("u0_b", (size,), np.float64),
    ]
    cur = 0
    rows0 = script.phases[0].rows[me]
    if len(rows0):
        s0 = slots[rows0]
        # first touch: my segment's pages land on my node
        yield from ctx.stouch_idx(bufs[0], s0, write=True)
        yield from ctx.stouch_idx(bufs[1], s0, write=True)
    yield from ctx.barrier()

    for plan in script.phases:
        k = plan.index
        rows = plan.rows[me]
        if k > 0:
            # ---------------- adaptation ----------------
            ctx.phase_begin("adapt")
            yield from ctx.compute(
                plan.pre_elems_per_rank[me] * _MARK_FLOPS * mcfg.flop_ns
            )
            # write my marks into the shared mark array; closure rounds are
            # barrier-separated re-reads of neighbours' boundary marks
            my_marked = int(plan.local_marked_per_rank[me])
            if my_marked:
                yield from ctx.stouch_idx(
                    marks, np.arange(me, me + my_marked * 7, 7) % cap, write=True
                )
            yield from ctx.barrier()
            for _ in range(plan.mark_rounds):
                for _, ids in plan.pairs_of("boundary_marks", me):
                    if len(ids):
                        yield from ctx.stouch_idx(marks, ids % cap, write=False)
                yield from ctx.barrier()
            # refine my elements: structural updates to the shared mesh
            yield from ctx.compute(plan.refined_per_rank[me] * mcfg.mesh_op_ns)

            # re-layout the solution for the new decomposition: my new rows
            # are copied (through the coherence protocol) from wherever the
            # old layout kept them, then new vertices are interpolated
            old_bufs, old_slots = bufs, slots
            slots, size = plan.once(_layout, cap, line_elems, reorder)
            bufs = [
                ctx.shalloc(f"u{k}_a", (size,), np.float64),
                ctx.shalloc(f"u{k}_b", (size,), np.float64),
            ]
            src_old = old_bufs[cur]
            cur = 0
            new_mids = (
                {t[0] for t in plan.interp_triples} if plan.interp_triples else set()
            )
            keep = rows[~np.isin(rows, np.asarray(sorted(new_mids), dtype=np.int64))] if len(rows) and new_mids else rows
            if len(keep):
                yield from ctx.stouch_idx(src_old, np.sort(old_slots[keep]), write=False)
                bufs[0].data[slots[keep]] = src_old.data[old_slots[keep]]
                yield from ctx.stouch_idx(bufs[0], slots[keep], write=True)
            yield from ctx.barrier()
            if plan.interp_triples:
                t = np.asarray(plan.interp_triples, dtype=np.int64)
                mine = np.isin(t[:, 0], rows)
                tm = t[mine]
                if len(tm):
                    ends = np.unique(tm[:, 1:])
                    yield from ctx.stouch_idx(bufs[0], np.sort(slots[ends]), write=False)
                    bufs[0].data[slots[tm[:, 0]]] = 0.5 * (
                        bufs[0].data[slots[tm[:, 1]]] + bufs[0].data[slots[tm[:, 2]]]
                    )
                    yield from ctx.stouch_idx(bufs[0], slots[tm[:, 0]], write=True)
                    yield from ctx.compute(len(tm) * _INTERP_FLOPS * mcfg.flop_ns)
            yield from ctx.barrier()
            ctx.phase_end()

            # ---------------- PLUM rebalance ----------------
            ctx.phase_begin("balance")
            if plan.rebalanced:
                # parallel repartitioning directly on the shared mesh; each
                # rank writes its slice of the new ownership array
                yield from ctx.compute(
                    plan.repartition_elements / ctx.nprocs * mcfg.partition_op_ns
                )
                span = max(min(plan.nels, cap) // ctx.nprocs, 1)
                wlo = min(me * span, cap)
                whi = min(plan.nels, cap) if me == ctx.nprocs - 1 else min((me + 1) * span, cap)
                if whi > wlo:
                    yield from ctx.stouch(owner_arr, wlo, whi, write=True)
                yield from ctx.barrier()
                # everyone reads the new ownership (no data migrates!)
                yield from ctx.stouch(owner_arr, 0, min(plan.nels, cap), write=False)
            yield from ctx.barrier()
            ctx.phase_end()

        # ---------------- solve ----------------
        ctx.phase_begin("solve")
        row_slots = slots[rows] if len(rows) else rows
        adj_slots = slots[plan.row_adjncy[me]] if len(plan.row_adjncy[me]) else plan.row_adjncy[me]
        neigh_slots = np.unique(adj_slots)
        for _ in range(cfg.solver_iters):
            src, dst = bufs[cur], bufs[1 - cur]
            # read neighbour values straight from shared memory (remote
            # lines miss; local ones hit after the first sweep)
            if len(neigh_slots):
                yield from ctx.stouch_idx(src, neigh_slots, write=False)
            if len(rows):
                new = jacobi_sweep(
                    src.data, plan.row_xadj[me], adj_slots, row_slots,
                    plan.forcing[me], omega=cfg.omega,
                )
                res = residual_norm(new, src.data[row_slots])
                dst.data[row_slots] = new
                yield from ctx.stouch_idx(dst, row_slots, write=True)
            else:
                res = 0.0
            yield from ctx.compute(len(adj_slots) * mcfg.edge_update_ns)
            yield from ctx.reduce_all(res)
            cur = 1 - cur
        yield from ctx.barrier()
        ctx.phase_end()

    local = float(bufs[cur].data[row_slots].sum()) if len(rows) else 0.0
    checksum = yield from ctx.reduce_all(local)
    return checksum


def adapt_sas_noreorder(ctx, script: AdaptScript) -> Generator:
    """The naive variant: interleaved layout, false sharing and all."""
    result = yield from adapt_sas(ctx, script, reorder=False)
    return result
