"""Barnes–Hut under SHMEM: one-sided slice puts instead of allgather.

Same replicated-tree structure as the MPI version, but after each step
every rank *puts* its updated slice directly into every other rank's body
arrays — no matching, no gather tree — then a single ``barrier_all`` makes
the step's data globally visible.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.apps.nbody.common import NBodyConfig, cost_ranges, initial_bodies, step_bodies

__all__ = ["nbody_shmem"]


def nbody_shmem(ctx, cfg: NBodyConfig) -> Generator:
    """One rank of the SHMEM N-body; returns the global checksum."""
    mcfg = ctx.machine.config
    me = ctx.rank
    pos0, vel0, mass = initial_bodies(cfg, ctx.machine)
    # symmetric body arrays: each rank's copy is kept fully up to date
    sym_pos = ctx.salloc("pos", (cfg.n * 2,), np.float64)
    sym_vel = ctx.salloc("vel", (cfg.n * 2,), np.float64)
    sym_cost = ctx.salloc("cost", (cfg.n,), np.float64)
    sym_pos.local(me)[:] = pos0.ravel()
    sym_vel.local(me)[:] = vel0.ravel()
    sym_cost.local(me)[:] = 1.0
    yield from ctx.barrier_all()

    lo = hi = 0
    for _step in range(cfg.steps):
        ctx.phase_begin("balance")
        costs = sym_cost.local(me)
        basis = costs if cfg.use_costzones else np.ones(cfg.n)
        ranges = cost_ranges(basis, ctx.nprocs)
        lo, hi = ranges[me]
        yield from ctx.compute(ctx.nprocs * 4 * mcfg.flop_ns)
        ctx.phase_end()

        ctx.phase_begin("tree")
        pos = sym_pos.local(me).reshape(-1, 2)
        vel = sym_vel.local(me).reshape(-1, 2)
        new_pos, new_vel, my_costs, nodes, _visited = step_bodies(
            cfg, pos, vel, mass, lo, hi
        )
        yield from ctx.compute(nodes * mcfg.tree_node_ns)
        ctx.phase_end()

        ctx.phase_begin("force")
        yield from ctx.compute(float(my_costs.sum()) * mcfg.body_interact_ns)
        yield from ctx.compute((hi - lo) * 8 * mcfg.flop_ns)
        ctx.phase_end()

        ctx.phase_begin("exchange")
        # push my slice into everyone's symmetric copies (self included)
        for dst in range(ctx.nprocs):
            yield from ctx.put(sym_pos, dst, new_pos.ravel(), offset=lo * 2)
            yield from ctx.put(sym_vel, dst, new_vel.ravel(), offset=lo * 2)
            yield from ctx.put(sym_cost, dst, my_costs, offset=lo)
        yield from ctx.barrier_all()
        ctx.phase_end()

    final_pos = sym_pos.local(me).reshape(-1, 2)
    final_vel = sym_vel.local(me).reshape(-1, 2)
    local = float(final_pos[lo:hi].sum() + final_vel[lo:hi].sum())
    checksum = yield from ctx.sum_to_all(local)
    return checksum
