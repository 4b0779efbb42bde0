"""Barnes–Hut under CC-SAS: one shared copy of the bodies.

The body arrays exist once, in shared memory.  Ranks write their updated
slices in place and read whatever they need — the hardware moves the cache
lines.  The per-step tree is still built privately per rank from the shared
positions (the classic SAS trade-off: reading n bodies through the
coherence protocol every step), and the tree's node visits during the force
walk are charged against a shared node array, modelling a shared tree's
read traffic.  Each simulated rank is charged for its private build; the
host builds one tree per distinct position set and the ranks share it
(:meth:`QuadTree.replicated`).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.apps.nbody.common import NBodyConfig, cost_ranges, initial_bodies, step_bodies

__all__ = ["nbody_sas"]

_MAX_TREE_NODES = 16  # per body, a generous cap for the shared node array


def nbody_sas(ctx, cfg: NBodyConfig) -> Generator:
    """One rank of the CC-SAS N-body; returns the global checksum."""
    mcfg = ctx.machine.config
    me = ctx.rank
    pos0, vel0, mass = initial_bodies(cfg, ctx.machine)
    sh_pos = ctx.shalloc("pos", (cfg.n * 2,), np.float64)
    sh_vel = ctx.shalloc("vel", (cfg.n * 2,), np.float64)
    sh_cost = ctx.shalloc("cost", (cfg.n,), np.float64)
    sh_tree = ctx.shalloc("tree", (cfg.n * _MAX_TREE_NODES,), np.float64)
    # parallel init: first-touch my initial block so pages spread over nodes
    init_ranges = cost_ranges(np.ones(cfg.n), ctx.nprocs)
    ilo, ihi = init_ranges[me]
    sh_pos.data.reshape(-1, 2)[ilo:ihi] = pos0[ilo:ihi]
    sh_vel.data.reshape(-1, 2)[ilo:ihi] = vel0[ilo:ihi]
    sh_cost.data[ilo:ihi] = 1.0
    yield from ctx.stouch(sh_pos, ilo * 2, ihi * 2, write=True)
    yield from ctx.stouch(sh_vel, ilo * 2, ihi * 2, write=True)
    yield from ctx.stouch(sh_cost, ilo, ihi, write=True)
    yield from ctx.barrier()

    lo = hi = 0
    for _step in range(cfg.steps):
        ctx.phase_begin("balance")
        yield from ctx.stouch(sh_cost, write=False)
        basis = sh_cost.data if cfg.use_costzones else np.ones(cfg.n)
        ranges = cost_ranges(basis, ctx.nprocs)
        lo, hi = ranges[me]
        yield from ctx.compute(ctx.nprocs * 4 * mcfg.flop_ns)
        ctx.phase_end()

        ctx.phase_begin("tree")
        # read every body position through the coherence protocol
        yield from ctx.stouch(sh_pos, write=False)
        pos = sh_pos.data.reshape(-1, 2)
        vel = sh_vel.data.reshape(-1, 2)
        new_pos, new_vel, my_costs, nodes, visited = step_bodies(
            cfg, pos, vel, mass, lo, hi
        )
        yield from ctx.compute(nodes * mcfg.tree_node_ns)
        ctx.phase_end()

        ctx.phase_begin("force")
        # the walk reads shared tree nodes (8 doubles each)
        if visited:
            node_idx = np.asarray(sorted(visited), dtype=np.int64) * 8
            node_idx = node_idx[node_idx < sh_tree.size]
            yield from ctx.stouch_idx(sh_tree, node_idx, write=False)
        yield from ctx.compute(float(my_costs.sum()) * mcfg.body_interact_ns)
        yield from ctx.compute((hi - lo) * 8 * mcfg.flop_ns)
        # everyone must finish reading old positions before anyone writes
        yield from ctx.barrier()
        ctx.phase_end()

        ctx.phase_begin("exchange")
        sh_pos.data.reshape(-1, 2)[lo:hi] = new_pos
        sh_vel.data.reshape(-1, 2)[lo:hi] = new_vel
        sh_cost.data[lo:hi] = my_costs
        yield from ctx.stouch(sh_pos, lo * 2, hi * 2, write=True)
        yield from ctx.stouch(sh_vel, lo * 2, hi * 2, write=True)
        yield from ctx.stouch(sh_cost, lo, hi, write=True)
        yield from ctx.barrier()
        ctx.phase_end()

    final_pos = sh_pos.data.reshape(-1, 2)
    final_vel = sh_vel.data.reshape(-1, 2)
    local = float(final_pos[lo:hi].sum() + final_vel[lo:hi].sum())
    checksum = yield from ctx.reduce_all(local)
    return checksum
