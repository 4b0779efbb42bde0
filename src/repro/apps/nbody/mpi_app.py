"""Barnes–Hut under MPI: replicated tree, allgathered bodies.

Each rank holds all bodies, builds the full quadtree locally each step (the
classic "replicated tree" parallelisation of the era's message-passing
codes), computes forces for its cost-zones range, and allgathers the
updated slices — positions, velocities, and measured per-body interaction
costs (the costs feed the next step's repartitioning).  Each simulated rank
is charged for its build; the host builds one tree per distinct position
set and the ranks share it (:meth:`QuadTree.replicated`).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.apps.nbody.common import NBodyConfig, cost_ranges, initial_bodies, step_bodies

__all__ = ["nbody_mpi"]


def nbody_mpi(ctx, cfg: NBodyConfig) -> Generator:
    """One rank of the MPI N-body; returns the global checksum."""
    mcfg = ctx.machine.config
    me = ctx.rank
    pos, vel, mass = initial_bodies(cfg)
    costs = np.ones(cfg.n)

    for _step in range(cfg.steps):
        ctx.phase_begin("balance")
        # cost-zones split from the (replicated) previous-step costs
        basis = costs if cfg.use_costzones else np.ones(cfg.n)
        ranges = cost_ranges(basis, ctx.nprocs)
        lo, hi = ranges[me]
        yield from ctx.compute(ctx.nprocs * 4 * mcfg.flop_ns)
        ctx.phase_end()

        ctx.phase_begin("tree")
        new_pos, new_vel, my_costs, nodes, _visited = step_bodies(
            cfg, pos, vel, mass, lo, hi
        )
        yield from ctx.compute(nodes * mcfg.tree_node_ns)
        ctx.phase_end()

        ctx.phase_begin("force")
        yield from ctx.compute(float(my_costs.sum()) * mcfg.body_interact_ns)
        yield from ctx.compute((hi - lo) * 8 * mcfg.flop_ns)  # leapfrog
        ctx.phase_end()

        ctx.phase_begin("exchange")
        slices = yield from ctx.allgather(
            {"lo": lo, "hi": hi, "pos": new_pos, "vel": new_vel, "costs": my_costs}
        )
        for s in slices:
            pos[s["lo"] : s["hi"]] = s["pos"]
            vel[s["lo"] : s["hi"]] = s["vel"]
            costs[s["lo"] : s["hi"]] = s["costs"]
        ctx.phase_end()

    local = float(pos[lo:hi].sum() + vel[lo:hi].sum())
    checksum = yield from ctx.allreduce(local)
    return checksum
