"""Shared configuration and numerics for the N-body application."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.apps.nbody.tree import QuadTree
from repro.workloads.plummer import plummer_bodies, uniform_bodies

__all__ = [
    "NBodyConfig",
    "morton_order",
    "initial_bodies",
    "cost_ranges",
    "step_bodies",
    "reference_checksum",
]


@dataclass(frozen=True)
class NBodyConfig:
    """Parameters of one N-body run (model-independent)."""

    n: int = 512
    steps: int = 3
    theta: float = 0.7
    dt: float = 1e-3
    eps: float = 1e-3
    distribution: str = "plummer"   # or "uniform"
    use_costzones: bool = True      # False: equal-count (static) ranges
    seed: int = 0
    body_bytes: int = 48            # pos+vel+mass+id on the wire

    def __post_init__(self) -> None:
        if self.n < 1 or self.steps < 1:
            raise ValueError("n and steps must be >= 1")
        if not 0 < self.theta < 2:
            raise ValueError(f"theta should be in (0, 2), got {self.theta}")
        if self.distribution not in ("plummer", "uniform"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


def morton_order(pos: np.ndarray, bits: int = 10) -> np.ndarray:
    """Indices sorting bodies along the Morton (Z-order) curve.

    Contiguous index ranges then correspond to spatial regions, which is
    what makes cost-zones ranges genuine *zones* (and what a tree-ordered
    body array gives real Barnes-Hut codes for free).
    """
    scale = (1 << bits) - 1
    xi = np.clip((pos[:, 0] * scale).astype(np.int64), 0, scale)
    yi = np.clip((pos[:, 1] * scale).astype(np.int64), 0, scale)
    key = np.zeros(len(pos), dtype=np.int64)
    for b in range(bits):
        key |= ((xi >> b) & 1) << (2 * b)
        key |= ((yi >> b) & 1) << (2 * b + 1)
    return np.argsort(key, kind="stable")


#: ``(machine ref, key, (pos, vel, mass))`` of the last shared build
_last_bodies: Optional[tuple] = None


def initial_bodies(
    cfg: NBodyConfig, machine: Any = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bodies in Morton order (spatially sorted), deterministically.

    Every rank of a run asks for the same bodies.  Given the run's
    ``machine``, the most recent run's arrays are kept and each caller
    gets fresh copies (programs write into theirs in place), so a run
    builds them once; without one, every call builds them.
    """
    global _last_bodies
    key = (cfg.distribution, cfg.n, cfg.seed)
    last = _last_bodies
    if machine is None or last is None or last[0]() is not machine or last[1] != key:
        gen = plummer_bodies if cfg.distribution == "plummer" else uniform_bodies
        pos, vel, mass = gen(cfg.n, seed=cfg.seed)
        order = morton_order(pos)
        bodies = (pos[order], vel[order], mass[order])
        if machine is None:
            return bodies
        last = _last_bodies = (weakref.ref(machine), key, bodies)
    pos, vel, mass = last[2]
    return pos.copy(), vel.copy(), mass.copy()


def cost_ranges(costs: np.ndarray, nprocs: int) -> List[Tuple[int, int]]:
    """Cost-zones split: contiguous body ranges of ≈ equal total cost.

    ``costs`` is the per-body interaction count measured last step; an all-
    ones array gives plain block partitioning (step 0).  Deterministic, so
    every rank computes the same split from the same (replicated) costs.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    costs = np.asarray(costs, dtype=np.float64)
    n = len(costs)
    cum = np.cumsum(costs)
    total = cum[-1] if n else 0.0
    targets = total * np.arange(1, nprocs, dtype=np.float64) / nprocs
    # each boundary is the first prefix reaching its target, capped at n;
    # the running maximum keeps the ranges in order even for negative
    # costs, whose prefix sums are unsorted
    his = np.maximum.accumulate(
        np.minimum(np.searchsorted(cum, targets, side="left") + 1, n)
    ).tolist()
    return list(zip([0] + his, his + [n]))


def step_bodies(
    cfg: NBodyConfig,
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    lo: int,
    hi: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, set]:
    """Tree-build + force + leapfrog for bodies ``[lo, hi)``.

    Returns (new positions slice, new velocities slice, per-body
    interaction counts, nodes created, visited node ids).  Positions are
    clipped to the unit square so the next tree build never overflows.
    ``nodes`` is the full tree's size, what this rank's build costs, even
    when the host shares the tree with the step's other ranks.  The host
    shares the forces too: the tree walks every body once
    (:meth:`QuadTree.forces`) and each rank reads its slice.
    """
    tree, nodes = QuadTree.replicated(pos, mass)
    forces = tree.forces(cfg.theta, cfg.eps)
    counts = forces.counts[lo:hi].copy()
    visited = set(forces.visits_of(lo, hi).tolist())
    new_vel = vel[lo:hi] + cfg.dt * forces.acc[lo:hi]
    new_pos = np.clip(pos[lo:hi] + cfg.dt * new_vel, 0.0, 1.0)
    return new_pos, new_vel, counts, nodes, visited


def reference_checksum(cfg: NBodyConfig) -> float:
    """Sequential trajectory; the value every model must reproduce."""
    pos, vel, mass = initial_bodies(cfg)
    costs = np.ones(cfg.n)
    for _ in range(cfg.steps):
        ranges = cost_ranges(costs, 1)
        lo, hi = ranges[0]
        new_pos, new_vel, counts, _, _ = step_bodies(cfg, pos, vel, mass, lo, hi)
        pos = new_pos
        vel = new_vel
        costs = counts
    return float(pos.sum() + vel.sum())
