"""The all-body Barnes–Hut walk and the cost-zones split against their references.

:meth:`QuadTree.forces` must give every body the same bits as the scalar
per-body walk (:func:`tests.reference.reference_accel`): accelerations as
``float.hex``, interaction counts and visited node sets.
:func:`cost_ranges` must give the ranges of the boundary-by-boundary loop
(:func:`tests.reference.reference_cost_ranges`).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.nbody.common import cost_ranges
from repro.apps.nbody.tree import QuadTree

from tests.reference import reference_accel, reference_cost_ranges


def _bodies(n, seed, snap, zero_mass):
    """``n`` bodies in the unit square; ``snap`` > 0 puts them on a coarse grid.

    A coarse grid makes bodies coincide, so leaves at the depth cap hold
    several bodies and their sorted order decides the rounding.
    """
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, (n, 2))
    if snap:
        pos = np.round(pos * snap) / snap
    mass = rng.uniform(0.001, 0.1, n)
    if zero_mass:
        mass[rng.random(n) < 0.3] = 0.0
    return pos, mass


def _hex(v):
    return float(v).hex()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    snap=st.sampled_from([0, 0, 1, 2, 4, 16]),
    zero_mass=st.booleans(),
    theta=st.floats(0.2, 1.5, exclude_min=True, exclude_max=True),
    eps=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 3e-2]),
)
def test_forces_match_scalar_walk_bit_for_bit(n, seed, snap, zero_mass, theta, eps):
    pos, mass = _bodies(n, seed, snap, zero_mass)
    tree = QuadTree()
    tree.build(pos, mass)
    forces = tree.forces(theta, eps)
    seen = [set() for _ in range(n)]
    for i in range(n):
        ax, ay, count = reference_accel(tree, i, theta, eps, seen[i])
        assert (_hex(forces.acc[i, 0]), _hex(forces.acc[i, 1])) == (_hex(ax), _hex(ay)), i
        assert forces.counts[i] == count
        assert set(forces.visits_of(i, i + 1).tolist()) == seen[i]
    # a rank's range visits the union of its bodies' walks; none if empty
    for lo, hi in ((0, n), (n // 3, 2 * n // 3), (n // 2, n // 2)):
        assert set(forces.visits_of(lo, hi).tolist()) == set().union(*seen[lo:hi])


def test_depth_capped_leaf_sums_in_sorted_order():
    # five coincident bodies share one leaf at the depth cap next to a
    # cluster that is opened, so both branch kinds land in one sum
    pos = np.array([[0.3, 0.3]] * 5 + [[0.7, 0.71], [0.71, 0.7], [0.9, 0.1]])
    mass = np.array([0.03, 0.001, 0.07, 0.02, 0.05, 0.1, 0.04, 0.06])
    tree = QuadTree()
    tree.build(pos, mass)
    assert any(len(b) == 5 for b in tree.bodies)
    for i in range(len(pos)):
        ax, ay, count = reference_accel(tree, i, 0.9, 1e-9)
        assert tree.accel(i, 0.9, 1e-9) == (ax, ay, count)


def test_forces_kept_on_the_tree_until_finalize():
    pos, mass = _bodies(50, 3, 0, False)
    tree = QuadTree()
    tree.build(pos, mass)
    forces = tree.forces(0.7, 1e-3)
    assert tree.forces(0.7, 1e-3) is forces
    assert tree.forces(0.5, 1e-3) is not forces
    tree.finalize()
    assert tree.forces(0.7, 1e-3) is not forces


_costs = st.one_of(
    st.integers(0, 60).map(np.zeros),
    st.lists(st.integers(0, 50), max_size=120).map(lambda v: np.array(v, dtype=float)),
    st.lists(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False), max_size=120
    ).map(np.array),
)


@settings(max_examples=300, deadline=None)
@given(costs=_costs, extra=st.integers(-130, 10), one=st.booleans())
def test_cost_ranges_match_loop(costs, extra, one):
    # nprocs from 1 up to past n: P = 1, P < n, P = n and P > n all occur
    nprocs = 1 if one else max(1, len(costs) + extra)
    got = cost_ranges(costs, nprocs)
    assert got == reference_cost_ranges(costs, nprocs)
    assert all(type(v) is int for r in got for v in r)


@settings(max_examples=200, deadline=None)
@given(
    costs=st.lists(st.integers(-50, 50), max_size=60).map(lambda v: np.array(v, dtype=float)),
    nprocs=st.integers(1, 70),
)
# negative costs leave the prefix sums unsorted, and the raw boundaries
# here step back (5, 3, 3); the ranges must still tile [0, n) in order
@example(costs=np.array([-5.0, -1.0, 4.0, 1.0, -5.0]), nprocs=4)
def test_cost_ranges_tile_the_bodies_for_any_costs(costs, nprocs):
    ranges = cost_ranges(costs, nprocs)
    assert len(ranges) == nprocs
    assert ranges[0][0] == 0 and ranges[-1][1] == len(costs)
    assert all(lo <= hi for lo, hi in ranges)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
