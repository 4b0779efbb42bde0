"""Barnes–Hut N-body under the three programming models.

The adaptive structure here is the quadtree: a Plummer cluster's central
condensation makes the tree deep and the per-body force cost wildly
non-uniform, so the work distribution must adapt (cost-zones
repartitioning from the previous step's measured interaction counts).

All three implementations build the *canonical* region quadtree (structure
and centre-of-mass sums are insertion-order independent — see
:mod:`repro.apps.nbody.tree`), so they produce bit-identical trajectories;
only how body data and tree data are shared differs.

Every simulated rank builds the whole tree each step and is charged
``nodes * tree_node_ns`` for it.  On the host the ranks of a step share one
build per distinct position set (:meth:`QuadTree.replicated`), since they
would all build the same tree from the same bytes.
"""

from repro.apps.nbody.common import NBodyConfig, cost_ranges, reference_checksum
from repro.apps.nbody.tree import QuadTree
from repro.apps.nbody.mpi_app import nbody_mpi
from repro.apps.nbody.shmem_app import nbody_shmem
from repro.apps.nbody.sas_app import nbody_sas

NBODY_PROGRAMS = {"mpi": nbody_mpi, "shmem": nbody_shmem, "sas": nbody_sas}

__all__ = [
    "NBodyConfig",
    "QuadTree",
    "cost_ranges",
    "reference_checksum",
    "nbody_mpi",
    "nbody_shmem",
    "nbody_sas",
    "NBODY_PROGRAMS",
]
