"""repro — a reproduction of "A Comparison of Three Programming Models for
Adaptive Applications on the Origin2000" (Shan, Singh, Oliker, Biswas;
SC 2000).

The package contains a simulated SGI Origin2000 (directory-based ccNUMA),
three programming-model runtimes on top of it (MPI, SHMEM, CC-SAS), the
adaptive substrates the paper's applications need (dynamic unstructured
mesh, graph partitioners, the PLUM load balancer, a Barnes–Hut quadtree),
the applications themselves — each written three times, once per model —
and the experiment harness that regenerates the paper-style tables and
figures.

Quick start::

    from repro import run_app
    result = run_app("adapt", "mpi", nprocs=8)
    print(result.elapsed_ms, "simulated ms")

See README.md for the architecture overview and EXPERIMENTS.md for the
reproduced evaluation.
"""

from repro.machine import Machine, MachineConfig
from repro.models import run_program
from repro.harness import run_app, sweep

# also the result-store engine salt: bump on any intentional change to
# simulated timelines (1.2.0: collective-aware MPI fault recovery; 1.2.1:
# fault-aware profiles steer 3-D PLUM, so faulted adapt3d runs change)
__version__ = "1.2.1"

__all__ = [
    "Machine",
    "MachineConfig",
    "run_program",
    "run_app",
    "sweep",
    "__version__",
]
