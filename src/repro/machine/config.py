"""Machine configuration: the Origin2000's published cost parameters.

All times are nanoseconds of simulated time.  The values follow the published
characteristics of a 250 MHz R10000 Origin2000 of the SC 2000 era (Laudon &
Lenoski, "The SGI Origin: a ccNUMA highly scalable server", ISCA'97, plus the
vendor MPI/SHMEM microbenchmark numbers commonly reported for the machine).
Absolute accuracy is not the goal — the *ordering and ratios* of these costs
are what drive the programming-model comparison:

* L2 hit  «  local memory miss  <  remote miss (grows per hop)  <  dirty
  3-hop miss,
* SHMEM put overhead  «  MPI per-message software overhead,
* a single MPI message costs ~3 orders of magnitude more than a load hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = ["MachineConfig", "TOPOLOGY_KINDS"]

#: interconnect structures the machine model can express — the hypercube is
#: the Origin2000 calibration; the others exist for the hardware profiles in
#: :mod:`repro.machine.profiles` (see docs/machines.md)
TOPOLOGY_KINDS = ("hypercube", "fattree", "dragonfly")

#: ``derived`` switches that once selected a scalar reference implementation;
#: the batched paths are the only ones now, so these keys are rejected
_RETIRED_SWITCHES = ("engine_batch", "net_batch", "mpi_match_batch", "sas_batch")


@dataclass(frozen=True)
class MachineConfig:
    """All tunable cost and structure parameters of the simulated machine."""

    # --- structure ----------------------------------------------------------
    nprocs: int = 8
    cpus_per_node: int = 2          # Origin2000 node card: 2× R10000 + hub
    nodes_per_router: int = 2       # "bristled" hypercube: 2 hubs per router
    # interconnect structure (one of TOPOLOGY_KINDS): "hypercube" is the
    # Origin2000 bristled fat hypercube; "fattree" models a commodity
    # cluster through one core switch (uniform 2-hop remote latency);
    # "dragonfly" groups routers all-to-all with one global link per
    # ordered group pair (diameter <= 3, global hops pay deep_hop_extra_ns)
    topology: str = "hypercube"
    dragonfly_group: int = 4        # routers per dragonfly group

    # --- processor ------------------------------------------------------------
    clock_mhz: float = 250.0        # R10000 @ 250 MHz → 4 ns cycle

    # --- caches ---------------------------------------------------------------
    line_bytes: int = 128           # L2 cache line size
    l2_bytes: int = 4 * 1024 * 1024
    l2_assoc: int = 2
    l2_hit_ns: float = 40.0         # ~10 cycles to L2

    # --- memory & directory ---------------------------------------------------
    page_bytes: int = 16 * 1024     # IRIX page
    local_mem_ns: float = 338.0     # restart latency, local memory
    remote_hop_ns: float = 100.0    # added per router hop (each direction pair)
    dirty_extra_ns: float = 360.0   # extra for 3-hop cache-to-cache transfer
    inval_base_ns: float = 120.0    # sending invalidations (overlapped)
    inval_per_sharer_ns: float = 30.0  # serialization at the directory
    mem_bandwidth_bpns: float = 0.62   # ~620 MB/s per local memory system

    # --- interconnect -----------------------------------------------------------
    link_bandwidth_bpns: float = 0.78  # CrayLink: 780 MB/s per direction
    router_hop_ns: float = 41.0        # per-hop pin-to-pin router delay
    hub_ns: float = 60.0               # hub traversal (node ↔ router)
    intra_node_copy_bpns: float = 0.62 # same-node "transfer" runs at memory b/w
    # Beyond 32 CPUs (8 routers) the Origin2000 leaves the single-module
    # CrayLink mesh: deep hypercube dimensions run over express/meta-router
    # cables with longer flight time.  Hops in dimensions >= deep_dim_start
    # pay the surcharge; machines with <= 8 routers never have such hops, so
    # every P <= 32 configuration is bit-identical with or without it.
    deep_dim_start: int = 3
    deep_hop_extra_ns: float = 25.0    # per-hop surcharge on deep dimensions

    # --- directory sharer representation ----------------------------------------
    # The hardware directory entry holds a full presence bit-vector only up
    # to this many CPUs; larger machines fall back to a coarse vector (each
    # bit covers a group of CPUs) or a limited-pointer scheme — see
    # repro.machine.sharers (selectable via derived["dir_sharers"]).
    dir_exact_width: int = 64

    # --- MPI software layer -------------------------------------------------------
    mpi_eager_bytes: int = 16 * 1024
    mpi_os_ns: float = 6000.0       # sender software overhead per message
    mpi_or_ns: float = 5000.0       # receiver software overhead (matching etc.)
    mpi_rendezvous_ns: float = 4000.0  # extra handshake for large messages
    mpi_copy_bpns: float = 0.30     # user↔buffer copy bandwidth (300 MB/s)

    # --- SHMEM software layer --------------------------------------------------------
    shmem_op_ns: float = 500.0      # software overhead of put/get/atomic
    shmem_copy_bpns: float = 0.45   # shmem bulk copy bandwidth

    # --- SAS / synchronisation ----------------------------------------------------------
    lock_rmw_ns: float = 400.0      # uncontended LL/SC pair through L2/dir
    barrier_base_ns: float = 800.0  # per-stage cost of a tree/sense barrier
    sas_contention_alpha: float = 2.0  # analytic queueing penalty strength

    # --- work-unit costs for application kernels (calibrated once) --------------
    # Applications "execute" real NumPy numerics but charge virtual time from
    # these per-element constants, so that compute/communication ratios match
    # a 250 MHz in-order-issue machine.
    flop_ns: float = 8.0            # one sustained floating-point op
    edge_update_ns: float = 800.0   # one edge-based solver update (~100 flops)
    body_interact_ns: float = 160.0  # one body-body/cell interaction (~20 flops)
    tree_node_ns: float = 400.0     # one quadtree node build/insert step
    mesh_op_ns: float = 3000.0      # one element refinement bookkeeping op
    partition_op_ns: float = 1200.0 # per-element cost of (parallel) repartitioning
    point_update_ns: float = 150.0  # one 5-point stencil update

    derived: Dict[str, float] = field(default_factory=dict, compare=False)

    # -- validation / derived quantities ------------------------------------------

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.cpus_per_node < 1 or self.nodes_per_router < 1:
            raise ValueError("cpus_per_node and nodes_per_router must be >= 1")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        if self.page_bytes % self.line_bytes:
            raise ValueError("page_bytes must be a multiple of line_bytes")
        if self.deep_dim_start < 0:
            raise ValueError(f"deep_dim_start must be >= 0, got {self.deep_dim_start}")
        if self.deep_hop_extra_ns < 0:
            raise ValueError(f"deep_hop_extra_ns must be >= 0, got {self.deep_hop_extra_ns}")
        if self.dir_exact_width < 1:
            raise ValueError(f"dir_exact_width must be >= 1, got {self.dir_exact_width}")
        if self.topology not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGY_KINDS}"
            )
        if self.dragonfly_group < 2:
            raise ValueError(
                f"dragonfly_group must be >= 2, got {self.dragonfly_group}"
            )
        for key in _RETIRED_SWITCHES:
            if key in self.derived:
                raise ValueError(
                    f"derived[{key!r}] was removed: the scalar reference path it "
                    "selected is gone (tests/golden/timelines.json records it)"
                )

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.clock_mhz

    @property
    def nnodes(self) -> int:
        return -(-self.nprocs // self.cpus_per_node)  # ceil division

    @property
    def nrouters(self) -> int:
        return -(-self.nnodes // self.nodes_per_router)

    @property
    def l2_sets(self) -> int:
        return self.l2_bytes // (self.line_bytes * self.l2_assoc)

    def node_of_cpu(self, cpu: int) -> int:
        if not 0 <= cpu < self.nprocs:
            raise ValueError(f"cpu {cpu} out of range [0, {self.nprocs})")
        return cpu // self.cpus_per_node

    def router_of_node(self, node: int) -> int:
        if not 0 <= node < self.nnodes:
            raise ValueError(f"node {node} out of range [0, {self.nnodes})")
        return node // self.nodes_per_router

    def with_(self, **overrides) -> "MachineConfig":
        """A copy with some parameters replaced (config is immutable)."""
        return replace(self, **overrides)
