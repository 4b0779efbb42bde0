"""Named hardware profiles: the same experiment on different machines.

The paper's MPI vs SHMEM vs CC-SAS ranking is an artifact of one machine —
every constant in :class:`~repro.machine.config.MachineConfig` defaults to
the Origin2000 calibration.  A :class:`MachineProfile` is a *declarative
overlay* on that config: a named, validated set of ``field -> value``
overrides (possibly including ``topology``, which selects a routing/cost
structure from :mod:`repro.machine.topology`).  Applying a profile never
touches ``nprocs`` or ``derived`` — those belong to the experiment, not the
hardware — so ``Machine(profile="origin2000")`` is bit-identical to the
profile-less default.

Four profiles ship in the registry (see docs/machines.md for the rationale
behind each constant):

* ``origin2000`` — the default; an empty overlay.
* ``numa-epyc`` — one modern fat NUMA node: many CPUs per node, cheap
  coherent interconnect, big caches, software overheads ~10x lower, and
  per-element kernel costs rescaled to a multi-GHz superscalar core.
* ``fat-tree-cluster`` — a commodity cluster through a non-blocking core
  switch: uniform (and high) remote latency, NIC-dominated per-message
  cost, no hardware shared memory — loads/stores and locks that cross
  nodes are painfully expensive software emulation.
* ``dragonfly`` — a low-diameter, bandwidth-rich modern interconnect:
  at most three router hops between any two nodes, fat links, but long
  global cables that pay a flight-time surcharge.

``python -m repro profiles list|describe`` prints the registry;
``--machine-profile`` selects one on run/sweep/bench commands; and
``python -m repro bench-profiles`` re-runs the paper's model × P comparison
per profile (:func:`repro.harness.rankings.run_profile_bench`).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple, Union

from repro.machine.config import MachineConfig

__all__ = [
    "MachineProfile",
    "PROFILES",
    "resolve_machine_profile",
    "machine_profile_signature",
]

#: MachineConfig fields a profile may override (everything except the
#: per-experiment knobs)
_CONFIG_FIELDS = frozenset(
    f.name for f in fields(MachineConfig) if f.name not in ("nprocs", "derived")
)


@dataclass(frozen=True)
class MachineProfile:
    """A named, validated overlay on :class:`MachineConfig`.

    ``overrides`` is a tuple of ``(field, value)`` pairs (kept as a tuple so
    profiles are hashable and their ``repr`` is canonical — the serving
    store keys unregistered profiles by it).  Field names are validated
    against :class:`MachineConfig` at construction; ``nprocs`` and
    ``derived`` are rejected because they are experiment state, not
    hardware.
    """

    name: str
    description: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("profile name must be non-empty")
        seen = set()
        for field_name, _value in self.overrides:
            if field_name not in _CONFIG_FIELDS:
                if field_name in ("nprocs", "derived"):
                    raise ValueError(
                        f"profile {self.name!r} may not override {field_name!r}: "
                        "it is experiment state, not hardware"
                    )
                raise ValueError(
                    f"profile {self.name!r} overrides unknown MachineConfig "
                    f"field {field_name!r}"
                )
            if field_name in seen:
                raise ValueError(
                    f"profile {self.name!r} overrides {field_name!r} twice"
                )
            seen.add(field_name)
        # fail fast on invalid values: MachineConfig.__post_init__ validates
        self.apply(MachineConfig())

    def apply(self, config: MachineConfig) -> MachineConfig:
        """``config`` with this profile's hardware constants applied.

        ``nprocs`` and ``derived`` pass through untouched.  An empty
        overlay returns the config unchanged (same object), which keeps
        ``origin2000`` structurally identical to the default.
        """
        if not self.overrides:
            return config
        return config.with_(**dict(self.overrides))

    def describe(self) -> str:
        """Multi-line human-readable form (CLI ``profiles describe``)."""
        lines = [f"{self.name}: {self.description}"]
        if not self.overrides:
            lines.append("  (no overrides — the MachineConfig defaults)")
        else:
            default = MachineConfig()
            for field_name, value in self.overrides:
                lines.append(
                    f"  {field_name:<24} {value!r}"
                    f"  (default {getattr(default, field_name)!r})"
                )
        return "\n".join(lines)


#: the built-in hardware profile registry
PROFILES: Dict[str, MachineProfile] = {}


def _register(profile: MachineProfile) -> MachineProfile:
    if profile.name in PROFILES:
        raise ValueError(f"duplicate profile name {profile.name!r}")
    PROFILES[profile.name] = profile
    return profile


_register(
    MachineProfile(
        name="origin2000",
        description=(
            "SGI Origin2000 (250 MHz R10000, bristled fat hypercube) — "
            "the paper's machine and the config default"
        ),
        overrides=(),
    )
)

_register(
    MachineProfile(
        name="numa-epyc",
        description=(
            "one modern fat NUMA node: 16 cores per die, coherent fabric "
            "between dies, large caches, ~10x lower software overheads"
        ),
        overrides=(
            ("cpus_per_node", 16),          # a die ("node") holds 16 cores
            ("nodes_per_router", 4),        # 4 dies per on-package fabric hop
            ("clock_mhz", 2500.0),
            ("l2_bytes", 32 * 1024 * 1024),
            ("l2_hit_ns", 12.0),
            ("local_mem_ns", 90.0),
            ("remote_hop_ns", 40.0),        # die-to-die adder, not a network
            ("dirty_extra_ns", 60.0),
            ("inval_base_ns", 30.0),
            ("inval_per_sharer_ns", 8.0),
            ("mem_bandwidth_bpns", 40.0),   # ~40 GB/s per die
            ("link_bandwidth_bpns", 32.0),  # on-package fabric
            ("router_hop_ns", 15.0),
            ("hub_ns", 20.0),
            ("intra_node_copy_bpns", 40.0),
            ("deep_hop_extra_ns", 0.0),     # no long cables inside a package
            ("mpi_os_ns", 600.0),           # shared-memory MPI transport
            ("mpi_or_ns", 500.0),
            ("mpi_rendezvous_ns", 400.0),
            ("mpi_copy_bpns", 8.0),
            ("shmem_op_ns", 60.0),
            ("shmem_copy_bpns", 12.0),
            ("lock_rmw_ns", 50.0),
            ("barrier_base_ns", 100.0),
            # per-element kernel costs on a multi-GHz superscalar core
            ("flop_ns", 0.8),
            ("edge_update_ns", 80.0),
            ("body_interact_ns", 16.0),
            ("tree_node_ns", 40.0),
            ("mesh_op_ns", 300.0),
            ("partition_op_ns", 120.0),
            ("point_update_ns", 15.0),
        ),
    )
)

_register(
    MachineProfile(
        name="fat-tree-cluster",
        description=(
            "commodity cluster through a non-blocking fat-tree core: "
            "NIC-dominated messaging, uniform remote latency, shared "
            "memory only by expensive software emulation"
        ),
        overrides=(
            ("topology", "fattree"),
            ("cpus_per_node", 8),           # one host = one "node"
            ("nodes_per_router", 1),
            ("clock_mhz", 2000.0),
            ("l2_bytes", 16 * 1024 * 1024),
            ("l2_hit_ns", 15.0),
            ("local_mem_ns", 100.0),
            # crossing the network for a cache line is a software round
            # trip, not a hardware miss
            ("remote_hop_ns", 900.0),
            ("dirty_extra_ns", 4000.0),
            ("inval_base_ns", 2000.0),
            ("inval_per_sharer_ns", 500.0),
            ("mem_bandwidth_bpns", 20.0),
            ("link_bandwidth_bpns", 12.5),  # ~100 Gb/s NIC
            ("router_hop_ns", 250.0),       # switch traversal
            ("hub_ns", 600.0),              # NIC injection/ejection
            ("intra_node_copy_bpns", 20.0),
            ("deep_hop_extra_ns", 0.0),
            ("mpi_eager_bytes", 64 * 1024),
            ("mpi_os_ns", 1500.0),          # kernel-bypass NIC send
            ("mpi_or_ns", 1200.0),
            ("mpi_rendezvous_ns", 2500.0),
            ("mpi_copy_bpns", 6.0),
            ("shmem_op_ns", 1800.0),        # one-sided over the NIC (RDMA-ish)
            ("shmem_copy_bpns", 8.0),
            ("lock_rmw_ns", 6000.0),        # software DSM lock: network RTT
            ("barrier_base_ns", 9000.0),
            ("sas_contention_alpha", 3.0),
            # per-element kernel costs on a 2 GHz core
            ("flop_ns", 1.0),
            ("edge_update_ns", 100.0),
            ("body_interact_ns", 20.0),
            ("tree_node_ns", 50.0),
            ("mesh_op_ns", 375.0),
            ("partition_op_ns", 150.0),
            ("point_update_ns", 19.0),
        ),
    )
)

_register(
    MachineProfile(
        name="dragonfly",
        description=(
            "low-diameter bandwidth-rich interconnect: router groups "
            "all-to-all, <= 3 hops between any two nodes, fat links, "
            "long global cables pay a flight-time surcharge"
        ),
        overrides=(
            ("topology", "dragonfly"),
            ("dragonfly_group", 4),
            ("cpus_per_node", 4),
            ("nodes_per_router", 2),
            ("clock_mhz", 2000.0),
            ("l2_bytes", 16 * 1024 * 1024),
            ("l2_hit_ns", 15.0),
            ("local_mem_ns", 100.0),
            ("remote_hop_ns", 120.0),       # hardware-supported remote access
            ("dirty_extra_ns", 250.0),
            ("inval_base_ns", 80.0),
            ("inval_per_sharer_ns", 20.0),
            ("mem_bandwidth_bpns", 25.0),
            ("link_bandwidth_bpns", 25.0),  # ~200 Gb/s per link
            ("router_hop_ns", 100.0),
            ("hub_ns", 80.0),
            ("intra_node_copy_bpns", 25.0),
            ("deep_hop_extra_ns", 400.0),   # global-cable flight time
            ("mpi_os_ns", 900.0),
            ("mpi_or_ns", 700.0),
            ("mpi_rendezvous_ns", 800.0),
            ("mpi_copy_bpns", 6.0),
            ("shmem_op_ns", 250.0),         # NIC-offloaded one-sided put/get
            ("shmem_copy_bpns", 10.0),
            ("lock_rmw_ns", 900.0),
            ("barrier_base_ns", 1200.0),
            # per-element kernel costs on a 2 GHz core
            ("flop_ns", 1.0),
            ("edge_update_ns", 100.0),
            ("body_interact_ns", 20.0),
            ("tree_node_ns", 50.0),
            ("mesh_op_ns", 375.0),
            ("partition_op_ns", 150.0),
            ("point_update_ns", 19.0),
        ),
    )
)


def resolve_machine_profile(
    spec: Union[None, str, MachineProfile],
) -> Optional[MachineProfile]:
    """Resolve a profile spec: ``None``, a registry name, or an instance.

    ``None`` means "no profile" — callers leave the config untouched, which
    is the bit-identical default path.  Unknown names raise ``ValueError``
    with the nearest registered name suggested (the CLI surfaces this as a
    friendly ``error:`` line).
    """
    if spec is None:
        return None
    if isinstance(spec, MachineProfile):
        return spec
    if isinstance(spec, str):
        profile = PROFILES.get(spec)
        if profile is None:
            hint = ""
            close = difflib.get_close_matches(spec, sorted(PROFILES), n=1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            raise ValueError(
                f"unknown machine profile {spec!r}{hint}; "
                f"choose from {sorted(PROFILES)}"
            )
        return profile
    raise TypeError(
        f"machine profile spec must be None, a name, or a MachineProfile, "
        f"got {type(spec).__name__}"
    )


def machine_profile_signature(
    spec: Union[None, str, MachineProfile],
) -> Optional[str]:
    """The profile's contribution to a run signature / cache key.

    Registered profiles whose overlay matches the registry entry sign as
    their name; a custom or modified :class:`MachineProfile` signs as its
    full canonical ``repr`` so two same-named profiles that differ in one
    constant can never alias in the experiment cache or serving store.
    ``None`` signs as ``None`` (the default machine).
    """
    profile = resolve_machine_profile(spec)
    if profile is None:
        return None
    registered = PROFILES.get(profile.name)
    if registered is not None and registered == profile:
        return profile.name
    return repr(profile)
