"""Fault profiles: named, seeded descriptions of what goes wrong and when.

A :class:`FaultProfile` bundles every knob of the injection layer —
per-hop link fault rates, directory NACK rates, the injection window, and
the recovery parameters (retransmission timeout, backoff, retry bounds)
the model runtimes use to survive the faults.  Profiles are immutable and
hashable so a (profile, seed) pair fully determines a run: two simulations
with the same profile, seed, and workload are bit-identical.

Named presets live in :data:`PROFILES`; resolve user input (a name, a
``FaultProfile``, or ``None``) with :func:`resolve_profile`.

Beyond the i.i.d. rates, a profile may describe **correlated** faults: a
per-element Gilbert–Elliott two-state chain (good/bad) stepped once per
link traversal (or directory transaction), scoped to named *failure
domains* — ``router:<id>`` (every inter-router link touching one router),
``link:<kind>[:<dim>]`` (every link of a topology kind, e.g. the dim-1
hypercube links), and ``dir:<node>`` (one home directory).  The chain's
closed forms — stationary bad-state occupancy ``p/(p+r)``, mean burst
length ``1/r`` — are exposed as properties so tests can check the
empirical injection against them.  ``fault_aware=True`` additionally
feeds the stationary per-link expectations into PLUM's processor
reassignment (see :mod:`repro.plum.faultaware`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["FaultProfile", "PROFILES", "resolve_profile", "parse_domain"]


def parse_domain(spec: str) -> Tuple:
    """Parse one failure-domain selector into its canonical tuple form.

    ``router:3`` -> ``("router", 3)``; ``link:cube:1`` -> ``("link",
    "cube", 1)``; ``link:global`` -> ``("link", "global", None)``;
    ``dir:5`` -> ``("dir", 5)``.  Raises ``ValueError`` on anything else.
    """
    parts = spec.split(":")
    try:
        if parts[0] == "router" and len(parts) == 2:
            return ("router", int(parts[1]))
        if parts[0] == "dir" and len(parts) == 2:
            return ("dir", int(parts[1]))
        if parts[0] == "link" and len(parts) in (2, 3) and parts[1]:
            dim = int(parts[2]) if len(parts) == 3 else None
            return ("link", parts[1], dim)
    except ValueError:
        pass
    raise ValueError(
        f"bad failure domain {spec!r}; expected router:<id>, "
        "link:<kind>[:<dim>], or dir:<node>"
    )


@dataclass(frozen=True)
class FaultProfile:
    """All tunable parameters of fault injection and recovery.

    Rates are probabilities in ``[0, 1]``; times are simulated
    nanoseconds.  ``drop_rate`` and ``delay_rate`` are evaluated *per
    router hop* of a transfer's route (longer routes fail more often, as
    on a real interconnect); ``dup_rate`` and ``nack_rate`` are evaluated
    once per transfer / directory transaction.
    """

    name: str = "none"
    seed: int = 1
    # -- link faults (evaluated in Network.transfer) ----------------------
    drop_rate: float = 0.0       # per-hop: the message dies in flight
    dup_rate: float = 0.0        # per-transfer: a spurious duplicate follows
    delay_rate: float = 0.0      # per-hop: transient link stall
    delay_ns: float = 0.0        # length of one stall
    # -- directory faults (evaluated in Directory.transaction) -------------
    nack_rate: float = 0.0       # per-transaction: home directory NACKs
    nack_retry_ns: float = 600.0  # requester backoff + replay per bounce
    max_nacks: int = 4           # bound on consecutive NACKs of one access
    # -- injection window (simulated ns; faults only inside [start, end)) ---
    window_ns: Tuple[float, float] = (0.0, math.inf)
    # -- recovery parameters (used by the model runtimes) -------------------
    retry_timeout_ns: float = 25_000.0  # first retransmission timer
    retry_backoff: float = 2.0          # timer multiplier per retry
    max_retries: int = 12               # retransmissions before giving up
    ack_bytes: int = 64                 # wire size of a delivery ack
    # -- correlated (Gilbert–Elliott) burst faults --------------------------
    # per-element chains, scoped to `domains`; inert while domains is empty
    ge_p: float = 0.0            # per-traversal good -> bad transition prob
    ge_r: float = 1.0            # per-traversal bad -> good recovery prob
    ge_loss_good: float = 0.0    # per-traversal drop prob in the good state
    ge_loss_bad: float = 0.0     # per-traversal drop prob in the bad state
    ge_stall_bad_ns: float = 0.0  # extra stall per bad-state traversal
    ge_nack_bad: float = 0.0     # NACK prob while a `dir:` home is bad
    domains: Tuple[str, ...] = ()  # router:<id> | link:<kind>[:<dim>] | dir:<node>
    # feed stationary link penalties into PLUM's processor reassignment
    fault_aware: bool = False
    # -- collective-aware MPI recovery (subtree re-subscribe) ---------------
    # a dropped collective-tree message is recovered by the child
    # re-subscribing to its parent (small request + retransmit) instead of
    # the sender's exponential-backoff timer
    coll_resubscribe: bool = True
    coll_detect_ns: float = 2_000.0  # child's gap-detection lag per attempt

    def __post_init__(self) -> None:
        for field_name in (
            "drop_rate", "dup_rate", "delay_rate", "nack_rate",
            "ge_p", "ge_r", "ge_loss_good", "ge_loss_bad", "ge_nack_bad",
        ):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {v}")
        if self.max_retries < 1 or self.max_nacks < 0:
            raise ValueError("max_retries must be >= 1 and max_nacks >= 0")
        if self.retry_timeout_ns <= 0 or self.retry_backoff < 1.0:
            raise ValueError("retry_timeout_ns must be > 0 and retry_backoff >= 1")
        if self.ge_stall_bad_ns < 0 or self.coll_detect_ns < 0:
            raise ValueError("ge_stall_bad_ns and coll_detect_ns must be >= 0")
        if self.ge_p > 0 and self.ge_r <= 0:
            raise ValueError("ge_r must be > 0 when ge_p > 0 (bursts must end)")
        if self.domains and self.ge_p <= 0:
            raise ValueError("failure domains need ge_p > 0 to ever go bad")
        for d in self.domains:
            parse_domain(d)  # syntax check; binding happens per topology
        lo, hi = self.window_ns
        if lo < 0 or hi < lo:
            raise ValueError(f"bad injection window {self.window_ns}")

    @property
    def correlated(self) -> bool:
        """True when per-element Gilbert–Elliott chains are in play."""
        return bool(self.domains) and self.ge_p > 0

    @property
    def ge_stationary_bad(self) -> float:
        """Closed-form stationary bad-state occupancy ``p / (p + r)``."""
        if self.ge_p <= 0:
            return 0.0
        return self.ge_p / (self.ge_p + self.ge_r)

    @property
    def ge_stationary_loss(self) -> float:
        """Closed-form stationary per-traversal drop probability."""
        pi_b = self.ge_stationary_bad
        return (1.0 - pi_b) * self.ge_loss_good + pi_b * self.ge_loss_bad

    @property
    def ge_mean_burst(self) -> float:
        """Closed-form mean bad-state sojourn, in traversals (``1 / r``)."""
        return 1.0 / self.ge_r if self.ge_r > 0 else math.inf

    def parsed_domains(self) -> List[Tuple]:
        """Every domain selector in canonical tuple form."""
        return [parse_domain(d) for d in self.domains]

    @property
    def any_faults(self) -> bool:
        """True if this profile can inject anything at all."""
        return (
            self.drop_rate > 0
            or self.dup_rate > 0
            or self.delay_rate > 0
            or self.nack_rate > 0
            or self.correlated
        )

    def with_(self, **overrides) -> "FaultProfile":
        """A copy with some parameters replaced (profiles are immutable)."""
        return replace(self, **overrides)


#: the named presets accepted by ``--faults`` and :func:`resolve_profile`
PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "drizzle": FaultProfile(
        name="drizzle", drop_rate=0.01, delay_rate=0.02, delay_ns=1_000.0,
        nack_rate=0.002,
    ),
    "lossy": FaultProfile(
        name="lossy", drop_rate=0.03, dup_rate=0.02, delay_rate=0.05,
        delay_ns=2_000.0, nack_rate=0.01,
    ),
    "stress": FaultProfile(
        name="stress", drop_rate=0.08, dup_rate=0.05, delay_rate=0.10,
        delay_ns=4_000.0, nack_rate=0.03, max_nacks=6,
    ),
    "nacky": FaultProfile(name="nacky", nack_rate=0.05),
    "flaky-links": FaultProfile(
        name="flaky-links", delay_rate=0.20, delay_ns=5_000.0
    ),
    # -- correlated presets (Gilbert–Elliott burst chains) ------------------
    # mean burst 1/r = 4 traversals, stationary bad occupancy p/(p+r) = 1/6
    "bursty-links": FaultProfile(
        name="bursty-links", ge_p=0.05, ge_r=0.25, ge_loss_bad=0.6,
        ge_stall_bad_ns=4_000.0, domains=("link:cube:1",),
    ),
    "bursty-router": FaultProfile(
        name="bursty-router", ge_p=0.05, ge_r=0.25, ge_loss_bad=0.6,
        ge_stall_bad_ns=4_000.0, domains=("router:0",),
    ),
    "bursty-dir": FaultProfile(
        name="bursty-dir", ge_p=0.05, ge_r=0.25, ge_nack_bad=0.5,
        domains=("dir:0", "dir:1"),
    ),
}

# keys accepted in a ``gilbert:k=v,...`` spec -> FaultProfile field + parser
_GILBERT_KEYS = {
    "p": ("ge_p", float),
    "r": ("ge_r", float),
    "loss": ("ge_loss_bad", float),
    "loss_good": ("ge_loss_good", float),
    "stall": ("ge_stall_bad_ns", float),
    "nack": ("ge_nack_bad", float),
    "seed": ("seed", int),
    "aware": ("fault_aware", lambda v: v.lower() in ("1", "true", "on", "yes")),
}


def _parse_gilbert(spec: str) -> FaultProfile:
    """``gilbert:p=0.05,r=0.25,loss=0.6,domains=link:cube:1+router:0``."""
    body = spec[len("gilbert:"):]
    kwargs: Dict[str, object] = {
        "name": spec, "ge_p": 0.05, "ge_r": 0.25, "ge_loss_bad": 0.6,
    }
    for pair in filter(None, body.split(",")):
        key, eq, value = pair.partition("=")
        if not eq:
            raise ValueError(f"gilbert spec item {pair!r} is not key=value")
        if key == "domains":
            kwargs["domains"] = tuple(filter(None, value.split("+")))
        elif key in _GILBERT_KEYS:
            field_name, conv = _GILBERT_KEYS[key]
            try:
                kwargs[field_name] = conv(value)
            except ValueError:
                raise ValueError(
                    f"gilbert spec item {pair!r} has a bad value"
                ) from None
        else:
            raise ValueError(
                f"unknown gilbert spec key {key!r}; "
                f"choose from domains, {', '.join(sorted(_GILBERT_KEYS))}"
            )
    kwargs.setdefault("domains", ("link:cube:1",))
    return FaultProfile(**kwargs)  # type: ignore[arg-type]


def resolve_profile(
    spec: Union[None, str, FaultProfile], seed: Optional[int] = None
) -> FaultProfile:
    """Resolve a profile spec to a :class:`FaultProfile`.

    Accepts ``None`` (the inert ``"none"`` profile), a preset name from
    :data:`PROFILES`, a ``gilbert:key=value,...`` correlated-fault spec
    (keys: ``p``, ``r``, ``loss``, ``loss_good``, ``stall``, ``nack``,
    ``seed``, ``aware``, and ``domains`` with ``+``-separated selectors),
    or an existing profile (passed through).  ``seed``, when given,
    overrides the profile's seed.
    """
    if spec is None:
        profile = PROFILES["none"]
    elif isinstance(spec, FaultProfile):
        profile = spec
    elif isinstance(spec, str):
        if spec.startswith("gilbert:") or spec == "gilbert":
            profile = _parse_gilbert(spec if ":" in spec else "gilbert:")
        else:
            try:
                profile = PROFILES[spec]
            except KeyError:
                raise ValueError(
                    f"unknown fault profile {spec!r}; choose from "
                    f"{sorted(PROFILES)} or a gilbert:... spec"
                ) from None
    else:
        raise TypeError(f"fault profile spec must be None, str, or FaultProfile, got {type(spec)}")
    if seed is not None and seed != profile.seed:
        profile = profile.with_(seed=seed)
    return profile
