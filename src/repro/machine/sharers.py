"""Directory sharer representations: exact, coarse-vector, limited-pointer.

The Origin2000 directory entry stores a presence *bit-vector* only up to a
fixed hardware width (64 bits in the large-entry format).  Machines beyond
that width switch to a **coarse vector** — each bit covers a group of CPUs,
so a write invalidates every CPU in every marked group — or to a
**limited-pointer** scheme that tracks a handful of exact sharer pointers
and broadcasts once they overflow.

The simulator always keeps the *exact* sharer set as protocol ground
truth — one bitmask per line, a Python int with bit ``c`` set while CPU
``c`` holds a copy — so caches are invalidated precisely and cache state
never diverges between schemes.  The scheme only decides, from that mask,
how many invalidation messages the directory has to *bill* for a write:
the imprecision cost of the compressed representation.  At
``nprocs <= dir_exact_width`` the default scheme is the exact bit-vector
and billing is identical to the historical full-bit-vector model, bit
for bit.

Selection (``config.derived["dir_sharers"]``):

=================  ==========================================================
``"auto"``         exact when ``nprocs <= dir_exact_width``, else the
                   narrowest coarse vector that fits (default)
``"exact"``        full bit-vector; raises if ``nprocs`` exceeds the width
``"coarse"``       coarse vector sized to fit the width
``"coarse:G"``     coarse vector with an explicit group size ``G``
``"ptr:K"``        ``K`` exact pointers, broadcast on overflow
=================  ==========================================================
"""

from __future__ import annotations

from repro.machine.config import MachineConfig

__all__ = [
    "SharerScheme",
    "ExactSharers",
    "CoarseSharers",
    "LimitedPointerSharers",
    "sharer_scheme_from_config",
]


class SharerScheme:
    """How the directory entry represents (and bills) the sharer set."""

    name = "abstract"

    def billable(self, sharers: int, cpu: int, exact_k: int) -> int:
        """Invalidations the directory sends for a write by ``cpu``.

        ``sharers`` is the line's exact sharer bitmask (bit ``c`` set while
        CPU ``c`` holds a copy) and ``exact_k`` the true victim count
        (sharers other than ``cpu``, plus a non-sharing owner if the
        protocol ever produced one).
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class ExactSharers(SharerScheme):
    """Full presence bit-vector — bills exactly the true sharers."""

    name = "exact"

    def __init__(self, width: int):
        self.width = width

    def billable(self, sharers: int, cpu: int, exact_k: int) -> int:
        return exact_k

    def describe(self) -> str:
        return f"exact bit-vector ({self.width}-bit entry)"


class CoarseSharers(SharerScheme):
    """Each bit covers ``group`` CPUs; writes invalidate whole groups.

    Every CPU in a marked group receives an invalidation (except the
    writer itself), whether or not it actually shares the line — the
    spurious messages are the classic coarse-vector overshoot.  Actual
    cache drops still hit only the true sharers, so protocol state stays
    exact.
    """

    name = "coarse"

    def __init__(self, group: int, nprocs: int):
        if group < 1:
            raise ValueError(f"coarse group size must be >= 1, got {group}")
        self.group = group
        self.nprocs = nprocs
        self.bits = -(-nprocs // group)  # ceil: coarse-vector width in bits

    def billable(self, sharers: int, cpu: int, exact_k: int) -> int:
        g = self.group
        covered = 0
        rest = sharers
        while rest:  # one step per marked group, lowest first
            start = (rest & -rest).bit_length() - 1
            start -= start % g
            covered += min(g, self.nprocs - start)
            rest &= -1 << (start + g)  # drop the rest of this group
        start = cpu - cpu % g
        if (sharers >> start) & ((1 << g) - 1):
            covered -= 1  # the writer never invalidates itself
        return covered

    def describe(self) -> str:
        return f"coarse vector (group={self.group}, {self.bits} bits)"


class LimitedPointerSharers(SharerScheme):
    """``pointers`` exact sharer pointers; overflow falls back to broadcast."""

    name = "ptr"

    def __init__(self, pointers: int, nprocs: int):
        if pointers < 1:
            raise ValueError(f"pointer count must be >= 1, got {pointers}")
        self.pointers = pointers
        self.nprocs = nprocs

    def billable(self, sharers: int, cpu: int, exact_k: int) -> int:
        if (sharers & ~(1 << cpu)).bit_count() <= self.pointers:
            return exact_k
        return self.nprocs - 1  # overflow: invalidate everyone else

    def describe(self) -> str:
        return f"limited pointers ({self.pointers} entries, broadcast on overflow)"


def sharer_scheme_from_config(config: MachineConfig) -> SharerScheme:
    """Resolve the sharer scheme for a machine; width-checks exact mode."""
    spec = str(config.derived.get("dir_sharers", "auto")).strip().lower()
    width = config.dir_exact_width
    nprocs = config.nprocs
    if spec in ("", "auto"):
        if nprocs <= width:
            return ExactSharers(width)
        return CoarseSharers(-(-nprocs // width), nprocs)
    if spec == "exact":
        if nprocs > width:
            raise ValueError(
                f"dir_sharers='exact' needs nprocs <= dir_exact_width "
                f"({width}), got nprocs={nprocs}; use 'coarse' or 'ptr:K' "
                "past the bit-vector width"
            )
        return ExactSharers(width)
    if spec == "coarse":
        return CoarseSharers(max(1, -(-nprocs // width)), nprocs)
    if spec.startswith("coarse:"):
        return CoarseSharers(int(spec.split(":", 1)[1]), nprocs)
    if spec.startswith("ptr:"):
        return LimitedPointerSharers(int(spec.split(":", 1)[1]), nprocs)
    raise ValueError(
        f"unknown dir_sharers scheme {spec!r}; expected auto, exact, "
        "coarse[:G] or ptr:K"
    )
