"""Physical address space, page placement, and home-node resolution.

The simulated machine has a single flat physical address space carved out by
a bump allocator.  Every page has a *home node* whose memory (and directory
slice) serves it.  Placement policies:

``first-touch``
    The page's home is the node of the first CPU to touch it (IRIX default —
    and the policy that makes or breaks CC-SAS performance on the
    Origin2000).
``round-robin``
    Pages are interleaved across nodes by page number.
``fixed``
    All pages on one node (the pathological baseline in experiment R-F4).

Explicit :meth:`place` overrides the policy — the SHMEM symmetric heap and
MPI buffers use it to pin each rank's memory to its own node.

The page→home map is a flat NumPy array indexed by page number (-1 =
unplaced); the address space is dense (bump-allocated), so this stays small
and lets :meth:`homes_of_lines` resolve a whole batch of cache lines —
applying the placement policy to any first-touched pages — in a few array
operations.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.machine.config import MachineConfig

__all__ = ["MemorySystem", "PLACEMENT_POLICIES"]

PLACEMENT_POLICIES = ("first-touch", "round-robin", "fixed")


class MemorySystem:
    """Bump allocator + page→home-node map."""

    def __init__(self, config: MachineConfig, policy: str = "first-touch", fixed_node: int = 0):
        base_policy = policy.split(":")[0]
        if base_policy not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {policy!r}; choose from {PLACEMENT_POLICIES}")
        if ":" in policy:  # allow "fixed:3"
            fixed_node = int(policy.split(":", 1)[1])
        self.config = config
        self.policy = base_policy
        self.fixed_node = fixed_node
        if not 0 <= fixed_node < config.nnodes:
            raise ValueError(f"fixed_node {fixed_node} out of range [0, {config.nnodes})")
        self._next_addr = config.page_bytes  # keep page 0 unused (null guard)
        self._home = np.full(64, -1, dtype=np.int32)  # page -> home node
        self.pages_placed = 0

    def _ensure_pages(self, max_page: int) -> None:
        if max_page < self._home.size:
            return
        cap = max(2 * self._home.size, max_page + 1)
        grown = np.full(cap, -1, dtype=np.int32)
        grown[: self._home.size] = self._home
        self._home = grown

    # -- allocation ------------------------------------------------------------

    def alloc(self, nbytes: int, page_aligned: bool = False) -> int:
        """Reserve ``nbytes`` and return the base address."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        align = self.config.page_bytes if page_aligned else self.config.line_bytes
        base = -(-self._next_addr // align) * align
        self._next_addr = base + nbytes
        return base

    # -- placement ------------------------------------------------------------

    def page_of(self, addr: int) -> int:
        return addr // self.config.page_bytes

    def place(self, addr: int, nbytes: int, node: int) -> None:
        """Pin every page of ``[addr, addr+nbytes)`` to ``node``."""
        if not 0 <= node < self.config.nnodes:
            raise ValueError(f"node {node} out of range [0, {self.config.nnodes})")
        first = self.page_of(addr)
        last = self.page_of(addr + max(nbytes, 1) - 1)
        self._ensure_pages(last)
        span = self._home[first : last + 1]
        self.pages_placed += int((span == -1).sum())
        span[:] = node

    def _policy_home(self, page: int, accessor_node: int) -> int:
        if self.policy == "first-touch":
            return accessor_node % self.config.nnodes
        if self.policy == "round-robin":
            return page % self.config.nnodes
        return self.fixed_node

    def home_of_line(self, line: int, line_bytes: int, accessor_node: int) -> int:
        """Home node of a cache line, applying the policy on first touch."""
        return self.home_of(line * line_bytes, accessor_node)

    def home_of(self, addr: int, accessor_node: int) -> int:
        page = self.page_of(addr)
        self._ensure_pages(page)
        home = self._home.item(page)
        if home >= 0:
            return home
        home = self._policy_home(page, accessor_node)
        self._home[page] = home
        self.pages_placed += 1
        return home

    def homes_of_lines(
        self, lines: np.ndarray, line_bytes: int, accessor_node: int
    ) -> np.ndarray:
        """Vectorised :meth:`home_of_line` over a batch of cache lines.

        First-touched pages are placed exactly as the scalar path would —
        within one batch every line is touched by the same accessor, so the
        resulting placement is order-independent and identical.
        """
        pages = (lines * line_bytes) // self.config.page_bytes
        self._ensure_pages(int(pages.max(initial=0)))
        homes = self._home[pages]
        unplaced = homes < 0
        if unplaced.any():
            new_pages = np.unique(pages[unplaced])
            if self.policy == "first-touch":
                vals = np.full(new_pages.size, accessor_node % self.config.nnodes, np.int32)
            elif self.policy == "round-robin":
                vals = (new_pages % self.config.nnodes).astype(np.int32)
            else:
                vals = np.full(new_pages.size, self.fixed_node, np.int32)
            self._home[new_pages] = vals
            self.pages_placed += int(new_pages.size)
            homes = self._home[pages]
        return homes

    def placement_histogram(self) -> Dict[int, int]:
        """pages-per-node (diagnostics for the placement experiment)."""
        hist: Dict[int, int] = {n: 0 for n in range(self.config.nnodes)}
        placed = self._home[self._home >= 0]
        counts = np.bincount(placed, minlength=self.config.nnodes)
        for n in range(self.config.nnodes):
            hist[n] += int(counts[n])
        return hist

    def peek_home(self, addr: int) -> Optional[int]:
        """Home of a page if already placed, else None (does not place)."""
        page = self.page_of(addr)
        if page >= self._home.size:
            return None
        home = self._home.item(page)
        return home if home >= 0 else None
