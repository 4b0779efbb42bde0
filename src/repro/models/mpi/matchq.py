"""Fast MPI match queues (unexpected-message and posted-receive lists).

MPI matching is FIFO-first-match: a probe scans the queue in append order
and takes the first entry whose ``(source, tag)`` is compatible, where
``-1`` (``ANY_SOURCE`` / ``ANY_TAG``) is a wildcard on either side.  The
straightforward list scan is O(queue length) *per Python step*, which
dominates host time once unexpected queues grow deep (flood patterns,
reversed-order drains, P=128 halo exchanges).

:class:`MatchQueue` answers a probe with:

* an O(1) head check first — the in-order sequence-run case (messages
  drained in arrival order) costs two integer compares, then
* an O(1) bucket lookup in a ``(src, tag) -> positions`` index when both
  the probe and every live entry carry concrete keys (the mailbox common
  case — out-of-order drains land here instead of scanning), and
* a vectorised NumPy compare + ``argmax`` over the live slab when
  wildcards are involved and the queue is deep, falling back to a plain
  Python scan on shallow queues.

Popped slots become holes (sentinel ``-2``, distinct from the ``-1``
wildcard) and the dead prefix is trimmed lazily; index buckets keep stale
positions until they surface and are skipped (``items[pos] is None``), so
pops never pay a deque removal.  Matching *order* is byte-for-byte the
list-scan order, so simulated time cannot depend on which route answered
a probe.  The vector route pays only on deep wildcard probes: on a P=8
``ANY_SOURCE`` flood 384 messages deep it takes host time from 0.76 s to
0.53 s (2-vCPU Xeon, Python 3.11, NumPy 2.4), while below ~128 live
entries it is no faster than the scan.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.profile import PROFILER

__all__ = ["MatchQueue", "ANY", "DEAD"]

ANY = -1   # wildcard source/tag (== mpi.ANY_SOURCE / mpi.ANY_TAG)
DEAD = -2  # popped slot sentinel

#: below this many live entries the plain Python scan beats NumPy setup
_MIN_VECTOR = 32


class MatchQueue:
    """FIFO queue with first-match retrieval on ``(source, tag)`` keys."""

    __slots__ = (
        "_items", "_src", "_tag", "_head", "_size", "_nwild", "_index",
        "head_hits", "index_hits", "vector_scans", "scalar_scans",
    )

    def __init__(self):
        self._items: List[Any] = []
        self._src: List[int] = []
        self._tag: List[int] = []
        self._head = 0          # first slot that may still be live
        self._size = 0          # live entries
        self._nwild = 0         # live entries carrying a wildcard key
        # (src, tag) -> append-ordered positions of concrete-key entries;
        # positions go stale when popped via another route and are skipped
        # lazily, so the deques never need mid-queue removal
        self._index: Dict[Tuple[int, int], deque] = {}
        self.head_hits = 0      # O(1) in-order matches
        self.index_hits = 0     # O(1) bucket-index matches
        self.vector_scans = 0   # NumPy first-match scans
        self.scalar_scans = 0   # Python-loop scans

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Any]:
        """Live items in append order (used by ``iprobe`` and tests)."""
        for item in self._items[self._head:]:
            if item is not None:
                yield item

    def append(self, item: Any, src: int, tag: int) -> None:
        self._items.append(item)
        self._src.append(src)
        self._tag.append(tag)
        self._size += 1
        if src == ANY or tag == ANY:
            self._nwild += 1
        else:
            bucket = self._index.get((src, tag))
            if bucket is None:
                self._index[(src, tag)] = bucket = deque()
            bucket.append(len(self._items) - 1)

    # -- first-match retrieval -------------------------------------------------

    @staticmethod
    def _compatible(a: int, b: int) -> bool:
        return a == ANY or b == ANY or a == b

    def pop_first(self, src: int, tag: int) -> Optional[Any]:
        """Remove and return the first entry compatible with ``(src, tag)``."""
        if not PROFILER.enabled:
            return self._pop_first(src, tag)
        t0 = time.perf_counter()
        try:
            return self._pop_first(src, tag)
        finally:
            PROFILER.add("mpi-match", time.perf_counter() - t0)

    def _pop_first(self, src: int, tag: int) -> Optional[Any]:
        items = self._items
        n = len(items)
        h = self._head
        while h < n and items[h] is None:  # trim the dead prefix
            h += 1
        self._head = h
        if self._size == 0:
            if n:  # everything popped: recycle the storage
                items.clear()
                self._src.clear()
                self._tag.clear()
                self._head = 0
                self._index.clear()
            return None
        # O(1) head probe — the in-order drain case
        hs = self._src[h]
        ht = self._tag[h]
        if (src == ANY or hs == ANY or src == hs) and (
            tag == ANY or ht == ANY or tag == ht
        ):
            self.head_hits += 1
            return self._pop_at(h)
        if src != ANY and tag != ANY and self._nwild == 0:
            # concrete keys on both sides and no wildcard entries live: the
            # bucket's first live position IS the global first match, and an
            # empty bucket proves no entry is compatible
            bucket = self._index.get((src, tag))
            if bucket:
                while bucket:
                    pos = bucket.popleft()
                    if items[pos] is not None:
                        self.index_hits += 1
                        return self._pop_at(pos)
            return None
        if self._size >= _MIN_VECTOR:
            self.vector_scans += 1
            s = np.fromiter(self._src[h:n], dtype=np.int64, count=n - h)
            t = np.fromiter(self._tag[h:n], dtype=np.int64, count=n - h)
            ms = (s != DEAD) if src == ANY else ((s == src) | (s == ANY))
            mt = (t != DEAD) if tag == ANY else ((t == tag) | (t == ANY))
            mask = ms & mt
            i = int(mask.argmax())
            if not mask[i]:
                return None
            return self._pop_at(h + i)
        self.scalar_scans += 1
        srcs = self._src
        tags = self._tag
        for i in range(h + 1, n):
            if items[i] is None:
                continue
            if self._compatible(src, srcs[i]) and self._compatible(tag, tags[i]):
                return self._pop_at(i)
        return None

    def _pop_at(self, i: int) -> Any:
        item = self._items[i]
        if self._src[i] == ANY or self._tag[i] == ANY:
            self._nwild -= 1
        self._items[i] = None
        self._src[i] = DEAD
        self._tag[i] = DEAD
        self._size -= 1
        return item
