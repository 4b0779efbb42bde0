"""Per-processor L2 cache model (set-associative, LRU, write-back).

The cache tracks *which* lines are resident and whether they are dirty; the
actual data lives once in the shared NumPy arrays (this is a cost model, not
a value model).  The directory calls :meth:`drop` to enforce invalidations
and downgrades, keeping the cache contents consistent with the protocol
state.

State is held in flat NumPy arrays — per-set way tags, dirty bits and LRU
stamps — so that the batched memory-system fast path
(:meth:`repro.machine.directory.Directory.transaction_batch`) can probe and
update thousands of lines per NumPy call.  The scalar :meth:`access` API is
unchanged and bit-identical to the historical ``OrderedDict`` model: stamps
are a global monotonic clock, so "minimum stamp among occupied ways" is
exactly the old insertion/move-to-end LRU order.

Way rows exist only for sets ``[0, rows)`` and grow on demand in
power-of-two steps up to ``sets`` (the pattern of
:meth:`repro.machine.directory.Directory._ensure_lines`): a machine's
caches hold no way state until a CC-SAS access installs a line, and a
read of a set past ``rows`` reports "not present" without allocating.
The geometry is unchanged: a set that has no row yet is simply an empty
set, so hits, victims, stamps and :meth:`occupancy`'s ``sets * assoc``
denominator are what a fully allocated cache would give.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["CacheModel"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


class CacheModel:
    """Set-associative LRU cache keyed by line address (an int)."""

    def __init__(self, sets: int, assoc: int, line_bytes: int, name: str = ""):
        if sets < 1 or assoc < 1:
            raise ValueError("sets and assoc must be >= 1")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        self.sets = sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.name = name
        self._line_shift = line_bytes.bit_length() - 1
        # way state for sets [0, rows): tag (-1 = empty), dirty bit, LRU
        # stamp (global clock); grown on demand by _grow
        self.rows = 0
        self._tags = np.empty((0, assoc), dtype=np.int64)
        self._dirty = np.empty((0, assoc), dtype=bool)
        self._stamp = np.empty((0, assoc), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        #: accesses replayed after a directory NACK (fault injection only)
        self.nack_replays = 0

    # -- addressing ----------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def set_of(self, line: int) -> int:
        return line % self.sets

    # -- way rows --------------------------------------------------------------

    def _grow(self, top_set: int) -> None:
        """Grow the rows to cover set ``top_set``: next power of two, capped at ``sets``."""
        if top_set < self.rows:
            return
        rows = min(self.sets, 1 << top_set.bit_length())
        shape = (rows, self.assoc)
        # np.zeros leaves the pages of a large array unmapped until written
        grown = (
            np.full(shape, -1, dtype=np.int64),
            np.zeros(shape, dtype=bool),
            np.zeros(shape, dtype=np.int64),
        )
        for new, old in zip(grown, (self._tags, self._dirty, self._stamp)):
            new[: self.rows] = old
        self._tags, self._dirty, self._stamp = grown
        self.rows = rows

    def _match(self, sets_idx: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """``(n, assoc)`` tag-match matrix; sets without a row match nothing."""
        if not sets_idx.size or int(sets_idx.max()) < self.rows:
            return self._tags[sets_idx] == lines[:, None]
        eq = np.zeros((lines.size, self.assoc), dtype=bool)
        inside = sets_idx < self.rows
        eq[inside] = self._tags[sets_idx[inside]] == lines[inside, None]
        return eq

    # -- scalar operations ----------------------------------------------------

    def _way_of(self, s: int, line: int) -> int:
        if s >= self.rows:
            return -1
        row = self._tags[s].tolist()  # Python ints: no NumPy scalar per way
        return row.index(line) if line in row else -1

    def access(self, line: int, write: bool) -> Tuple[bool, Optional[int]]:
        """Access a line; returns ``(hit, evicted_dirty_line_or_None)``.

        On a miss the line is installed, evicting the LRU way if the set is
        full.  The evicted line is returned only if it was dirty (it would be
        written back); clean evictions are silent.  The caller (directory) is
        responsible for protocol bookkeeping of both the fill and any
        eviction.
        """
        s = line % self.sets
        if s < self.rows:
            row = self._tags[s].tolist()
            if line in row:
                w = row.index(line)
                self.hits += 1
                self._stamp[s, w] = self._clock
                self._clock += 1
                if write:
                    self._dirty[s, w] = True
                return True, None
        else:
            self._grow(s)
            row = self._tags[s].tolist()
        self.misses += 1
        evicted_dirty = None
        if -1 in row:
            w = row.index(-1)
        else:  # set full: evict the LRU (first minimum-stamp) way
            stamps = self._stamp[s].tolist()
            w = stamps.index(min(stamps))
            old_line = row[w]
            self.evictions += 1
            if self._dirty[s, w]:
                self.writebacks += 1
                evicted_dirty = old_line
            self._note_eviction(old_line)
        self._tags[s, w] = line
        self._dirty[s, w] = write
        self._stamp[s, w] = self._clock
        self._clock += 1
        return False, evicted_dirty

    # -- batched operations ----------------------------------------------------

    def probe_batch(self, lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only bulk residency probe.

        Returns ``(eq, hit)`` where ``eq`` is the ``(n, assoc)`` boolean
        tag-match matrix and ``hit`` its any-way reduction.  No state is
        modified; feed ``eq`` back into :meth:`access_batch` to avoid a
        second gather.
        """
        eq = self._match(lines % self.sets, lines)
        return eq, eq.any(axis=1)

    def access_batch(
        self,
        lines: np.ndarray,
        write: bool,
        eq: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk access of a hazard-free run of lines.

        The caller must guarantee that, *if the run contains any miss*, no
        cache set is referenced more than once in the run (the batched
        directory splits runs at set collisions); this makes every victim
        choice independent and the result bit-identical to ``assoc``-way
        scalar LRU processing in order.

        Returns ``(hit, fill_pos, evict_pos, evicted_lines, evicted_dirty)``:

        * ``hit`` — per-line boolean hit mask,
        * ``fill_pos`` — indices into ``lines`` that missed (install order),
        * ``evict_pos`` — the subset of ``fill_pos`` whose install evicted a
          victim (the set was full),
        * ``evicted_lines`` / ``evicted_dirty`` — victim line ids and their
          dirty bits, aligned with ``evict_pos``.

        Unlike scalar :meth:`access`, the eviction hook is **not** invoked:
        batch callers receive the victims and own the protocol bookkeeping.
        """
        n = lines.size
        sets_idx = lines % self.sets
        if n:
            self._grow(int(sets_idx.max()))
        if eq is None:
            eq = self._tags[sets_idx] == lines[:, None]
        hit = eq.any(axis=1)
        stamps = self._clock + np.arange(n, dtype=np.int64)
        self._clock += n
        flat_stamp = self._stamp.reshape(-1)
        hidx = np.nonzero(hit)[0]
        if hidx.size:
            flat = sets_idx[hidx] * self.assoc + np.argmax(eq[hidx], axis=1)
            # maximum.at: with duplicate hit lines the later (larger) stamp wins
            np.maximum.at(flat_stamp, flat, stamps[hidx])
            if write:
                self._dirty.reshape(-1)[flat] = True
            self.hits += int(hidx.size)
        fill_pos = np.nonzero(~hit)[0]
        evict_pos = _EMPTY_I64
        evicted_lines = _EMPTY_I64
        evicted_dirty = _EMPTY_BOOL
        if fill_pos.size:
            ms = sets_idx[fill_pos]
            rows = self._tags[ms]  # (k, assoc)
            empty = rows == -1
            has_empty = empty.any(axis=1)
            way = np.where(
                has_empty,
                np.argmax(empty, axis=1),
                np.argmin(self._stamp[ms], axis=1),
            )
            full = ~has_empty
            if full.any():
                ev_sets = ms[full]
                ev_ways = way[full]
                evict_pos = fill_pos[full]
                evicted_lines = self._tags[ev_sets, ev_ways].copy()
                evicted_dirty = self._dirty[ev_sets, ev_ways].copy()
                self.evictions += int(full.sum())
                self.writebacks += int(evicted_dirty.sum())
            flat = ms * self.assoc + way
            self._tags.reshape(-1)[flat] = lines[fill_pos]
            self._dirty.reshape(-1)[flat] = write
            flat_stamp[flat] = stamps[fill_pos]
            self.misses += int(fill_pos.size)
        return hit, fill_pos, evict_pos, evicted_lines, evicted_dirty

    _evict_hook = None

    def _note_eviction(self, line: int) -> None:
        if self._evict_hook is not None:
            self._evict_hook(line)

    def set_evict_hook(self, hook) -> None:
        """Callback(line) invoked on every *scalar* eviction (clean or dirty)."""
        self._evict_hook = hook

    def contains(self, line: int) -> bool:
        return self._way_of(line % self.sets, line) >= 0

    def is_dirty(self, line: int) -> bool:
        w = self._way_of(line % self.sets, line)
        return bool(w >= 0 and self._dirty[line % self.sets, w])

    def drop(self, line: int) -> bool:
        """Invalidate a line (directory-initiated); True if it was present."""
        s = line % self.sets
        w = self._way_of(s, line)
        if w < 0:
            return False
        self._tags[s, w] = -1
        self._dirty[s, w] = False
        return True

    def downgrade(self, line: int) -> bool:
        """Clear the dirty bit (exclusive→shared); True if line present."""
        s = line % self.sets
        w = self._way_of(s, line)
        if w < 0:
            return False
        self._dirty[s, w] = False
        return True

    def downgrade_batch(self, lines: np.ndarray) -> None:
        """Bulk :meth:`downgrade` — LRU stamps untouched, just dirty bits."""
        sets_idx = lines % self.sets
        eq = self._match(sets_idx, lines)
        hidx = np.nonzero(eq.any(axis=1))[0]
        if hidx.size:
            flat = sets_idx[hidx] * self.assoc + np.argmax(eq[hidx], axis=1)
            self._dirty.reshape(-1)[flat] = False

    def resident_lines(self) -> int:
        return int((self._tags != -1).sum())

    def lines(self) -> List[int]:
        """All resident line ids (unordered) — introspection for tests/tools."""
        return [int(x) for x in self._tags[self._tags != -1]]

    def flush(self) -> int:
        """Drop everything (e.g. between experiment repetitions)."""
        n = self.resident_lines()
        self._tags.fill(-1)
        self._dirty.fill(False)
        return n

    # -- introspection ---------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when never accessed)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def occupancy(self) -> float:
        """Fraction of ways currently holding a line."""
        return self.resident_lines() / (self.sets * self.assoc)

    def stats_dict(self) -> Dict[str, float]:
        """Counter snapshot for reports and the profiling harness."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "nack_replays": self.nack_replays,
            "hit_rate": self.hit_rate,
            "resident": self.resident_lines(),
        }

    def __repr__(self) -> str:
        return (
            f"CacheModel({self.name or 'L2'!r}, {self.sets}x{self.assoc} ways, "
            f"{self.line_bytes}B lines, {self.resident_lines()} resident, "
            f"hit_rate={self.hit_rate:.3f})"
        )
