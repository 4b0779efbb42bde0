"""Directory-based cache-coherence protocol (MESI-like) cost model.

Each cache line has a directory entry at its *home node* recording the set of
sharers and the exclusive owner (if dirty).  The protocol is evaluated
*analytically per transaction*: a load/store that misses (or needs an
upgrade) is charged the Origin2000 latency for the transaction type —

=================  =============================================================
outcome            charged latency
=================  =============================================================
L2 hit             ``l2_hit_ns``
local miss         ``local_mem_ns`` + home-memory queueing
remote miss        ``local_mem_ns + 2·hops·remote_hop_ns`` + queueing
dirty (3-hop)      above + ``dirty_extra_ns`` + owner-distance hops
upgrade/write      above + ``inval_base_ns + k·inval_per_sharer_ns`` for k
                   sharers to invalidate
writeback          ``line_bytes / mem_bandwidth`` extra when the fill evicts
                   a dirty line (the victim drains to its home memory)
=================  =============================================================

Home-memory queueing is modelled with a deterministic FCFS busy-until clock
per node: each transaction occupies the home memory for
``line_bytes / mem_bandwidth`` and waits behind earlier arrivals, so heavy
sharing of one node's memory (bad placement) costs extra — the effect
experiment R-F4 measures.

The caches are kept protocol-consistent: writes invalidate remote copies,
reads downgrade dirty owners, evictions clear directory state.

Directory state is array-backed — a ``(lines, nprocs)`` boolean sharer
matrix plus an ``int32`` owner vector, indexed by line number (the address
space is bump-allocated and therefore dense) — which enables
:meth:`transaction_batch`: a NumPy fast path that classifies a whole run of
lines at once, fuses the uncontested ones (hits and plain local/remote
fills) into a handful of array operations, and routes only *contested*
lines (dirty owner elsewhere, sharers to invalidate, hot-home queueing
hazards) through the scalar :meth:`transaction`.  The fast path is
bit-identical in simulated nanoseconds and statistics to looping over
:meth:`transaction`, which stays the general protocol path — see
``tests/test_sas_batch_equivalence.py`` and the fidelity note in DESIGN.md.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.faults import FaultPlane
from repro.machine.cache import CacheModel
from repro.machine.config import MachineConfig
from repro.machine.memory import MemorySystem
from repro.machine.sharers import sharer_scheme_from_config
from repro.machine.stats import MachineStats
from repro.machine.topology import Topology
from repro.obs.events import EventLog
from repro.sim.profile import PROFILER

__all__ = ["Directory", "TRANSACTION_KINDS"]

TRANSACTION_KINDS = ("hit", "local", "remote", "dirty", "upgrade")

#: classify at most this many lines ahead per fast block (bounds the cost of
#: re-classification after a contested line and the size of temporaries)
_MAX_BLOCK = 8192


class Directory:
    """Global directory over all nodes (sliced by home in the real machine)."""

    def __init__(
        self,
        config: MachineConfig,
        topology: Topology,
        memory: MemorySystem,
        caches: List[CacheModel],
        stats: MachineStats,
        obs: Optional[EventLog] = None,
        faults: Optional[FaultPlane] = None,
    ):
        self.config = config
        self.topology = topology
        self.memory = memory
        self.caches = caches
        self.stats = stats
        self.obs = obs if obs is not None else EventLog()
        self.faults = faults if faults is not None else FaultPlane()
        self._busy_until: List[float] = [0.0] * config.nnodes
        self._service_ns = config.line_bytes / config.mem_bandwidth_bpns
        # per-link byte counters, shared with Network.link_bytes when
        # derived["link_stats"] = "on" (Machine wires it); None otherwise.
        # Coherence latency stays analytic — this only attributes the line
        # bytes already counted in stats.network_bytes to route links.
        self.link_bytes: Optional[List[int]] = None
        # how the hardware entry represents the sharer set (exact bit-vector
        # up to dir_exact_width CPUs, coarse/limited-pointer beyond); the
        # exact matrix below stays the protocol ground truth either way and
        # the scheme only scales the invalidation billing
        self.sharer_scheme = sharer_scheme_from_config(config)
        # line-indexed protocol state, grown on demand (the address space is
        # dense): sharer bit-matrix and exclusive owner (-1 = none)
        self._cap = 0
        self._sharers = np.zeros((0, config.nprocs), dtype=bool)
        self._owner = np.empty(0, dtype=np.int32)
        self._ensure_lines(1024)
        self._hop_matrix = np.array(
            [
                [topology.router_hops(a, b) for b in range(config.nnodes)]
                for a in range(config.nnodes)
            ],
            dtype=np.int64,
        )
        self.batch_calls = 0          # transaction_batch invocations
        self.batch_fast_lines = 0     # lines handled by the vectorised path
        self._prof_cache_s = 0.0
        for cpu, cache in enumerate(caches):
            cache.set_evict_hook(self._make_evict_hook(cpu))

    def _ensure_lines(self, max_line: int) -> None:
        if max_line < self._cap:
            return
        cap = max(2 * self._cap, max_line + 1, 1024)
        sharers = np.zeros((cap, self.config.nprocs), dtype=bool)
        sharers[: self._cap] = self._sharers
        owner = np.full(cap, -1, dtype=np.int32)
        owner[: self._cap] = self._owner
        self._sharers = sharers
        self._owner = owner
        self._cap = cap

    # -- eviction bookkeeping -------------------------------------------------

    def _make_evict_hook(self, cpu: int):
        def hook(line: int) -> None:
            if line < self._cap:
                self._sharers[line, cpu] = False
                if self._owner[line] == cpu:
                    self._owner[line] = -1

        return hook

    def _charge_link_lines(self, src: int, dst: int, nlines: int = 1) -> None:
        """Attribute ``nlines`` line transfers to the links of src -> dst."""
        nbytes = self.config.line_bytes * nlines
        for i in self.topology.route_info(src, dst).links:
            self.link_bytes[i] += nbytes

    def _charge_writeback(self, victim_line: int, node: int) -> float:
        """Bill the drain of a dirty victim to its home memory."""
        home = self.memory.home_of_line(victim_line, self.config.line_bytes, node)
        self.stats.writebacks_charged += 1
        if home != node:
            self.stats.network_bytes += self.config.line_bytes
            if self.link_bytes is not None:
                self._charge_link_lines(node, home)
        return self._service_ns

    def flush_cache(self, cpu: int) -> int:
        """Drop every line of ``cpu``'s cache, keeping the directory exact.

        Models a full cache invalidation (e.g. between experiment
        repetitions); returns the number of lines dropped.
        """
        cache = self.caches[cpu]
        dropped = np.asarray(cache.lines(), dtype=np.int64)
        n = cache.flush()
        if dropped.size:
            self._sharers[dropped, cpu] = False
            owners = self._owner[dropped]
            self._owner[dropped] = np.where(owners == cpu, -1, owners)
        return n

    # -- the transaction ----------------------------------------------------------

    def transaction(self, cpu: int, line: int, write: bool, now_ns: float) -> Tuple[float, str]:
        """Perform one load/store; returns ``(latency_ns, kind)``.

        ``kind`` is one of ``"hit"``, ``"upgrade"``, ``"local"``,
        ``"remote"``, ``"dirty"`` and drives the per-CPU miss counters kept
        by the caller.

        With fault injection enabled the home directory may transiently
        NACK the request: the requesting cache backs off and replays, up to
        ``profile.max_nacks`` consecutive bounces, each charging
        ``profile.nack_retry_ns`` on top of the eventual transaction — the
        CC-SAS analogue of a retransmission, invisible to software but not
        to the stall breakdown.
        """
        nack_ns = 0.0
        if self.faults.enabled:
            # only transactions that visit the directory can be NACKed:
            # misses, and write hits needing an ownership upgrade
            self._ensure_lines(line)
            resident = self.caches[cpu].contains(line)
            if not resident or (write and int(self._owner[line]) != cpu):
                home = self.memory.home_of_line(
                    line, self.config.line_bytes, self.config.node_of_cpu(cpu)
                )
                bounces = self.faults.nack_bounces(cpu, now_ns, home=home)
                if bounces:
                    nack_ns = bounces * self.faults.profile.nack_retry_ns
                    self.caches[cpu].nack_replays += bounces
        obs = self.obs
        if obs.enabled and obs.coherence_detail:
            latency, kind = self._transaction(cpu, line, write, now_ns + nack_ns)
            latency += nack_ns
            home = self.memory.home_of_line(
                line, self.config.line_bytes, self.config.node_of_cpu(cpu)
            )
            obs.emit(
                "coherence", now_ns, cpu, home,
                self.config.line_bytes if kind in ("local", "remote", "dirty") else 0,
                dur=latency,
                attrs={"tx": kind, "line": int(line), "write": bool(write)},
            )
            return latency, kind
        latency, kind = self._transaction(cpu, line, write, now_ns + nack_ns)
        return latency + nack_ns, kind

    def _transaction(self, cpu: int, line: int, write: bool, now_ns: float) -> Tuple[float, str]:
        cfg = self.config
        cache = self.caches[cpu]
        node = cfg.node_of_cpu(cpu)
        self._ensure_lines(line)
        owner = int(self._owner[line])
        hit, evicted_dirty = cache.access(line, write)
        wb_ns = 0.0
        if evicted_dirty is not None:
            wb_ns = self._charge_writeback(evicted_dirty, node)

        if hit:
            if not write:
                return cfg.l2_hit_ns, "hit"
            # write hit: silent if already exclusive here, else upgrade
            if owner == cpu:
                return cfg.l2_hit_ns, "hit"
            home = self.memory.home_of_line(line, cfg.line_bytes, node)
            latency = cfg.l2_hit_ns + self._home_trip_ns(node, home, now_ns)
            latency += self._invalidate_others(cpu, line)
            self._sharers[line, :] = False
            self._sharers[line, cpu] = True
            self._owner[line] = cpu
            self.stats.directory_transactions += 1
            return latency, "upgrade"

        # miss: fetch from home (possibly intervening at a dirty owner)
        home = self.memory.home_of_line(line, cfg.line_bytes, node)
        latency = self._home_trip_ns(node, home, now_ns) + wb_ns
        kind = "local" if home == node else "remote"
        if owner >= 0 and owner != cpu:
            owner_node = cfg.node_of_cpu(owner)
            latency += cfg.dirty_extra_ns
            latency += cfg.remote_hop_ns * self.topology.router_hops(home, owner_node)
            kind = "dirty"
            if write:
                # owner stays in the sharer set (as in the historical model)
                # and is invalidated — and billed — below
                self.caches[owner].drop(line)
            else:
                self.caches[owner].downgrade(line)
                self._sharers[line, owner] = True
            self._owner[line] = -1
        if write:
            latency += self._invalidate_others(cpu, line)
            self._sharers[line, :] = False
            self._sharers[line, cpu] = True
            self._owner[line] = cpu
        else:
            self._sharers[line, cpu] = True
        if home != node:
            self.stats.network_bytes += cfg.line_bytes
            if self.link_bytes is not None:
                self._charge_link_lines(home, node)
        self.stats.directory_transactions += 1
        return latency, kind

    # -- the batched fast path -------------------------------------------------

    def transaction_batch(
        self,
        cpu: int,
        lines: np.ndarray,
        write: bool,
        now_ns: float,
        coherence_only: bool = False,
    ) -> Tuple[float, Dict[str, int]]:
        """Run a whole sequence of line accesses; returns ``(total_ns, counts)``.

        Equivalent — in simulated nanoseconds, statistics, cache state and
        directory state — to looping::

            total = 0.0
            for line in lines:
                lat, kind = self.transaction(cpu, line, write, now_ns + total)
                if coherence_only and kind in ("hit", "local"):
                    lat = 0.0
                total += lat

        but vectorised in host time.  ``coherence_only`` mirrors the CC-SAS
        application-data accounting (see ``SasContext._touch_lines``): hits
        and local misses charge nothing extra.  ``counts`` maps each kind in
        :data:`TRANSACTION_KINDS` to its occurrence count.

        The fast path fuses *uncontested* accesses: L2 hits (reads, and
        writes already exclusive here), read misses — including 3-hop dirty
        interventions at another owner — and write misses with no owner and
        no other sharer.  Runs are split wherever a contested line appears
        (write needing invalidations or a dirty intervention), a cache set
        would be referenced twice in a run containing fills (so LRU victim
        choices stay exact), or home-memory queueing could not be folded
        analytically; those lines take the scalar :meth:`transaction`.
        """
        prof = PROFILER.enabled
        if prof:
            t0 = time.perf_counter()
            self._prof_cache_s = 0.0
        lines = np.asarray(lines, dtype=np.int64)
        counts = dict.fromkeys(TRANSACTION_KINDS, 0)
        total = 0.0
        n = int(lines.size)
        self.batch_calls += 1
        if n == 0:
            return total, counts
        self._ensure_lines(int(lines.max()))
        cache = self.caches[cpu]
        node = self.config.node_of_cpu(cpu)
        # queue folding needs service time < every miss latency (with margin
        # beyond float rounding), so that within one batch only the first
        # remote fill per home can wait; fault injection forces the scalar
        # protocol path so every transaction takes its own NACK draw
        fast = (
            not self.faults.enabled
            and self.config.local_mem_ns > self._service_ns + 1e-3
        )
        i = 0
        while i < n:
            scalar_run = n - i  # no fast path: everything goes scalar
            if fast:
                consumed, total, scalar_run = self._fast_block(
                    cpu, cache, node, lines[i : i + _MAX_BLOCK], write,
                    now_ns, total, coherence_only, counts,
                )
                i += consumed
                if i >= n or scalar_run == 0:
                    continue  # block/hazard boundary, not a contested line
            # contested (or no fast path): the exact scalar protocol path,
            # for the whole contested run the classification identified
            for line in lines[i : i + scalar_run].tolist():
                lat, kind = self.transaction(cpu, line, write, now_ns + total)
                counts[kind] += 1
                if coherence_only and (kind == "hit" or kind == "local"):
                    lat = 0.0
                total += lat
            i += scalar_run
        if prof:
            dt = time.perf_counter() - t0
            PROFILER.add("cache", self._prof_cache_s)
            PROFILER.add("directory", dt - self._prof_cache_s)
        return total, counts

    def _fast_block(
        self,
        cpu: int,
        cache: CacheModel,
        node: int,
        seg: np.ndarray,
        write: bool,
        now_ns: float,
        total0: float,
        coherence_only: bool,
        counts: Dict[str, int],
    ) -> Tuple[int, float, int]:
        """Vector-process the longest safe uncontested prefix of ``seg``.

        Returns ``(lines_consumed, new_total, contested_run)``:
        ``contested_run`` is the number of consecutive *contested* lines
        following the consumed prefix (0 when the prefix ended at a block
        or LRU-hazard boundary instead), which the caller feeds straight to
        the scalar path without re-classifying — otherwise a long contested
        stretch would cost one full classification per line.

        ``new_total`` replaces the caller's running charge and is produced
        by ``np.add.accumulate`` seeded with ``total0`` — the exact
        float-addition sequence the scalar loop performs — so the result is
        bit-identical, not merely close.
        """
        cfg = self.config
        prof = PROFILER.enabled
        if prof:
            tc = time.perf_counter()
        eq, resident = cache.probe_batch(seg)
        if prof:
            self._prof_cache_s += time.perf_counter() - tc
        owner = self._owner[seg]
        if write:
            srow = self._sharers[seg]
            others = srow.sum(axis=1, dtype=np.int64) - srow[:, cpu]
            hitf = resident & (owner == cpu)
            fillf = ~resident & (owner == -1) & (others == 0)
        else:
            # reads also fuse the 3-hop dirty intervention (fetch data from
            # another CPU's modified copy and downgrade it) — the dominant
            # CC-SAS communication pattern, so it must not fall off the
            # fast path
            hitf = resident
            fillf = ~resident & (owner != cpu)
        ok = hitf | fillf
        cut = int(seg.size) if bool(ok.all()) else int(np.argmin(ok))
        rest = ok[cut:]
        contested = int(rest.size) if not rest.any() else int(np.argmax(rest))
        if cut == 0:
            return 0, total0, contested
        if fillf[:cut].any():
            # LRU exactness: a run containing fills must not reference any
            # cache set twice (victim choices would become order-dependent)
            sets_idx = seg[:cut] % cache.sets
            perm = np.argsort(sets_idx, kind="stable")
            ss = sets_idx[perm]
            dup = np.nonzero(ss[1:] == ss[:-1])[0]
            if dup.size:
                new_cut = min(cut, int(perm[dup + 1].min()))
                if new_cut < cut:
                    cut, contested = new_cut, 0  # hazard cut: next line re-probes
                if cut == 0:  # pragma: no cover - dup needs >= 2 lines
                    return 0, total0, 0
        fseg = seg[:cut]
        if prof:
            tc = time.perf_counter()
        hit, fill_pos, evict_pos, ev_lines, ev_dirty = cache.access_batch(
            fseg, write, eq=eq[:cut]
        )
        if prof:
            self._prof_cache_s += time.perf_counter() - tc
        nf = int(fill_pos.size)
        counts["hit"] += cut - nf
        c = np.zeros(cut)
        if not coherence_only:
            c[hit] = cfg.l2_hit_ns
        if nf:
            # eviction bookkeeping: clear victims' directory state, then bill
            # dirty-victim writebacks to the fills that caused them
            fill_lines = fseg[fill_pos]
            homes = self.memory.homes_of_lines(fill_lines, cfg.line_bytes, node)
            remote = homes != node
            base = np.full(nf, cfg.local_mem_ns)
            if remote.any():
                hops = self._hop_matrix[node][homes[remote]]
                base[remote] += 2.0 * cfg.remote_hop_ns * hops
            wb = np.zeros(nf)
            if ev_lines.size:
                self._sharers[ev_lines, cpu] = False
                ev_owner = self._owner[ev_lines]
                self._owner[ev_lines] = np.where(ev_owner == cpu, -1, ev_owner)
                if ev_dirty.any():
                    wb_lines = ev_lines[ev_dirty]
                    wb_homes = self.memory.homes_of_lines(wb_lines, cfg.line_bytes, node)
                    self.stats.writebacks_charged += int(wb_lines.size)
                    self.stats.network_bytes += cfg.line_bytes * int((wb_homes != node).sum())
                    if self.link_bytes is not None:
                        for h, cnt in zip(*np.unique(
                                wb_homes[wb_homes != node], return_counts=True)):
                            self._charge_link_lines(node, int(h), int(cnt))
                    wb[np.searchsorted(fill_pos, evict_pos[ev_dirty])] = self._service_ns
            # dirty interventions (reads only): charge the 3-hop detour,
            # downgrade each owner's copy in one bulk call per owner
            dxt1 = np.zeros(nf)
            dxt2 = np.zeros(nf)
            isdirty = np.zeros(nf, dtype=bool)
            if not write:
                own_f = owner[:cut][fill_pos]
                isdirty = own_f >= 0
                if isdirty.any():
                    d_lines = fill_lines[isdirty]
                    d_own = own_f[isdirty]
                    own_nodes = d_own // cfg.cpus_per_node
                    dxt1[isdirty] = cfg.dirty_extra_ns
                    dxt2[isdirty] = cfg.remote_hop_ns * self._hop_matrix[homes[isdirty], own_nodes]
                    for o in np.unique(d_own).tolist():
                        self.caches[int(o)].downgrade_batch(d_lines[d_own == o])
                    self._sharers[d_lines, d_own] = True
                    self._owner[d_lines] = -1
            # charge = (((base + queue) + writeback) + dirty-extra) + hops,
            # in the scalar path's exact float-operation order (queue is 0.0
            # for all but possibly the first remote fill per home, fixed up
            # below; the zero addends are exact no-ops for clean fills)
            charge = ((base + wb) + dxt1) + dxt2
            if coherence_only:
                sel = remote | isdirty  # dirty fills charge even when local
                c[fill_pos[sel]] = charge[sel]
            else:
                c[fill_pos] = charge
            rsel = np.nonzero(remote)[0]
            if rsel.size:
                # home-memory FCFS queueing: with service < every miss
                # latency, only the first remote fill per home in this run
                # can queue.  Arrival times replay the scalar accumulation:
                # t[k] = fl(t[k-1] + c[k-1]) seeded with the running total.
                rpos = fill_pos[rsel]
                rhomes = homes[rsel]
                first_idx = np.unique(rhomes, return_index=True)[1]
                first_idx.sort()
                t = np.add.accumulate(np.concatenate(([total0], c)))
                queued: Dict[int, Tuple[int, float]] = {}
                for k in first_idx.tolist():
                    p = int(rpos[k])
                    h = int(rhomes[k])
                    fk = int(rsel[k])
                    arrival = now_ns + float(t[p])
                    busy = self._busy_until[h]
                    if busy > arrival:
                        q = busy - arrival
                        c[p] = (
                            ((float(base[fk]) + q) + float(wb[fk]))
                            + float(dxt1[fk])
                        ) + float(dxt2[fk])
                        queued[h] = (k, busy + self._service_ns)
                        t = np.add.accumulate(np.concatenate(([total0], c)))
                uh, last_rev = np.unique(rhomes[::-1], return_index=True)
                last_idx = rsel.size - 1 - last_rev
                for j, h in zip(last_idx.tolist(), uh.tolist()):
                    h = int(h)
                    entry = queued.get(h)
                    if entry is not None and entry[0] == j:
                        self._busy_until[h] = entry[1]
                    else:  # un-queued: starts at its own arrival time
                        p = int(rpos[j])
                        self._busy_until[h] = (now_ns + float(t[p])) + self._service_ns
            # directory updates for the uncontested fills
            self._sharers[fill_lines, cpu] = True
            if write:
                self._owner[fill_lines] = cpu
            nrem = int(remote.sum())
            nd = int(isdirty.sum())
            nd_rem = int((isdirty & remote).sum())
            self.stats.directory_transactions += nf
            self.stats.network_bytes += cfg.line_bytes * nrem
            if self.link_bytes is not None and nrem:
                for h, cnt in zip(*np.unique(
                        homes[remote], return_counts=True)):
                    self._charge_link_lines(int(h), node, int(cnt))
            counts["dirty"] += nd
            counts["local"] += (nf - nrem) - (nd - nd_rem)
            counts["remote"] += nrem - nd_rem
        self.batch_fast_lines += cut
        new_total = float(np.add.accumulate(np.concatenate(([total0], c)))[-1])
        return cut, new_total, contested

    # -- pieces --------------------------------------------------------------

    def _home_trip_ns(self, node: int, home: int, now_ns: float) -> float:
        """Round trip to home memory, with FCFS queueing at the bank.

        Queueing is modelled for *remote* requests only: a CPU's stream of
        local fetches is self-limiting (it waits for each) and overlaps
        with computation on the real machine, whereas remote requests from
        many nodes genuinely pile up at a hot home — the effect the
        placement experiments measure.
        """
        base = self.config.local_mem_ns
        if home == node:
            return base
        base += 2 * self.config.remote_hop_ns * self.topology.router_hops(node, home)
        start = max(now_ns, self._busy_until[home])
        queue = start - now_ns
        self._busy_until[home] = start + self._service_ns
        return base + queue

    def _invalidate_others(self, cpu: int, line: int) -> float:
        row = self._sharers[line]
        victims = np.nonzero(row)[0]
        victims = victims[victims != cpu]
        owner = int(self._owner[line])
        extra_owner = owner >= 0 and owner != cpu and not row[owner]
        exact_k = int(victims.size) + (1 if extra_owner else 0)
        # the billed count follows the hardware sharer representation: a
        # coarse vector invalidates whole groups (spurious messages are
        # billed but only true sharers lose their copy), limited pointers
        # broadcast on overflow; the exact scheme bills exact_k
        k = self.sharer_scheme.billable(row, cpu, exact_k)
        if k == 0 and exact_k == 0:
            return 0.0
        for victim in victims.tolist():
            self.caches[victim].drop(line)
        if extra_owner:  # pragma: no cover - owner is always a sharer
            self.caches[owner].drop(line)
        self.stats.per_cpu[cpu].invalidations_sent += k
        return self.config.inval_base_ns + k * self.config.inval_per_sharer_ns

    # -- introspection ---------------------------------------------------------

    def sharers_of(self, line: int) -> Set[int]:
        if line >= self._cap:
            return set()
        return {int(c) for c in np.nonzero(self._sharers[line])[0]}

    def owner_of(self, line: int) -> Optional[int]:
        if line >= self._cap:
            return None
        owner = int(self._owner[line])
        return owner if owner >= 0 else None

    def live_entries(self) -> int:
        return int((self._sharers.any(axis=1) | (self._owner >= 0)).sum())
