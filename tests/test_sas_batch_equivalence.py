"""Golden equivalence: the batched memory pipeline vs the scalar one.

The batched fast path (``Directory.transaction_batch``) must be invisible in
every simulated quantity — latencies bit-identical (no tolerance), the same
miss-kind counts, the same cache and directory state, the same home-memory
queue occupancy, and the same application checksums.  Only *host* time may
differ.  The reference is the scalar :meth:`Directory.transaction`, the
general protocol path, applied line by line (:func:`_scalar_batch`); the
application rows compare against fingerprints recorded from that path
(``tests/golden/timelines.json``).
"""

import numpy as np
import pytest

from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
from repro.machine import Machine, MachineConfig
from repro.machine.directory import TRANSACTION_KINDS
from repro.models.registry import run_program
from tests.reference import assert_matches_recording

# mesh_n=12 is the smallest workload whose shared-array sweeps are long
# enough (>= 16 cache lines) to actually enter the vectorised fast path.
ADAPT_CFG = AdaptConfig(mesh_n=12, phases=3, solver_iters=4)


def _pair(nprocs: int, **cfg):
    """Two fresh machines: one for the batched path, one for the reference."""
    return tuple(Machine(MachineConfig(nprocs=nprocs, **cfg)) for _ in range(2))


def _scalar_batch(directory, cpu, lines, write, now_ns, coherence_only=False):
    """What ``transaction_batch`` must equal: one scalar transaction per line."""
    counts = dict.fromkeys(TRANSACTION_KINDS, 0)
    total = 0.0
    for line in np.asarray(lines, dtype=np.int64).tolist():
        lat, kind = directory.transaction(cpu, line, write, now_ns + total)
        counts[kind] += 1
        if coherence_only and kind in ("hit", "local"):
            lat = 0.0
        total += lat
    return total, counts


def _machine_state(machine: Machine):
    d = machine.directory
    lines = set()
    for cache in d.caches:
        lines.update(cache.lines())
    dir_state = {
        line: (d.sharers_of(line), d.owner_of(line)) for line in sorted(lines)
    }
    cache_state = [
        (sorted(c.lines()), int(c.hits), int(c.misses)) for c in d.caches
    ]
    return dir_state, cache_state, list(d._busy_until), machine.stats.summary()


def _random_trace(rng, nprocs, steps):
    """A stream of (cpu, lines, write, coherence_only) batch requests."""
    trace = []
    for _ in range(steps):
        cpu = int(rng.integers(nprocs))
        if rng.random() < 0.5:  # dense sweep (the stouch shape)
            start = int(rng.integers(0, 300))
            lines = np.arange(start, start + int(rng.integers(1, 120)), dtype=np.int64)
        else:  # scattered gather (the stouch_idx shape)
            lines = rng.integers(0, 400, size=int(rng.integers(1, 120))).astype(np.int64)
        trace.append((cpu, lines, bool(rng.random() < 0.5), bool(rng.random() < 0.3)))
    return trace


class TestTraceEquivalence:
    """Drive both pipelines with identical random request streams."""

    @pytest.mark.parametrize("nprocs", (1, 2, 4, 8))
    def test_randomized_traces_bit_identical(self, nprocs):
        rng = np.random.default_rng(1234 + nprocs)
        on, off = _pair(nprocs)
        now_on = now_off = 0.0
        for cpu, lines, write, coh in _random_trace(rng, nprocs, steps=40):
            lat_on, counts_on = on.directory.transaction_batch(
                cpu, lines, write, now_on, coherence_only=coh
            )
            lat_off, counts_off = _scalar_batch(
                off.directory, cpu, lines, write, now_off, coherence_only=coh
            )
            assert lat_on == lat_off  # exact float equality, no approx
            assert counts_on == counts_off
            now_on += lat_on
            now_off += lat_off
        assert on.directory.batch_fast_lines > 0  # the fast path actually ran
        assert _machine_state(on) == _machine_state(off)

    def test_small_cache_forces_evictions_and_stays_identical(self):
        """Tiny caches maximise conflict evictions, writebacks and LRU churn."""
        on, off = _pair(4, l2_bytes=4096)  # 64 lines/CPU: constant turnover
        rng = np.random.default_rng(99)
        now_on = now_off = 0.0
        for cpu, lines, write, coh in _random_trace(rng, 4, steps=60):
            lat_on, _ = on.directory.transaction_batch(cpu, lines, write, now_on, coherence_only=coh)
            lat_off, _ = _scalar_batch(off.directory, cpu, lines, write, now_off, coherence_only=coh)
            assert lat_on == lat_off
            now_on += lat_on
            now_off += lat_off
        assert on.stats.writebacks_charged > 0  # evictions actually happened
        assert _machine_state(on) == _machine_state(off)

    def test_counts_cover_all_kinds(self):
        """One crafted trace exercises every transaction kind in batch mode."""
        on, off = _pair(4)
        totals = {k: 0 for k in TRANSACTION_KINDS}
        lines = np.arange(0, 64, dtype=np.int64)
        plan = [
            (0, lines, True),   # local fills
            (0, lines, False),  # hits
            (1, lines, False),  # dirty interventions (reads of dirty lines)
            (2, lines, False),  # remote/local clean fills
            (1, lines, True),   # upgrades (1 already shares)
        ]
        now_on = now_off = 0.0
        for cpu, seg, write in plan:
            lat_on, counts_on = on.directory.transaction_batch(cpu, seg, write, now_on)
            lat_off, counts_off = _scalar_batch(off.directory, cpu, seg, write, now_off)
            assert lat_on == lat_off
            assert counts_on == counts_off
            now_on += lat_on
            now_off += lat_off
            for k, v in counts_on.items():
                totals[k] += v
        for kind in ("hit", "local", "dirty", "upgrade"):
            assert totals[kind] > 0, f"trace never produced kind {kind!r}"
        assert _machine_state(on) == _machine_state(off)


class TestAppEquivalence:
    """The adapt application end-to-end against its scalar-path recording."""

    @pytest.mark.parametrize("nprocs", (1, 4, 8))
    def test_adapt_identical_under_batching(self, nprocs):
        machine = Machine(MachineConfig(nprocs=nprocs))
        assert_matches_recording(f"adapt-sas/{nprocs}", machine=machine)
        # and the run really used the vectorised path (not a silent fallback)
        if nprocs > 1:
            assert machine.directory.batch_fast_lines > 0

    def test_checksum_matches_sequential_reference(self):
        script = build_script(ADAPT_CFG, 4)
        res = run_program("sas", ADAPT_PROGRAMS["sas"], 4, script)
        for r in res.rank_results:
            assert r == pytest.approx(script.reference_checksum, abs=1e-9)

