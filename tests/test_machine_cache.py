"""Unit + property tests for the L2 cache model."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
from repro.machine import Machine, MachineConfig
from repro.machine.cache import CacheModel
from repro.models.registry import run_program


def make_cache(sets=4, assoc=2):
    return CacheModel(sets=sets, assoc=assoc, line_bytes=128)


def test_miss_then_hit():
    c = make_cache()
    hit, _ = c.access(10, write=False)
    assert not hit
    hit, _ = c.access(10, write=False)
    assert hit
    assert c.hits == 1 and c.misses == 1


def test_write_marks_dirty():
    c = make_cache()
    c.access(10, write=True)
    assert c.is_dirty(10)
    c.downgrade(10)
    assert not c.is_dirty(10)
    assert c.contains(10)


def test_lru_eviction_order():
    c = make_cache(sets=1, assoc=2)
    c.access(1, False)
    c.access(2, False)
    c.access(1, False)  # 1 becomes MRU
    c.access(3, False)  # evicts 2
    assert c.contains(1) and c.contains(3) and not c.contains(2)
    assert c.evictions == 1


def test_dirty_eviction_reports_writeback():
    c = make_cache(sets=1, assoc=1)
    c.access(1, write=True)
    _, evicted = c.access(2, write=False)
    assert evicted == 1
    assert c.writebacks == 1


def test_clean_eviction_is_silent():
    c = make_cache(sets=1, assoc=1)
    c.access(1, write=False)
    _, evicted = c.access(2, write=False)
    assert evicted is None
    assert c.evictions == 1 and c.writebacks == 0


def test_drop_invalidates():
    c = make_cache()
    c.access(5, False)
    assert c.drop(5)
    assert not c.contains(5)
    assert not c.drop(5)


def test_sets_isolate_lines():
    c = make_cache(sets=4, assoc=1)
    for line in range(4):  # lines 0..3 map to different sets
        c.access(line, False)
    assert all(c.contains(line) for line in range(4))
    assert c.evictions == 0


def test_line_addressing():
    c = make_cache()
    assert c.line_of(0) == 0
    assert c.line_of(127) == 0
    assert c.line_of(128) == 1


def test_flush_empties():
    c = make_cache()
    for line in range(5):
        c.access(line, False)
    assert c.flush() == 5
    assert c.resident_lines() == 0


def test_evict_hook_called():
    c = make_cache(sets=1, assoc=1)
    evicted = []
    c.set_evict_hook(evicted.append)
    c.access(1, False)
    c.access(2, False)
    assert evicted == [1]


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheModel(sets=0, assoc=1, line_bytes=128)
    with pytest.raises(ValueError):
        CacheModel(sets=1, assoc=1, line_bytes=100)


@settings(max_examples=100, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
        max_size=200,
    )
)
def test_occupancy_never_exceeds_capacity(accesses):
    """Invariant: resident lines <= sets*assoc, and hits+misses = accesses."""
    c = CacheModel(sets=4, assoc=2, line_bytes=128)
    for line, write in accesses:
        c.access(line, write)
    assert c.resident_lines() <= 4 * 2
    assert c.hits + c.misses == len(accesses)


@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=50)
)
def test_rereference_within_capacity_always_hits(lines):
    """A direct re-access of the most recent line is always a hit."""
    c = CacheModel(sets=8, assoc=2, line_bytes=128)
    for line in lines:
        c.access(line, False)
        hit, _ = c.access(line, False)
        assert hit


# ---------------------------------------------------------------------------
# on-demand way rows: equivalence with a plain per-set LRU, and memory
# ---------------------------------------------------------------------------


class RefLRU:
    """Reference L2: one ``OrderedDict`` (line -> dirty) per set, oldest first."""

    def __init__(self, sets, assoc):
        self.sets = sets
        self.assoc = assoc
        self.od = [OrderedDict() for _ in range(sets)]
        self.hits = self.misses = self.evictions = self.writebacks = 0

    def access(self, line, write):
        """``(hit, victim, victim_dirty)``; ``victim`` is None when nothing was evicted."""
        od = self.od[line % self.sets]
        if line in od:
            self.hits += 1
            od.move_to_end(line)
            od[line] = od[line] or write
            return True, None, False
        self.misses += 1
        victim, victim_dirty = None, False
        if len(od) == self.assoc:
            victim, victim_dirty = od.popitem(last=False)
            self.evictions += 1
            self.writebacks += victim_dirty
        od[line] = write
        return False, victim, victim_dirty

    def drop(self, line):
        return self.od[line % self.sets].pop(line, None) is not None

    def downgrade(self, line):
        od = self.od[line % self.sets]
        if line not in od:
            return False
        od[line] = False  # re-assigning a key keeps its LRU position
        return True

    def lines(self):
        return sorted(line for od in self.od for line in od)


def _assert_same(c, ref):
    assert (c.hits, c.misses, c.evictions, c.writebacks) == (
        ref.hits, ref.misses, ref.evictions, ref.writebacks
    )
    assert sorted(c.lines()) == ref.lines()
    assert c.resident_lines() == len(ref.lines())
    assert c.occupancy() == len(ref.lines()) / (ref.sets * ref.assoc)
    assert [c.is_dirty(line) for line in ref.lines()] == [
        ref.od[line % ref.sets][line] for line in ref.lines()
    ]
    every_line = range(4 * ref.sets)
    assert [c.contains(line) for line in every_line] == [
        line in ref.od[line % ref.sets] for line in every_line
    ]
    assert c.rows <= c.sets


def _unique_sets(lines, sets):
    """Keep the first line of each set: a hazard-free ``access_batch`` run."""
    seen, out = set(), []
    for line in lines:
        if line % sets not in seen:
            seen.add(line % sets)
            out.append(line)
    return out


_OPS = st.sampled_from(
    ["access", "drop", "downgrade", "access_batch", "probe_access", "downgrade_batch"]
)


@settings(max_examples=200, deadline=None)
@given(
    sets=st.sampled_from([1, 3, 8, 16, 32]),
    assoc=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_on_demand_rows_match_reference_lru(sets, assoc, data):
    """Every operation agrees with a per-set ``OrderedDict`` LRU over ``[0, 4*sets)``.

    A line is a set index plus 0-3 times ``sets``, and the reachable set
    indices widen along the stream, so low sets fill and evict before the
    rows grow past them, and growth reaches the ``sets`` cap.  Batched
    runs draw one line per set, the hazard-free shape the directory's
    fast path hands ``access_batch``.
    """
    c = CacheModel(sets=sets, assoc=assoc, line_bytes=128)
    ref = RefLRU(sets, assoc)
    for i, op in enumerate(data.draw(st.lists(_OPS, max_size=60), label="ops")):
        line_ids = st.builds(
            lambda s, k: s + k * sets,
            st.integers(min_value=0, max_value=min(sets, 1 + i // 3) - 1),
            st.integers(min_value=0, max_value=3),
        )
        if op in ("access", "drop", "downgrade"):
            line = data.draw(line_ids, label="line")
            if op == "access":
                write = data.draw(st.booleans(), label="write")
                hit, victim, victim_dirty = ref.access(line, write)
                assert c.access(line, write) == (hit, victim if victim_dirty else None)
            elif op == "drop":
                assert c.drop(line) == ref.drop(line)
            else:
                assert c.downgrade(line) == ref.downgrade(line)
        elif op == "downgrade_batch":
            lines = data.draw(st.lists(line_ids, max_size=12), label="lines")
            c.downgrade_batch(np.array(lines, dtype=np.int64))
            for line in lines:
                ref.downgrade(line)
        else:
            lines = _unique_sets(data.draw(st.lists(line_ids, max_size=12), label="lines"), sets)
            write = data.draw(st.booleans(), label="write")
            arr = np.array(lines, dtype=np.int64)
            eq = None
            if op == "probe_access":
                eq, resident = c.probe_batch(arr)
                assert resident.tolist() == [line in ref.od[line % sets] for line in lines]
            hit, fill_pos, evict_pos, ev_lines, ev_dirty = c.access_batch(arr, write, eq=eq)
            want = [ref.access(line, write) for line in lines]
            assert hit.tolist() == [h for h, _, _ in want]
            assert fill_pos.tolist() == [i for i, (h, _, _) in enumerate(want) if not h]
            assert evict_pos.tolist() == [i for i, (_, v, _) in enumerate(want) if v is not None]
            assert ev_lines.tolist() == [v for _, v, _ in want if v is not None]
            assert ev_dirty.tolist() == [d for _, v, d in want if v is not None]
        _assert_same(c, ref)


def _way_bytes(cache):
    return cache._tags.nbytes + cache._dirty.nbytes + cache._stamp.nbytes


def test_reads_of_an_ungrown_set_allocate_nothing():
    c = make_cache(sets=64, assoc=2)
    assert c.rows == 0 and _way_bytes(c) == 0
    assert not c.contains(50) and not c.is_dirty(50)
    assert not c.drop(50) and not c.downgrade(50)
    eq, resident = c.probe_batch(np.array([3, 50, 114], dtype=np.int64))
    assert eq.shape == (3, 2) and not resident.any()
    c.downgrade_batch(np.array([50], dtype=np.int64))
    assert c.rows == 0 and _way_bytes(c) == 0

    c.access(1, write=True)  # first install: rows cover sets 0 and 1 only
    assert c.rows == 2
    assert not c.contains(50) and not c.drop(50) and not c.downgrade(50)
    assert c.rows == 2 and c.lines() == [1] and c.is_dirty(1)
    assert c.occupancy() == 1 / (64 * 2)


def test_rows_grow_by_doubling_up_to_sets():
    c = make_cache(sets=100, assoc=2)
    c.access(9, False)
    assert c.rows == 16
    c.access(12, False)  # already covered
    assert c.rows == 16
    c.access_batch(np.array([3, 57], dtype=np.int64), write=False)
    assert c.rows == 64
    c.access(199, False)  # set 99: capped at sets
    assert c.rows == 100
    assert sorted(c.lines()) == [3, 9, 12, 57, 199]
    assert c.flush() == 5 and c.resident_lines() == 0 and c.rows == 100


def test_machine_set_up_holds_no_way_rows():
    machine = Machine(MachineConfig(nprocs=128))
    assert machine.caches[0].sets == 16384
    assert all(c.rows == 0 and _way_bytes(c) == 0 for c in machine.caches)


_ADAPT = AdaptConfig(mesh_n=10, phases=2, solver_iters=3)


@pytest.mark.parametrize("model", ["mpi", "shmem"])
def test_message_passing_adapt_cell_touches_no_cache(model):
    machine = Machine(MachineConfig(nprocs=64))
    run_program(model, ADAPT_PROGRAMS[model], 64, build_script(_ADAPT, 64), machine=machine)
    assert all(c.rows == 0 and _way_bytes(c) == 0 for c in machine.caches)


def test_sas_adapt_cell_grows_few_rows():
    machine = Machine(MachineConfig(nprocs=64))
    run_program("sas", ADAPT_PROGRAMS["sas"], 64, build_script(_ADAPT, 64), machine=machine)
    rows = [c.rows for c in machine.caches]
    assert 0 < max(rows) <= 2048
    assert max(_way_bytes(c) for c in machine.caches) <= 2048 * 2 * (8 + 1 + 8)
