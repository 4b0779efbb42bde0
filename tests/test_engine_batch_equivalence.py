"""Golden timelines: the batched event engine against recorded fingerprints.

The engine core (same-timestamp cohort drain, array-backed delay lane,
zero lane, ``call_after`` timers, fused ``Hop`` protocol legs and
``Network.transfer_async`` timer transfers) must be invisible in every
simulated quantity.  Its reference was the scalar one-event-at-a-time
heap loop with spawned-coroutine network transfers and list-scan
matching.  ``tests/golden/timelines.json`` holds that reference's
fingerprints, recorded by ``tools/record_timeline_golden.py``, and each
row here re-runs one model at one P and compares.

Locked quantities, all bit-identical (no tolerance):

* simulated elapsed nanoseconds,
* the complete ``repro.obs`` event stream (kind, t, src, dst, nbytes,
  dur and every attribute, in emission order),
* per-CPU statistics (the float-sum order inside each rank matters),
* per-rank program results,
* for the ``contended-net`` rows, every link's bytes, acquires, claim
  waits, queued ns and busy ns,
* for the P=12 ``engine`` rows and ``mpi-waits``, the engine's seq count.

P=64 and P=128 rows carry the ``nightly`` marker.
"""

import random

import pytest

from repro.machine import Machine, MachineConfig
from repro.models.mpi.matchq import ANY, MatchQueue
from tests.reference import ListScanQueue, assert_matches_recording, recorder

MODELS = ("mpi", "shmem", "sas", "hybrid")
PROCS = [1, 8, pytest.param(64, marks=pytest.mark.nightly),
         pytest.param(128, marks=pytest.mark.nightly)]


class TestGoldenTimelines:
    @pytest.mark.parametrize("nprocs", PROCS)
    @pytest.mark.parametrize("model", MODELS)
    def test_trace_and_stats_identical(self, model, nprocs):
        assert_matches_recording(f"engine/{model}-{nprocs}")

    @pytest.mark.parametrize("model", recorder.ENGINE_ODD_MODELS)
    def test_non_power_of_two_trees_identical(self, model):
        """P=12: uneven collective trees and SHMEM ``to_all``'s fold/unfold."""
        assert_matches_recording(f"engine/{model}-12")

    def test_mixed_protocol_waits_identical(self):
        """``waitall``/``waitany`` over eager, rendezvous and zero-byte messages."""
        assert_matches_recording("mpi-waits/12")

    @pytest.mark.parametrize("nprocs", (8, 64))
    @pytest.mark.parametrize("model", ("shmem", "mpi"))
    def test_contended_network_identical(self, model, nprocs):
        """All-to-all traffic that queues on links: timeline and per-link stats."""
        name = f"contended-net/{model}/{nprocs}"
        machine = recorder.case_machine(name)
        assert_matches_recording(name, machine=machine)
        # the case really queued transfers behind busy links
        assert sum(ls.claim_waits for ls in machine.network.link_stats()) > 0

    def test_batched_arm_exercises_fast_paths(self):
        machine = Machine(MachineConfig(nprocs=8))
        assert_matches_recording("engine/mpi-8", machine=machine)
        assert machine.network.timer_fast_transfers > 0
        assert machine.engine.counters()["zero_lane_hits"] > 0


class TestMatchIndex:
    def _q(self):
        return MatchQueue()

    def test_concrete_probe_uses_index(self):
        q = self._q()
        for i in range(8):
            q.append(("m", i), src=i % 2, tag=100 + i)
        # out-of-order concrete probe: not the head, no wildcards live
        assert q.pop_first(1, 105) == ("m", 5)
        assert q.index_hits == 1
        assert len(q) == 7

    def test_index_skips_stale_positions(self):
        q = self._q()
        q.append("a", src=0, tag=7)
        q.append("b", src=0, tag=7)
        # first pop via the head route leaves the index bucket stale
        assert q.pop_first(0, 7) == "a"
        assert q.head_hits == 1
        # dead-prefix trim makes "b" the head; bucket still holds position 0
        assert q.pop_first(0, 7) == "b"
        assert len(q) == 0

    def test_empty_bucket_proves_no_match(self):
        q = self._q()
        q.append("a", src=0, tag=1)
        q.append("b", src=0, tag=2)
        assert q.pop_first(3, 9) is None
        assert len(q) == 2

    def test_wildcard_entries_disable_index_route(self):
        q = self._q()
        q.append("w", src=ANY, tag=5)
        q.append("c", src=2, tag=5)
        # a live wildcard entry could out-rank the bucket's first position,
        # so the index must not answer: FIFO first-match is the wildcard
        assert q.pop_first(2, 5) == "w"
        assert q.index_hits == 0

    def test_storage_recycles_and_index_clears(self):
        q = self._q()
        for i in range(4):
            q.append(i, src=i, tag=i)
        for i in range(4):
            assert q.pop_first(i, i) == i
        assert q.pop_first(0, 0) is None  # triggers the recycle
        assert len(q._items) == 0
        assert q._index == {}
        q.append("new", src=0, tag=0)
        assert q.pop_first(0, 0) == "new"

    def test_match_order_equivalence_random(self):
        """Index/vector routes return exactly what a list scan would."""
        rng = random.Random(1234)
        fast, slow = self._q(), ListScanQueue()
        live = 0
        for step in range(4000):
            if live and rng.random() < 0.45:
                if rng.random() < 0.8:
                    probe = (rng.randrange(4), rng.randrange(6))
                else:
                    probe = (rng.choice([ANY, rng.randrange(4)]),
                             rng.choice([ANY, rng.randrange(6)]))
                a = fast.pop_first(*probe)
                b = slow.pop_first(*probe)
                assert a == b
                if a is not None:
                    live -= 1
            else:
                src, tag = rng.randrange(4), rng.randrange(6)
                if rng.random() < 0.1:
                    src = ANY
                item = (step, src, tag)
                fast.append(item, src=src, tag=tag)
                slow.append(item, src=src, tag=tag)
                live += 1
        assert len(fast) == len(slow) == live
