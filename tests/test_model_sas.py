"""Integration tests for the CC-SAS runtime."""

import numpy as np
import pytest

from repro.models.registry import run_program
from repro.models.sas.parallel import WorkQueue, block_partition

NPROC_SET = (1, 2, 3, 4, 5, 8, 13, 16)


def run_sas(program, nprocs, *args, **kwargs):
    return run_program("sas", program, nprocs, *args, **kwargs)


class TestBlockPartition:
    def test_covers_everything_without_overlap(self):
        for total in (0, 1, 7, 100):
            for nprocs in (1, 3, 8):
                spans = [block_partition(total, nprocs, r) for r in range(nprocs)]
                flat = [i for lo, hi in spans for i in range(lo, hi)]
                assert flat == list(range(total))

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in (block_partition(100, 7, r) for r in range(7))]
        assert max(sizes) - min(sizes) <= 1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            block_partition(10, 0, 0)
        with pytest.raises(ValueError):
            block_partition(10, 2, 5)


class TestSharedArrays:
    def test_shared_data_is_truly_shared(self):
        def program(ctx):
            x = ctx.shalloc("x", (64,), np.float64)
            lo, hi = block_partition(64, ctx.nprocs, ctx.rank)
            yield from ctx.swrite(x, np.full(hi - lo, float(ctx.rank)), lo=lo)
            yield from ctx.barrier()
            vals = yield from ctx.sread(x)
            return float(vals.sum())

        res = run_sas(program, 4)
        expected = sum(rank * 16 for rank in range(4))
        assert res.rank_results == [float(expected)] * 4

    def test_conflicting_realloc_rejected(self):
        def program(ctx):
            ctx.shalloc("y", (8 + ctx.rank,), np.float64)
            yield from ctx.barrier()

        with pytest.raises(ValueError, match="conflicting"):
            run_sas(program, 2)

    def test_sread_returns_copy(self):
        def program(ctx):
            x = ctx.shalloc("x", (4,), np.float64)
            yield from ctx.swrite(x, [1.0, 2.0, 3.0, 4.0])
            got = yield from ctx.sread(x)
            got[0] = 99.0  # must not write through
            again = yield from ctx.sread(x, 0, 1)
            return float(again[0])

        res = run_sas(program, 1)
        assert res.rank_results == [1.0]

    def test_touch_bounds_checked(self):
        def program(ctx):
            x = ctx.shalloc("x", (4,), np.float64)
            yield from ctx.stouch(x, 0, 10)

        with pytest.raises(IndexError):
            run_sas(program, 1)

    @pytest.mark.parametrize(
        "bad, shown",
        [([10_000], "[10000, 10000]"), ([-1], "[-1, -1]"), ([5, 64, 2], "[2, 64]")],
        ids=["past-end", "negative", "one-past-end"],
    )
    def test_touch_idx_bounds_checked(self, bad, shown):
        """Indices off either end are refused before any counter or line state moves."""

        def program(ctx):
            x = ctx.shalloc("x", (64,), np.float64)
            with pytest.raises(IndexError) as err:
                yield from ctx.stouch_idx(x, bad, write=True)
            for call in (ctx.sread_idx(x, bad), ctx.swrite_idx(x, bad, np.zeros(len(bad)))):
                with pytest.raises(IndexError):
                    yield from call
            s = ctx.stats
            return (str(err.value), s.loads, s.stores, s.lines_touched,
                    ctx.machine.directory.live_entries(), ctx.now)

        (msg, loads, stores, touched, entries, now), = run_sas(program, 1).rank_results
        assert msg == f"touch indices {shown} out of range for 'x' of size 64"
        assert (loads, stores, touched, entries, now) == (0, 0, 0, 0, 0.0)

    def test_touch_idx_empty_is_free(self):
        def program(ctx):
            x = ctx.shalloc("x", (64,), np.float64)
            yield from ctx.stouch_idx(x, [])
            got = yield from ctx.sread_idx(x, np.empty(0, dtype=np.int64))
            return got.size, ctx.stats.loads, ctx.stats.lines_touched, ctx.now

        assert run_sas(program, 1).rank_results == [(0, 0, 0, 0.0)]


class TestCoherenceCosts:
    def test_repeated_local_reads_hit_cache(self):
        def program(ctx):
            x = ctx.shalloc("x", (256,), np.float64)
            yield from ctx.sread(x)
            t0 = ctx.now
            yield from ctx.sread(x)
            return ctx.now - t0

        res = run_sas(program, 1)
        stats = res.stats.per_cpu[0]
        assert stats.l2_hits > 0
        # second sweep is all hits: much cheaper than a miss per line
        assert res.rank_results[0] < 256 * 8 / 128 * 338

    def test_false_sharing_costs_invalidations(self):
        """Two CPUs writing adjacent elements of one line ping-pong it."""

        def program(ctx):
            x = ctx.shalloc("x", (2,), np.float64)  # one cache line
            for _ in range(20):
                yield from ctx.swrite(x, [float(ctx.rank)], lo=ctx.rank)
            yield from ctx.barrier()

        res = run_sas(program, 2)
        total_inval = res.stats.total("invalidations_sent")
        assert total_inval >= 19  # nearly every write invalidates the peer

    def test_placement_policy_changes_cost(self):
        """first-touch beats fixed-on-node-0 for partitioned access."""

        def program(ctx):
            x = ctx.shalloc("x", (8192,), np.float64)
            lo, hi = block_partition(8192, ctx.nprocs, ctx.rank)
            for _ in range(4):
                yield from ctx.stouch(x, lo, hi, write=True)
                # flush so every round pays memory latency again
                ctx.machine.caches[ctx.rank].flush()
            yield from ctx.barrier()

        t_ft = run_sas(program, 8, placement="first-touch").elapsed_ns
        t_fixed = run_sas(program, 8, placement="fixed:0").elapsed_ns
        assert t_fixed > t_ft * 1.2

    def test_stall_time_charged_for_remote_reads(self):
        def program(ctx):
            x = ctx.shalloc("x", (1024,), np.float64)
            lo, hi = block_partition(1024, ctx.nprocs, ctx.rank)
            yield from ctx.swrite(x, np.ones(hi - lo), lo=lo)
            yield from ctx.barrier()
            # reading the other rank's half crosses the coherence protocol
            yield from ctx.sread(x)

        res = run_sas(program, 2)
        assert res.stats.per_cpu[0].stall_ns > 0
        assert res.stats.per_cpu[0].loads == 1024
        assert res.stats.per_cpu[0].dirty_misses > 0

    def test_local_data_accesses_charge_no_extra_stall(self):
        """Hits and local misses are covered by the compute constants."""

        def program(ctx):
            x = ctx.shalloc("x", (1024,), np.float64)
            yield from ctx.sread(x)
            return ctx.stats.stall_ns

        res = run_sas(program, 1)
        assert res.rank_results[0] == 0.0


class TestSync:
    @pytest.mark.parametrize("n", NPROC_SET)
    def test_barrier_synchronises(self, n):
        def program(ctx):
            yield from ctx.compute(777.0 * ctx.rank)
            yield from ctx.barrier()
            return ctx.now

        res = run_sas(program, n)
        assert all(t >= 777.0 * (n - 1) for t in res.rank_results)

    def test_barrier_reusable_many_times(self):
        def program(ctx):
            for i in range(10):
                yield from ctx.compute(100.0 * ((ctx.rank + i) % ctx.nprocs))
                yield from ctx.barrier()
            return True

        res = run_sas(program, 5)
        assert all(res.rank_results)

    def test_lock_mutual_exclusion(self):
        def program(ctx):
            acc = ctx.shalloc("acc", (1,), np.float64)
            for _ in range(5):
                yield from ctx.lock("m")
                cur = yield from ctx.sread(acc, 0, 1)
                yield from ctx.compute(123.0)
                yield from ctx.swrite(acc, cur + 1.0)
                yield from ctx.unlock("m")
            yield from ctx.barrier()
            final = yield from ctx.sread(acc, 0, 1)
            return float(final[0])

        res = run_sas(program, 4)
        assert res.rank_results == [20.0] * 4

    def test_unlock_foreign_lock_rejected(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.lock("m")
            yield from ctx.barrier()
            if ctx.rank == 1:
                yield from ctx.unlock("m")

        with pytest.raises(RuntimeError, match="does not hold"):
            run_sas(program, 2)

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_reduce_all(self, n):
        def program(ctx):
            got = yield from ctx.reduce_all(ctx.rank + 1)
            return got

        res = run_sas(program, n)
        assert res.rank_results == [n * (n + 1) // 2] * n

    def test_reduce_all_with_arrays(self):
        def program(ctx):
            got = yield from ctx.reduce_all(np.full(4, float(ctx.rank)))
            return float(got[0])

        res = run_sas(program, 4)
        assert res.rank_results == [6.0] * 4


class TestWorkQueue:
    @pytest.mark.parametrize("n", (1, 2, 4, 8))
    def test_chunks_cover_exactly(self, n):
        def program(ctx):
            wq = WorkQueue(ctx, "q", 101, chunk=7)
            got = []
            while True:
                chunk = yield from wq.next_chunk(ctx)
                if chunk is None:
                    break
                got.extend(range(*chunk))
                yield from ctx.compute(50.0)
            all_items = yield from ctx.reduce_all(got, lambda a, b: a + b)
            return sorted(all_items)

        res = run_sas(program, n)
        assert res.rank_results[0] == list(range(101))

    def test_dynamic_beats_static_under_imbalance(self):
        """Self-scheduling wins when per-item cost is wildly skewed."""

        def static_prog(ctx):
            lo, hi = block_partition(64, ctx.nprocs, ctx.rank)
            for i in range(lo, hi):
                yield from ctx.compute(10_000.0 if i < 8 else 100.0)
            yield from ctx.barrier()

        def dynamic_prog(ctx):
            wq = WorkQueue(ctx, "q", 64, chunk=1)
            while True:
                chunk = yield from wq.next_chunk(ctx)
                if chunk is None:
                    break
                for i in range(*chunk):
                    yield from ctx.compute(10_000.0 if i < 8 else 100.0)
            yield from ctx.barrier()

        t_static = run_sas(static_prog, 8).elapsed_ns
        t_dynamic = run_sas(dynamic_prog, 8).elapsed_ns
        assert t_dynamic < t_static

    def test_bad_args(self):
        def program(ctx):
            WorkQueue(ctx, "q", -1)
            yield from ctx.barrier()

        with pytest.raises(ValueError):
            run_sas(program, 1)


class TestBarrierStats:
    def test_central_barrier_accumulates_sync_on_every_rank(self):
        def program(ctx):
            yield from ctx.compute(float(ctx.rank) * 500.0)  # skewed arrivals
            yield from ctx.barrier(kind="central")
            return ctx.now

        res = run_sas(program, 4)
        # early arrivals wait for the straggler: everyone books sync time
        for rank in range(4):
            assert res.stats.per_cpu[rank].sync_ns > 0.0
        # rank 0 arrived first, so it waited longest
        syncs = [res.stats.per_cpu[r].sync_ns for r in range(4)]
        assert syncs[0] == max(syncs)

    def test_central_barrier_sense_word_misses_are_coherence_misses(self):
        """The release write invalidates every waiter's cached sense word;
        their re-reads after the barrier are coherence (dirty/remote) misses
        the directory must charge — the O(P) hot-spot the paper discusses."""

        def program(ctx):
            for _ in range(3):
                yield from ctx.barrier(kind="central")
            return None

        res = run_sas(program, 4)
        s = res.stats.summary()
        assert s["invalidations"] > 0  # counter + sense-word ping-pong
        assert s["dirty_misses"] + s["remote_misses"] > 0

    def test_central_costs_more_than_tree(self):
        def program(ctx):
            for _ in range(4):
                yield from ctx.barrier(kind=ctx.cfg.derived.get("bar_kind", "tree"))
            return ctx.now

        from repro.machine import MachineConfig

        central = run_program(
            "sas", program, 8,
            config=MachineConfig(nprocs=8, derived={"bar_kind": "central"}),
        )
        tree = run_program(
            "sas", program, 8,
            config=MachineConfig(nprocs=8, derived={"bar_kind": "tree"}),
        )
        assert central.elapsed_ns > tree.elapsed_ns

    def test_barrier_group_syncs_subgroup_only(self):
        def program(ctx):
            group = ctx.rank // 2  # pairs
            yield from ctx.compute(1000.0 * (ctx.rank % 2))
            yield from ctx.barrier_group(("pair", group), 2)
            return ctx.now

        res = run_sas(program, 4)
        # within a pair both ranks leave together; sync was booked
        assert res.rank_results[0] == res.rank_results[1]
        assert res.rank_results[2] == res.rank_results[3]
        assert res.stats.per_cpu[0].sync_ns > 0.0

    def test_barrier_group_size_one_is_free(self):
        def program(ctx):
            yield from ctx.barrier_group("solo", 1)
            return ctx.now

        res = run_sas(program, 2)
        assert res.rank_results == [0.0, 0.0]

    def test_barrier_group_rejects_bad_size(self):
        def program(ctx):
            yield from ctx.barrier_group("bad", 0)

        with pytest.raises(ValueError, match="group size"):
            run_sas(program, 2)

    def test_barrier_group_reusable_across_phases(self):
        def program(ctx):
            for _ in range(3):  # the state must reset between uses
                yield from ctx.barrier_group("all", ctx.nprocs)
            return ctx.now

        res = run_sas(program, 4)
        assert len(set(res.rank_results)) == 1
