"""Integration tests for the SHMEM runtime."""

import numpy as np
import pytest

from repro.machine import Machine, MachineConfig
from repro.models.registry import run_program

NPROC_SET = (1, 2, 3, 4, 5, 8, 13, 16)


def run_shmem(program, nprocs, *args, **kwargs):
    return run_program("shmem", program, nprocs, *args, **kwargs)


class TestSymmetricHeap:
    def test_salloc_returns_per_rank_copies(self):
        def program(ctx):
            arr = ctx.salloc("a", (4,), np.float64)
            arr.local(ctx.rank)[:] = ctx.rank
            yield from ctx.barrier_all()
            return float(arr.local(ctx.rank)[0])

        res = run_shmem(program, 4)
        assert res.rank_results == [0.0, 1.0, 2.0, 3.0]

    def test_asymmetric_alloc_rejected(self):
        def program(ctx):
            ctx.salloc("bad", (4 + ctx.rank,), np.float64)
            yield from ctx.barrier_all()

        with pytest.raises(ValueError, match="asymmetric"):
            run_shmem(program, 2)


class TestPutGet:
    @pytest.mark.parametrize("n", NPROC_SET)
    def test_all_to_all_puts(self, n):
        def program(ctx):
            buf = ctx.salloc("buf", (ctx.nprocs,), np.float64)
            for dst in range(ctx.nprocs):
                yield from ctx.put(buf, dst, np.array([float(ctx.rank)]), offset=ctx.rank)
            yield from ctx.barrier_all()
            return buf.local(ctx.rank).tolist()

        res = run_shmem(program, n)
        expected = [float(i) for i in range(n)]
        assert all(r == expected for r in res.rank_results)

    def test_put_snapshot_semantics(self):
        """The source buffer is reusable as soon as put returns."""

        def program(ctx):
            buf = ctx.salloc("buf", (1,), np.float64)
            if ctx.rank == 0:
                data = np.array([42.0])
                yield from ctx.put(buf, 1, data)
                data[0] = -1.0  # mutating after return must not corrupt
                yield from ctx.barrier_all()
                return None
            yield from ctx.barrier_all()
            return float(buf.local(1)[0])

        res = run_shmem(program, 2)
        assert res.rank_results[1] == 42.0

    def test_get_round_trip(self):
        def program(ctx):
            buf = ctx.salloc("buf", (8,), np.float64)
            buf.local(ctx.rank)[:] = ctx.rank * 10
            yield from ctx.barrier_all()
            got = yield from ctx.get(buf, (ctx.rank + 1) % ctx.nprocs)
            return float(got[0])

        res = run_shmem(program, 4)
        assert res.rank_results == [10.0, 20.0, 30.0, 0.0]

    def test_put_bounds_checked(self):
        def program(ctx):
            buf = ctx.salloc("buf", (4,), np.float64)
            yield from ctx.put(buf, 0, np.zeros(8), offset=0)
            yield from ctx.quiet()

        with pytest.raises(IndexError):
            run_shmem(program, 1)

    @pytest.mark.parametrize("target", (0, 2))
    def test_put_overflow_raises_in_the_issuing_call(self, target):
        """An overflowing put fails in the issuing rank's call, before it counts."""
        seen = []

        def program(ctx):
            buf = ctx.salloc("buf", (4,), np.float64)
            if ctx.rank == 0:
                with pytest.raises(
                    IndexError, match=r"put of 8 elems at offset 1 overflows 'buf' \(size 4\)"
                ):
                    yield from ctx.put(buf, target, np.zeros(8), offset=1)
                seen.append(ctx.now)
            yield from ctx.barrier_all()

        res = run_shmem(program, 4, trace=True)
        assert seen == [0.0]
        assert res.stats.per_cpu[0].puts == 0
        assert res.stats.per_cpu[0].put_bytes == 0
        assert [e for e in res.events if e.kind in ("put", "put_done")] == []

    def test_get_bounds_checked(self):
        def program(ctx):
            buf = ctx.salloc("buf", (4,), np.float64)
            yield from ctx.get(buf, 0, offset=2, count=10)

        with pytest.raises(IndexError):
            run_shmem(program, 1)

    def test_quiet_waits_for_delivery(self):
        def program(ctx):
            buf = ctx.salloc("buf", (65536,), np.float64)
            if ctx.rank == 0:
                yield from ctx.put(buf, 1, np.ones(65536))
                yield from ctx.quiet()
                # after quiet, remote data must be visible
                assert buf.local(1)[65535] == 1.0
                yield from ctx.barrier_all()
            else:
                yield from ctx.barrier_all()
            return True

        res = run_shmem(program, 2)
        assert all(res.rank_results)

    def test_barrier_implies_quiet(self):
        def program(ctx):
            buf = ctx.salloc("buf", (1,), np.float64)
            if ctx.rank == 0:
                yield from ctx.put(buf, 1, np.array([7.0]))
            yield from ctx.barrier_all()
            return float(buf.local(1)[0])

        res = run_shmem(program, 2)
        assert res.rank_results == [7.0, 7.0]


class TestAtomicsAndLocks:
    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_fetch_add_counts_every_rank(self, n):
        def program(ctx):
            ctr = ctx.salloc("ctr", (1,), np.int64)
            old = yield from ctx.atomic_fetch_add(ctr, 0, 0, 1)
            yield from ctx.barrier_all()
            return int(ctr.local(0)[0])

        res = run_shmem(program, n)
        assert all(v == n for v in res.rank_results)

    def test_fetch_add_returns_old_values(self):
        def program(ctx):
            ctr = ctx.salloc("ctr", (1,), np.int64)
            olds = []
            for _ in range(3):
                old = yield from ctx.atomic_fetch_add(ctr, 0, 0, 1)
                olds.append(old)
            return olds

        res = run_shmem(program, 1)
        assert res.rank_results[0] == [0, 1, 2]

    def test_cswap(self):
        def program(ctx):
            w = ctx.salloc("w", (1,), np.int64)
            first = yield from ctx.atomic_cswap(w, 0, 0, 0, ctx.rank + 100)
            yield from ctx.barrier_all()
            return (first, int(w.local(0)[0]))

        res = run_shmem(program, 4)
        winner_value = res.rank_results[0][1]
        assert all(v == winner_value for _, v in res.rank_results)
        assert sum(1 for old, _ in res.rank_results if old == 0) == 1

    def test_lock_mutual_exclusion(self):
        def program(ctx):
            acc = ctx.salloc("acc", (1,), np.float64)
            for _ in range(3):
                yield from ctx.set_lock("L")
                # unprotected read-modify-write made safe by the lock
                value = float(acc.local(0)[0])
                yield from ctx.compute(500.0)
                acc.local(0)[0] = value + 1
                yield from ctx.clear_lock("L")
            yield from ctx.barrier_all()
            return float(acc.local(0)[0])

        res = run_shmem(program, 4)
        assert all(v == 12.0 for v in res.rank_results)

    def test_clear_foreign_lock_rejected(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.set_lock("L")
            yield from ctx.barrier_all()
            if ctx.rank == 1:
                yield from ctx.clear_lock("L")

        with pytest.raises(RuntimeError, match="does not hold"):
            run_shmem(program, 2)


class TestCollectives:
    @pytest.mark.parametrize("n", NPROC_SET)
    def test_sum_to_all(self, n):
        def program(ctx):
            got = yield from ctx.sum_to_all(ctx.rank + 1)
            return got

        res = run_shmem(program, n)
        assert res.rank_results == [n * (n + 1) // 2] * n

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_max_min_to_all(self, n):
        def program(ctx):
            hi = yield from ctx.max_to_all(ctx.rank)
            lo = yield from ctx.min_to_all(ctx.rank)
            return (hi, lo)

        res = run_shmem(program, n)
        assert res.rank_results == [(n - 1, 0)] * n

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_collect(self, n):
        def program(ctx):
            got = yield from ctx.collect(ctx.rank * 5)
            return got

        res = run_shmem(program, n)
        assert res.rank_results == [[5 * i for i in range(n)]] * n

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_broadcast(self, n):
        root = n // 2

        def program(ctx):
            got = yield from ctx.broadcast(
                "gold" if ctx.rank == root else None, root=root
            )
            return got

        res = run_shmem(program, n)
        assert res.rank_results == ["gold"] * n


class TestCosts:
    def test_put_much_cheaper_than_mpi_send(self):
        """The headline SHMEM property: low per-message software overhead."""

        def shmem_prog(ctx):
            buf = ctx.salloc("b", (16,), np.float64)
            for _ in range(50):
                yield from ctx.put(buf, 1 - ctx.rank, np.zeros(16))
            yield from ctx.quiet()
            yield from ctx.barrier_all()

        def mpi_prog(ctx):
            for i in range(50):
                if ctx.rank == 0:
                    yield from ctx.send(np.zeros(16), 1, tag=i)
                else:
                    yield from ctx.recv(0, tag=i)

        t_shmem = run_program("shmem", shmem_prog, 2).elapsed_ns
        t_mpi = run_program("mpi", mpi_prog, 2).elapsed_ns
        assert t_mpi > 3 * t_shmem

    def test_put_counters(self):
        def program(ctx):
            buf = ctx.salloc("b", (16,), np.float64)
            if ctx.rank == 0:
                yield from ctx.put(buf, 1, np.zeros(16))
            yield from ctx.barrier_all()

        res = run_shmem(program, 2)
        assert res.stats.per_cpu[0].puts == 1
        assert res.stats.per_cpu[0].put_bytes == 128


class TestCollectiveTransfers:
    """SHMEM collective legs deliver through network timers."""

    @pytest.mark.parametrize("n", (8, 12))
    def test_to_all_spawns_no_process_beyond_the_ranks(self, n):
        def program(ctx):
            got = yield from ctx.sum_to_all(ctx.rank + 1)
            table = yield from ctx.collect(ctx.rank)
            return got, table

        machine = Machine(MachineConfig(nprocs=16 if n == 12 else n))
        res = run_program("shmem", program, n, machine=machine)
        assert res.rank_results[:n] == [(n * (n + 1) // 2, list(range(n)))] * n
        assert len(machine.engine._procs) == n

    def test_fault_plane_to_all_delivers_through_spawned_transfers(self):
        def program(ctx):
            got = yield from ctx.sum_to_all(ctx.rank + 1)
            return got

        machine = Machine(MachineConfig(nprocs=8), faults="lossy")
        res = run_program("shmem", program, 8, machine=machine)
        assert res.rank_results == [36] * 8
        spawned = [p.name for p in machine.engine._procs[8:]]
        assert spawned and all(name.startswith("shmem-coll:") for name in spawned)
