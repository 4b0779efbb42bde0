"""Integration tests for the MPI runtime (point-to-point + collectives)."""

import numpy as np
import pytest

from repro.models.registry import run_program

NPROC_SET = (1, 2, 3, 4, 5, 8, 13, 16)


def run_mpi(program, nprocs, *args, **kwargs):
    return run_program("mpi", program, nprocs, *args, **kwargs)


class TestPointToPoint:
    def test_ring_sendrecv(self):
        def program(ctx):
            n = ctx.nprocs
            data = np.arange(8, dtype=np.float64) + ctx.rank
            got = yield from ctx.sendrecv(data, (ctx.rank + 1) % n, (ctx.rank - 1) % n)
            return float(got[0])

        for n in (2, 3, 8):
            res = run_mpi(program, n)
            assert res.rank_results == [float((r - 1) % n) for r in range(n)]

    def test_eager_small_message(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(b"hello", 1)
                return "sent"
            got = yield from ctx.recv(0)
            return got

        res = run_mpi(program, 2)
        assert res.rank_results == ["sent", b"hello"]

    def test_rendezvous_large_message(self):
        def program(ctx):
            big = np.arange(50_000, dtype=np.float64)
            if ctx.rank == 0:
                yield from ctx.send(big, 1)
                return None
            got = yield from ctx.recv(0)
            return float(got.sum())

        res = run_mpi(program, 2)
        assert res.rank_results[1] == pytest.approx(float(np.arange(50_000).sum()))

    def test_rendezvous_sender_blocks_until_recv_posted(self):
        recv_post_delay = 500_000.0

        def program(ctx):
            big = np.zeros(100_000)
            if ctx.rank == 0:
                yield from ctx.send(big, 1)
                return ctx.now
            yield from ctx.compute(recv_post_delay)
            yield from ctx.recv(0)
            return None

        res = run_mpi(program, 2)
        assert res.rank_results[0] >= recv_post_delay

    def test_eager_sender_does_not_block(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(b"x" * 64, 1)
                return ctx.now
            yield from ctx.compute(1_000_000.0)
            yield from ctx.recv(0)
            return None

        res = run_mpi(program, 2)
        assert res.rank_results[0] < 1_000_000.0

    def test_tag_matching_out_of_order(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send("first", 1, tag=1)
                yield from ctx.send("second", 1, tag=2)
                return None
            second = yield from ctx.recv(0, tag=2)
            first = yield from ctx.recv(0, tag=1)
            return (first, second)

        res = run_mpi(program, 2)
        assert res.rank_results[1] == ("first", "second")

    def test_non_overtaking_same_tag(self):
        def program(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield from ctx.send(i, 1, tag=7)
                return None
            out = []
            for _ in range(5):
                got = yield from ctx.recv(0, tag=7)
                out.append(got)
            return out

        res = run_mpi(program, 2)
        assert res.rank_results[1] == [0, 1, 2, 3, 4]

    def test_any_source_any_tag_and_status(self):
        from repro.models.mpi import ANY_SOURCE, ANY_TAG, Status

        def program(ctx):
            if ctx.rank != 0:
                yield from ctx.send(ctx.rank * 10, 0, tag=ctx.rank)
                return None
            seen = {}
            for _ in range(ctx.nprocs - 1):
                st = Status()
                got = yield from ctx.recv(ANY_SOURCE, ANY_TAG, status=st)
                seen[st.source] = (got, st.tag)
            return seen

        res = run_mpi(program, 4)
        assert res.rank_results[0] == {1: (10, 1), 2: (20, 2), 3: (30, 3)}

    def test_isend_irecv_waitall(self):
        def program(ctx):
            n = ctx.nprocs
            reqs = []
            for dst in range(n):
                if dst != ctx.rank:
                    r = yield from ctx.isend(ctx.rank, dst, tag=3)
                    reqs.append(r)
            recvs = []
            for src in range(n):
                if src != ctx.rank:
                    r = yield from ctx.irecv(src, tag=3)
                    recvs.append(r)
            got = yield from ctx.waitall(recvs)
            yield from ctx.waitall(reqs)
            return sorted(got)

        res = run_mpi(program, 4)
        for rank, out in enumerate(res.rank_results):
            assert out == sorted(set(range(4)) - {rank})

    def test_waitany_returns_earliest(self):
        def program(ctx):
            if ctx.rank == 0:
                r1 = yield from ctx.irecv(1, tag=1)
                r2 = yield from ctx.irecv(2, tag=2)
                idx, payload = yield from ctx.waitany([r1, r2])
                return (idx, payload)
            yield from ctx.compute(1000.0 if ctx.rank == 2 else 500_000.0)
            yield from ctx.send("from%d" % ctx.rank, 0, tag=ctx.rank)
            return None

        res = run_mpi(program, 3)
        assert res.rank_results[0] == (1, "from2")

    def test_iprobe(self):
        def program(ctx):
            if ctx.rank == 0:
                assert not ctx.iprobe()
                yield from ctx.compute(1_000_000.0)
                assert ctx.iprobe(source=1, tag=9)
                got = yield from ctx.recv(1, tag=9)
                return got
            yield from ctx.send("probe-me", 0, tag=9)
            return None

        res = run_mpi(program, 2)
        assert res.rank_results[0] == "probe-me"

    def test_bad_destination_raises(self):
        def program(ctx):
            yield from ctx.send(1, 99)

        with pytest.raises(ValueError):
            run_mpi(program, 2)

    @pytest.mark.parametrize("faults", [None, "bursty-links"])
    @pytest.mark.parametrize("call", ["isend", "send", "sendrecv", "comm-isend", "comm-sendrecv"])
    def test_negative_nbytes_raises_at_the_call(self, faults, call):
        def bad(ctx, comm):
            if call == "isend":
                yield from ctx.isend(b"x", 1, 0, nbytes=-80_000)
            elif call == "send":
                yield from ctx.send(b"x", 1, nbytes=-1)
            elif call == "sendrecv":
                yield from ctx.sendrecv(b"x", 1, 1, nbytes=-80_000)
            elif call == "comm-isend":
                yield from comm.isend(b"x", 1, 0, nbytes=-80_000)
            else:
                yield from comm.sendrecv(b"x", 1, 1, nbytes=-80_000)

        def program(ctx):
            comm = yield from ctx.comm_split(0, ctx.rank)
            if ctx.rank == 1:
                got = yield from ctx.recv(0)
                return got
            before = (ctx.stats.msgs_sent, ctx.stats.bytes_sent, ctx.now)
            with pytest.raises(ValueError, match="negative message size"):
                yield from bad(ctx, comm)
            after = (ctx.stats.msgs_sent, ctx.stats.bytes_sent, ctx.now)
            yield from ctx.send(b"ok", 1)  # the rank sends on unharmed
            return before, after

        res = run_mpi(program, 2, faults=faults)
        (before, after), got = res.rank_results
        assert after == before and got == b"ok"


class TestCollectives:
    @pytest.mark.parametrize("n", NPROC_SET)
    def test_bcast(self, n):
        def program(ctx):
            value = {"data": 42} if ctx.rank == 0 else None
            got = yield from ctx.bcast(value, root=0)
            return got["data"]

        res = run_mpi(program, n)
        assert res.rank_results == [42] * n

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_bcast_nonzero_root(self, n):
        root = n - 1

        def program(ctx):
            value = "payload" if ctx.rank == root else None
            got = yield from ctx.bcast(value, root=root)
            return got

        res = run_mpi(program, n)
        assert res.rank_results == ["payload"] * n

    @pytest.mark.parametrize("n", (2, 5, 8, 13))
    @pytest.mark.parametrize("split", (False, True))
    def test_bcast_sizes_payload_once(self, n, split, monkeypatch):
        """The root sizes the payload; every forward reuses the received size."""
        from repro.models import payload
        from repro.models.mpi import collectives, context

        from tests.reference import reference_nbytes

        value = [{"lo": i, "pos": np.zeros((i + 1, 2))} for i in range(n)]
        sized = []

        def counted(obj):
            sized.append(obj is value)
            return payload.nbytes_of(obj)

        monkeypatch.setattr(collectives, "nbytes_of", counted)
        monkeypatch.setattr(context, "nbytes_of", counted)

        def program(ctx):
            # a split keeping world order sends through MpiComm.recv/send
            comm = (yield from ctx.comm_split(0, ctx.rank)) if split else ctx
            sent = ctx.stats.bytes_sent
            got = yield from comm.bcast(value if ctx.rank == 0 else None, root=0)
            return got is not None and len(got), ctx.stats.bytes_sent - sent

        res = run_mpi(program, n)
        assert [r[0] for r in res.rank_results] == [n] * n
        assert sum(r[1] for r in res.rank_results) == (n - 1) * reference_nbytes(value)
        assert sum(sized) == 1

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_reduce_sum(self, n):
        def program(ctx):
            got = yield from ctx.reduce(ctx.rank + 1, root=0)
            return got

        res = run_mpi(program, n)
        assert res.rank_results[0] == n * (n + 1) // 2
        assert all(v is None for v in res.rank_results[1:])

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_allreduce_max(self, n):
        def program(ctx):
            got = yield from ctx.allreduce(ctx.rank, op=max)
            return got

        res = run_mpi(program, n)
        assert res.rank_results == [n - 1] * n

    def test_allreduce_numpy_arrays(self):
        def program(ctx):
            vec = np.full(16, float(ctx.rank))
            got = yield from ctx.allreduce(vec)
            return float(got[0])

        res = run_mpi(program, 4)
        assert res.rank_results == [6.0] * 4

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_gather_and_allgather(self, n):
        def program(ctx):
            g = yield from ctx.gather(ctx.rank * 2, root=0)
            ag = yield from ctx.allgather(ctx.rank * 3)
            return (g, ag)

        res = run_mpi(program, n)
        g0, ag0 = res.rank_results[0]
        assert g0 == [2 * i for i in range(n)]
        for g, ag in res.rank_results:
            assert ag == [3 * i for i in range(n)]

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_scatter(self, n):
        def program(ctx):
            values = [i * i for i in range(n)] if ctx.rank == 0 else None
            got = yield from ctx.scatter(values, root=0)
            return got

        res = run_mpi(program, n)
        assert res.rank_results == [i * i for i in range(n)]

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_alltoall(self, n):
        def program(ctx):
            got = yield from ctx.alltoall([(ctx.rank, d) for d in range(n)])
            return got

        res = run_mpi(program, n)
        for rank, got in enumerate(res.rank_results):
            assert got == [(s, rank) for s in range(n)]

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_scan(self, n):
        def program(ctx):
            got = yield from ctx.scan(ctx.rank + 1)
            return got

        res = run_mpi(program, n)
        assert res.rank_results == [r * (r + 1) // 2 + r + 1 for r in range(n)]

    @pytest.mark.parametrize("n", NPROC_SET)
    def test_barrier_synchronises(self, n):
        def program(ctx):
            yield from ctx.compute(1000.0 * ctx.rank)
            yield from ctx.barrier()
            return ctx.now

        res = run_mpi(program, n)
        slowest_compute = 1000.0 * (n - 1)
        assert all(t >= slowest_compute for t in res.rank_results)

    def test_barrier_charges_sync_not_comm(self):
        def program(ctx):
            yield from ctx.compute(1000.0 * ctx.rank)
            yield from ctx.barrier()

        res = run_mpi(program, 4)
        assert res.stats.per_cpu[0].sync_ns > 0


class TestCosts:
    def test_message_cost_scales_with_size(self):
        def program(ctx, nbytes):
            if ctx.rank == 0:
                yield from ctx.send(np.zeros(nbytes // 8), 1)
            else:
                yield from ctx.recv(0)
            return ctx.now

        small = run_mpi(program, 2, 1024).elapsed_ns
        large = run_mpi(program, 2, 1024 * 1024).elapsed_ns
        assert large > small * 5

    def test_stats_counters(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(np.zeros(128), 1)
            else:
                yield from ctx.recv(0)

        res = run_mpi(program, 2)
        assert res.stats.per_cpu[0].msgs_sent == 1
        assert res.stats.per_cpu[0].bytes_sent == 128 * 8
        assert res.stats.per_cpu[1].comm_ns > 0


class TestFusedResumes:
    """Runtime bookkeeping runs in engine timers, not rank resumes."""

    def test_waitall_over_receives_resumes_once(self):
        def program(ctx):
            engine = ctx.machine.engine
            if ctx.rank == 0:
                reqs = []
                for src in (1, 2, 3):
                    r = yield from ctx.irecv(src, tag=7)
                    reqs.append(r)
                # every message has arrived and every sender has finished
                yield from ctx.compute(1e6)
                before = engine.resumes
                got = yield from ctx.waitall(reqs)
                return got, engine.resumes - before, [r.status.source for r in reqs]
            yield from ctx.send(float(ctx.rank), 0, tag=7)
            return None

        res = run_mpi(program, 4)
        got, resumes, sources = res.rank_results[0]
        assert got == [1.0, 2.0, 3.0]
        assert sources == [1, 2, 3]
        assert resumes == 1
