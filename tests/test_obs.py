"""Tests for the repro.obs subsystem: event schema, exporters, analysis
passes, and the trace-based synchronization checker."""

import json

import numpy as np
import pytest

from repro.harness import run_app
from repro.models.registry import run_program
from repro.obs import (
    Event,
    check_sync,
    comm_matrix,
    format_matrix,
    format_violations,
    from_jsonl,
    phase_breakdown,
    sas_home_matrix,
    size_histogram,
    summarize,
    to_jsonl,
    to_perfetto,
)


def _adapt_workload():
    from repro.apps.adapt import AdaptConfig

    return AdaptConfig(mesh_n=6, phases=2, solver_iters=3)


# ---------------------------------------------------------------------------
# JSONL round trip
# ---------------------------------------------------------------------------


class TestJsonlRoundTrip:
    def test_synthetic_events_identical(self, tmp_path):
        events = [
            Event(0.0, "msg_send", 0, 1, 128, 50.0, {"tag": 7, "eager": True}),
            Event(10.5, "put", 1, 2, 64, 0.0, {"sym": "x", "lo": 0, "hi": 8}),
            Event(20.0, "barrier", 0, -1, 0, 300.0, {"gen": 3, "name": "all"}),
            Event(25.0, "phase", 2, -1, 0, 1000.0, {"name": "solve"}),
            Event(30.0, "coherence", 3, -1, 256, 40.0,
                  {"write": False, "homes": {"0": 1, "1": 1}}),
        ]
        path = tmp_path / "trace.jsonl"
        to_jsonl(events, str(path))
        loaded = from_jsonl(str(path))
        assert loaded == events

    def test_traced_run_round_trips(self, tmp_path):
        result = run_app("adapt", "mpi", 4, _adapt_workload(), trace=True)
        events = result.events
        assert events, "traced run produced no events"
        path = tmp_path / "run.jsonl"
        to_jsonl(events, str(path))
        assert from_jsonl(str(path)) == events


# ---------------------------------------------------------------------------
# Comm-matrix conservation invariants at P = 4
# ---------------------------------------------------------------------------


def _mpi_ring(ctx):
    data = np.full(100, float(ctx.rank))
    got = yield from ctx.sendrecv(
        data, (ctx.rank + 1) % ctx.nprocs, (ctx.rank - 1) % ctx.nprocs,
        sendtag=0, recvtag=0,
    )
    return float(got[0])


def _shmem_neighbors(ctx):
    sym = ctx.salloc("buf", (64,))
    nxt = (ctx.rank + 1) % ctx.nprocs
    yield from ctx.put(sym, nxt, np.full(32, float(ctx.rank)), offset=0)
    yield from ctx.put(sym, nxt, np.full(16, float(ctx.rank)), offset=32)
    yield from ctx.barrier_all()
    vals = yield from ctx.get(sym, ctx.rank)
    return float(vals.sum())


def _sas_stencil(ctx):
    from repro.models.sas.parallel import block_partition

    n = 256
    x = ctx.shalloc("x", (n,), np.float64)
    lo, hi = block_partition(n, ctx.nprocs, ctx.rank)
    yield from ctx.swrite(x, np.arange(hi - lo, dtype=float), lo=lo)
    yield from ctx.barrier()
    vals = yield from ctx.sread(x)
    total = yield from ctx.reduce_all(float(vals.sum()))
    return total


class TestConservation:
    def test_mpi_every_send_is_received(self):
        result = run_program("mpi", _mpi_ring, 4, trace=True)
        sends = np.zeros((4, 4), dtype=np.int64)
        recvs = np.zeros((4, 4), dtype=np.int64)
        for ev in result.events:
            if ev.kind == "msg_send":
                sends[ev.src, ev.dst] += ev.nbytes
            elif ev.kind == "msg_recv":
                recvs[ev.src, ev.dst] += ev.nbytes
        assert sends.sum() > 0
        np.testing.assert_array_equal(sends, recvs)

    def test_shmem_every_put_completes(self):
        result = run_program("shmem", _shmem_neighbors, 4, trace=True)
        issued = np.zeros((4, 4), dtype=np.int64)
        done = np.zeros((4, 4), dtype=np.int64)
        for ev in result.events:
            if ev.kind == "put":
                issued[ev.src, ev.dst] += ev.nbytes
            elif ev.kind == "put_done":
                done[ev.src, ev.dst] += ev.nbytes
        assert issued.sum() == 4 * (32 + 16) * 8
        np.testing.assert_array_equal(issued, done)

    def test_shmem_matrix_matches_put_stats(self):
        result = run_program("shmem", _shmem_neighbors, 4, trace=True)
        m = comm_matrix(
            [ev for ev in result.events if ev.kind == "put"], 4, units="bytes"
        )
        put_bytes = sum(c.put_bytes for c in result.stats.per_cpu)
        assert int(m.sum()) == put_bytes

    def test_sas_coherence_counts_match_stats(self):
        result = run_program("sas", _sas_stencil, 4, trace=True)
        for attr_key, stat_key in (
            ("hit", "l2_hits"),
            ("local", "local_misses"),
            ("remote", "remote_misses"),
            ("dirty", "dirty_misses"),
        ):
            from_events = sum(
                ev.attrs.get(attr_key, 0)
                for ev in result.events
                if ev.kind == "coherence"
            )
            from_stats = sum(getattr(c, stat_key) for c in result.stats.per_cpu)
            assert from_events == from_stats, attr_key

    def test_sas_home_matrix_accounts_all_fetched_bytes(self):
        result = run_program("sas", _sas_stencil, 4, trace=True)
        from repro.machine import MachineConfig

        cfg = MachineConfig(nprocs=4)
        m = sas_home_matrix(result.events, 4, cfg.nnodes, cfg.line_bytes)
        fetched = sum(
            ev.nbytes for ev in result.events if ev.kind == "coherence"
        )
        assert int(m.sum()) == fetched > 0

    def test_comm_matrix_units_messages(self):
        result = run_program("mpi", _mpi_ring, 4, trace=True)
        m = comm_matrix(result.events, 4, units="messages")
        assert m.dtype == np.int64
        assert int(m.sum()) >= 4  # at least the ring messages

    def test_comm_matrix_rejects_bad_units(self):
        with pytest.raises(ValueError):
            comm_matrix([], 2, units="frobs")


# ---------------------------------------------------------------------------
# Perfetto export
# ---------------------------------------------------------------------------


class TestPerfettoExport:
    def test_schema(self, tmp_path):
        result = run_app("adapt", "shmem", 4, _adapt_workload(), trace=True)
        doc = to_perfetto(result.events, 4)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ns"
        entries = doc["traceEvents"]
        assert entries
        phases_seen = set()
        for e in entries:
            assert e["ph"] in ("X", "i", "M")
            phases_seen.add(e["ph"])
            assert isinstance(e["pid"], int)
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0
                assert isinstance(e["tid"], int)
            elif e["ph"] == "i":
                assert e["s"] == "t"
            else:  # metadata
                assert e["name"] in ("process_name", "thread_name")
        assert "X" in phases_seen and "M" in phases_seen
        # must serialize as plain JSON
        blob = json.dumps(doc)
        assert json.loads(blob)["displayTimeUnit"] == "ns"

    def test_rank_lanes_and_interconnect_pid(self):
        result = run_app("adapt", "mpi", 4, _adapt_workload(), trace=True)
        doc = to_perfetto(result.events, 4)
        data = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        rank_lanes = {e["tid"] for e in data if e["pid"] == 0}
        assert rank_lanes <= set(range(4)) and len(rank_lanes) == 4
        assert any(e["pid"] == 1 for e in data), "no interconnect events"


# ---------------------------------------------------------------------------
# Analysis passes on real traces
# ---------------------------------------------------------------------------


class TestAnalysis:
    def test_phase_breakdown_covers_adapt_phases(self):
        result = run_app("adapt", "sas", 4, _adapt_workload(), trace=True)
        breakdown = phase_breakdown(result.events)
        assert {"solve", "adapt"} <= set(breakdown)
        for row in breakdown.values():
            assert row["events"] >= 1

    def test_size_histogram_buckets_are_pow2(self):
        result = run_app("adapt", "mpi", 4, _adapt_workload(), trace=True)
        hist = size_histogram(result.events)
        assert "msg_send" in hist
        for buckets in hist.values():
            for b in buckets:
                assert b == 0 or (b & (b - 1)) == 0

    def test_summarize_and_format(self):
        result = run_app("adapt", "mpi", 2, _adapt_workload(), trace=True)
        summary = summarize(result.events)
        assert summary["msg_send"]["count"] > 0
        text = format_matrix(comm_matrix(result.events, 2))
        assert "rank\\rank" in text


# ---------------------------------------------------------------------------
# Sync checker
# ---------------------------------------------------------------------------


def _shmem_racy(ctx):
    """Rank 0 puts into rank 1's copy, then reads it back with no fence."""
    sym = ctx.salloc("flag", (8,))
    yield from ctx.barrier_all()
    if ctx.rank == 0:
        yield from ctx.put(sym, 1, np.ones(4), offset=0)
        vals = yield from ctx.get(sym, 1, offset=0, count=4)  # racy read-back
        return float(vals.sum())
    yield from ctx.compute(100.0)
    return 0.0


def _shmem_fenced(ctx):
    """Same traffic, but the writer fences before the read."""
    sym = ctx.salloc("flag", (8,))
    yield from ctx.barrier_all()
    if ctx.rank == 0:
        yield from ctx.put(sym, 1, np.ones(4), offset=0)
        yield from ctx.quiet()
        vals = yield from ctx.get(sym, 1, offset=0, count=4)
        return float(vals.sum())
    yield from ctx.compute(100.0)
    return 0.0


def _sas_racy(ctx):
    """Rank 0 writes x in phase 'produce'; rank 1 reads it in phase
    'consume' with no intervening barrier."""
    x = ctx.shalloc("x", (64,), np.float64)
    ctx.phase_begin("produce")
    yield from ctx.compute(100.0)
    if ctx.rank == 0:
        yield from ctx.swrite(x, np.ones(64), lo=0)
    else:
        yield from ctx.compute(50_000.0)
    yield from ctx.compute(100.0)
    ctx.phase_end()
    ctx.phase_begin("consume")
    if ctx.rank == 1:
        vals = yield from ctx.sread(x)  # no barrier since the write
        yield from ctx.compute(10.0)
        result = float(vals.sum())
    else:
        yield from ctx.compute(10.0)
        result = 0.0
    ctx.phase_end()
    return result


def _sas_synced(ctx):
    """Same access pattern with a barrier edge between the phases."""
    x = ctx.shalloc("x", (64,), np.float64)
    ctx.phase_begin("produce")
    yield from ctx.compute(100.0)
    if ctx.rank == 0:
        yield from ctx.swrite(x, np.ones(64), lo=0)
    else:
        yield from ctx.compute(50_000.0)
    yield from ctx.compute(100.0)
    ctx.phase_end()
    yield from ctx.barrier()
    ctx.phase_begin("consume")
    if ctx.rank == 1:
        vals = yield from ctx.sread(x)
        yield from ctx.compute(10.0)
        result = float(vals.sum())
    else:
        yield from ctx.compute(10.0)
        result = 0.0
    ctx.phase_end()
    return result


class TestSyncChecker:
    def test_unfenced_shmem_put_is_flagged(self):
        result = run_program("shmem", _shmem_racy, 2, trace=True)
        violations = check_sync(result.events, 2)
        assert violations, "seeded SHMEM race was not flagged"
        assert all(v.rule == "shmem_unfenced_put" for v in violations)
        assert violations[0].writer == 0
        assert "no fence" in str(violations[0])

    def test_fenced_shmem_put_is_clean(self):
        result = run_program("shmem", _shmem_fenced, 2, trace=True)
        assert check_sync(result.events, 2) == []

    def test_sas_cross_phase_race_is_flagged(self):
        result = run_program("sas", _sas_racy, 2, trace=True)
        violations = check_sync(result.events, 2)
        assert violations, "seeded SAS cross-phase race was not flagged"
        assert all(v.rule == "sas_unsynced_access" for v in violations)
        assert violations[0].writer == 0 and violations[0].reader == 1

    def test_sas_barrier_edge_is_clean(self):
        result = run_program("sas", _sas_synced, 2, trace=True)
        assert check_sync(result.events, 2) == []

    @pytest.mark.parametrize("model", ["mpi", "shmem", "sas"])
    def test_shipped_adapt_is_clean(self, model):
        result = run_app("adapt", model, 4, _adapt_workload(), trace=True)
        violations = check_sync(result.events, 4)
        assert violations == [], format_violations(violations)

    @pytest.mark.parametrize("model", ["mpi", "shmem", "sas"])
    def test_shipped_nbody_is_clean(self, model):
        from repro.apps.nbody import NBodyConfig

        result = run_app("nbody", model, 4, NBodyConfig(n=64, steps=2), trace=True)
        violations = check_sync(result.events, 4)
        assert violations == [], format_violations(violations)

    def test_format_violations_ok_string(self):
        assert "OK" in format_violations([])


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_trace_and_check_sync(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.json"
        rc = main(["run", "--app", "adapt", "--model", "mpi", "-p", "2",
                   "-s", "small", "--trace", str(out), "--check-sync"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "trace" in captured and "OK" in captured
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ns"

    def test_run_comm_matrix_view(self, capsys):
        from repro.__main__ import main

        for model in ("mpi", "shmem", "sas"):
            rc = main(["run", "adapt", model, "-p", "4", "-s", "small", "--comm-matrix"])
            assert rc == 0
        captured = capsys.readouterr().out
        for model in ("mpi", "shmem", "sas"):
            assert f"under {model}" in captured
        assert "rank\\rank" in captured and "rank\\home" in captured

    def test_run_summary_phases_and_jsonl_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.jsonl"
        rc = main(["run", "adapt", "sas", "-p", "2", "-s", "small",
                   "--summary", "--phases", "--trace", str(out)])
        assert rc == 0
        events = from_jsonl(str(out))
        assert events and all(isinstance(ev, Event) for ev in events)

    def test_comm_matrix_view_reads_the_profile_node_count(self, capsys):
        from repro.__main__ import main

        # fat-tree-cluster nodes hold 8 CPUs: P=16 has 2 home nodes, not 8
        rc = main(["run", "adapt", "sas", "-p", "16", "-s", "small",
                   "--machine-profile", "fat-tree-cluster", "--comm-matrix"])
        assert rc == 0
        header = next(line for line in capsys.readouterr().out.splitlines()
                      if line.strip().startswith("rank\\home"))
        assert header.split()[1:] == ["0", "1"]

    def test_run_positional_still_works(self, capsys):
        from repro.__main__ import main

        rc = main(["run", "jacobi", "shmem", "-n", "2", "-s", "small"])
        assert rc == 0
        assert "jacobi under shmem" in capsys.readouterr().out
