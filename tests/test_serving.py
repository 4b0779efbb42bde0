"""Tests for the experiment-serving layer: store, scheduler, invalidation.

The contract under test everywhere: serving is *transparent*.  A served
result is bit-identical to a computed one, ``jobs=N`` is bit-identical
to ``jobs=1``, and a change to any signature field invalidates exactly
the dependent cells — nothing more, nothing less.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.adapt import AdaptConfig
from repro.apps.jacobi import JacobiConfig
from repro.harness import run_app, sweep
from repro.harness.experiment import SCRIPT_CACHE_MAX, _ScriptCache, _script_cache
from repro.serving import (
    Cell,
    ResultStore,
    cache_key,
    plan,
    refresh,
    run_cells,
    run_identity,
    run_signature,
    run_tasks,
    serve_report,
    summarize_result,
    summary_from_payload,
)

SMALL = JacobiConfig(nx=32, ny=32, iters=4)
ADAPT = AdaptConfig(mesh_n=8, phases=2, solver_iters=2)


class TestSignatures:
    def test_stable_across_calls(self):
        assert cache_key(run_signature("jacobi", "mpi", 4, SMALL)) == \
            cache_key(run_signature("jacobi", "mpi", 4, JacobiConfig(nx=32, ny=32, iters=4)))

    def test_every_field_is_load_bearing(self):
        base = cache_key(run_signature("jacobi", "mpi", 4, SMALL))
        variants = [
            run_signature("jacobi", "shmem", 4, SMALL),
            run_signature("jacobi", "mpi", 8, SMALL),
            run_signature("jacobi", "mpi", 4, JacobiConfig(nx=32, ny=32, iters=5)),
            run_signature("jacobi", "mpi", 4, SMALL, placement="round-robin"),
            run_signature("jacobi", "mpi", 4, SMALL, faults="drizzle"),
            run_signature("jacobi", "mpi", 4, SMALL, derived={"link_stats": "on"}),
        ]
        keys = {cache_key(v) for v in variants}
        assert base not in keys and len(keys) == len(variants)

    def test_scenario_signature_uses_content_hash(self):
        from repro.workloads.synth import generate_scenario

        a = generate_scenario("multi_front", seed=1, mesh_n=6, phases=2, solver_iters=2)
        b = generate_scenario("multi_front", seed=2, mesh_n=6, phases=2, solver_iters=2)
        sig = run_signature("scenario", "mpi", 4, a)
        assert sig["workload"] == {"kind": "scenario", "content_hash": a.content_hash()}
        assert cache_key(sig) != cache_key(run_signature("scenario", "mpi", 4, b))

    def test_cross_process_hash_stability(self):
        """The key is a disk-wide contract: a fresh interpreter must agree."""
        code = (
            "from repro.apps.jacobi import JacobiConfig\n"
            "from repro.serving import cache_key, run_signature\n"
            "print(cache_key(run_signature('jacobi', 'mpi', 4, "
            "JacobiConfig(nx=32, ny=32, iters=4), faults='drizzle')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={**os.environ, "PYTHONPATH": "src"},
        )
        here = cache_key(run_signature("jacobi", "mpi", 4, SMALL, faults="drizzle"))
        assert out.stdout.strip() == here

    def test_identity_ignores_content(self):
        ident = run_identity("jacobi", "mpi", 4, SMALL)
        assert ident == "jacobi/JacobiConfig/mpi/P4/first-touch/none/default"
        assert run_identity("jacobi", "mpi", 4, JacobiConfig(nx=64, ny=64, iters=9)) == ident


class TestResultStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_app("jacobi", "mpi", 2, SMALL)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        assert store.get(key) is None  # cold
        store.put(key, sig, summarize_result(result))
        summary = summary_from_payload(store.get(key))
        assert summary.cached
        assert summary.elapsed_ns == result.elapsed_ns
        assert list(summary.rank_results) == list(result.rank_results)
        assert summary.stats.total("msgs_sent") == result.stats.total("msgs_sent")
        assert summary.stats.breakdown_totals() == result.stats.breakdown_totals()
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_corrupt_object_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        store.put(key, sig, {"model": "mpi"})
        store.path_for(key).write_text("{not json")
        assert store.get(key) is None
        assert store.read_errors == 1

    def test_verify_flags_drifted_content(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        store.put(key, sig, {"model": "mpi"})
        assert store.verify() == []
        record = json.loads(store.path_for(key).read_text())
        record["signature"]["nprocs"] = 64  # content no longer hashes to the key
        store.path_for(key).write_text(json.dumps(record))
        assert len(store.verify()) == 1

    def test_gc_outdated_and_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        store.put(cache_key(sig), sig, {"model": "mpi"})
        old = dict(sig, engine="0.0.1")
        store.put(cache_key(old), old, {"model": "mpi"})
        assert store.gc(outdated=True) == 1
        assert store.gc(everything=True) == 1
        assert store.stats()["entries"] == 0

    def test_unserialisable_payload_is_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        assert store.put(cache_key(sig), sig, {"bad": object()}) is None
        assert store.stats()["entries"] == 0


class TestRunAppStore:
    def test_warm_run_is_served_and_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_app("jacobi", "mpi", 2, SMALL, store=store)
        warm = run_app("jacobi", "mpi", 2, SMALL, store=store)
        assert warm.cached and not getattr(cold, "cached", False)
        assert warm.elapsed_ns == cold.elapsed_ns
        assert list(warm.rank_results) == list(cold.rank_results)
        assert store.hit_rate == 0.5

    def test_traced_runs_bypass_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        run_app("jacobi", "mpi", 2, SMALL, store=store)
        traced = run_app("jacobi", "mpi", 2, SMALL, store=store, trace=True)
        assert traced.events  # a served summary could never carry events
        assert store.hits == 0


class TestScheduler:
    def test_jobs_do_not_change_results(self):
        cells = [Cell("jacobi", m, p, SMALL)
                 for m in ("mpi", "shmem") for p in (1, 2)]
        serial = run_cells(cells, jobs=1)
        sharded = run_cells(cells, jobs=4)
        assert [r.summary.elapsed_ns for r in serial] == \
            [r.summary.elapsed_ns for r in sharded]
        assert [r.summary.rank_results for r in serial] == \
            [r.summary.rank_results for r in sharded]
        assert all(r.source == "computed" for r in sharded)

    def test_results_in_input_order(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [Cell("jacobi", "mpi", p, SMALL) for p in (4, 1, 2)]
        results = run_cells(cells, store=store, jobs=2)
        assert [r.cell.nprocs for r in results] == [4, 1, 2]
        again = run_cells(cells, store=store)
        assert all(r.source == "store" for r in again)
        assert [r.summary.elapsed_ns for r in again] == \
            [r.summary.elapsed_ns for r in results]

    def test_errors_are_captured_not_fatal(self):
        cells = [Cell("jacobi", "mpi", 2, SMALL), Cell("nosuchapp", "mpi", 2)]
        good, bad = run_cells(cells)
        assert good.summary is not None
        assert bad.source == "error" and bad.summary is None
        assert "unknown app" in bad.error
        report = serve_report([good, bad])
        assert report["errors"] == 1 and report["failed_cells"] == ["nosuchapp/mpi/P2"]

    def test_run_tasks_timeout_is_captured(self):
        # two payloads: a single payload clamps jobs to 1 and runs inline,
        # where the deadline is deliberately not enforced
        results = run_tasks(_slow_task, [0.0, 0.0], jobs=2, timeout=0.1)
        assert all(value is None for value, _, _ in results)
        assert all(error.startswith("timeout") for _, error, _ in results)


def _slow_task(_payload):
    import time

    time.sleep(2.0)


class TestInvalidation:
    def test_knob_change_invalidates_only_dependent_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [Cell("jacobi", m, 2, SMALL) for m in ("mpi", "shmem", "sas")]
        _, report = refresh(cells, store)
        assert (report["hits"], report["misses"]) == (0, 3)
        changed = [Cell("jacobi", "mpi", 2, JacobiConfig(nx=32, ny=32, iters=5))] + cells[1:]
        ahead = plan(changed, store)
        assert [e.cell.model for e in ahead.misses] == ["mpi"]
        _, report = refresh(changed, store, gc_stale=True)
        assert (report["hits"], report["misses"]) == (2, 1)
        assert report["invalidated"] == 1 and report["stale_removed"] == 1
        assert report["stale_identities"] == [
            "jacobi/JacobiConfig/mpi/P2/first-touch/none/default"
        ]

    def test_noop_refresh_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [Cell("jacobi", "mpi", p, SMALL) for p in (1, 2)]
        refresh(cells, store)
        _, report = refresh(cells, store)
        assert (report["hits"], report["misses"], report["invalidated"]) == (2, 0, 0)


class TestSweepServing:
    def test_sweep_jobs_rows_identical(self):
        rows1 = sweep("jacobi", models=("mpi", "shmem"), nprocs_list=(1, 2),
                      workload=SMALL)
        rows2 = sweep("jacobi", models=("mpi", "shmem"), nprocs_list=(1, 2),
                      workload=SMALL, jobs=2)
        assert [(r.model, r.nprocs, r.elapsed_ms, r.speedup) for r in rows1] == \
            [(r.model, r.nprocs, r.elapsed_ms, r.speedup) for r in rows2]

    def test_sweep_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = sweep("jacobi", models=("mpi",), nprocs_list=(1, 2),
                     workload=SMALL, store=store)
        warm = sweep("jacobi", models=("mpi",), nprocs_list=(1, 2),
                     workload=SMALL, store=store)
        assert store.hits == 2
        assert [r.elapsed_ms for r in cold] == [r.elapsed_ms for r in warm]

    def test_failed_cell_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="sweep cell"):
            sweep("jacobi", models=("nosuchmodel",), nprocs_list=(1,),
                  workload=SMALL, store=ResultStore(tmp_path))

    def test_scenario_bench_warm_pass_is_byte_identical(self, tmp_path):
        from repro.harness.scenariobench import run_scenario_bench

        kwargs = dict(
            classes=("multi_front",), models=("mpi", "shmem"),
            nprocs_list=(2,), intensities=(0.2,), mesh_n=6, phases=2,
            solver_iters=2, include_insights=False,
        )
        store = ResultStore(tmp_path)
        cold = run_scenario_bench(store=store, **kwargs)
        cold_lookups = store.lookups
        assert store.hits == 0
        warm = run_scenario_bench(store=store, **kwargs)
        warm_lookups = store.lookups - cold_lookups
        assert warm_lookups > 0 and store.hits == warm_lookups  # 100% served
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)

    def test_fault_bench_verify_runs_bypass_store(self, tmp_path):
        from repro.harness.faultbench import run_fault_bench

        store = ResultStore(tmp_path)
        record = run_fault_bench(
            "jacobi", models=("mpi",), nprocs_list=(2,), profile="drizzle",
            workload=SMALL, store=store, verify=True,
        )
        # 2 measurement cells stored; verify re-simulated outside the store
        assert store.puts == 2
        warm = run_fault_bench(
            "jacobi", models=("mpi",), nprocs_list=(2,), profile="drizzle",
            workload=SMALL, store=store, verify=True,
        )
        assert store.hits == 2
        assert warm["rows"] == record["rows"]


class TestScriptCacheLRU:
    def test_bounded_with_eviction_counter(self):
        from repro.sim.profile import PROFILER

        ticks_before = PROFILER.calls("script-cache-evict")
        cache = _ScriptCache(maxsize=3)
        for i in range(5):
            cache[f"k{i}"] = i
        assert len(cache) == 3 and cache.evictions == 2
        assert list(cache) == ["k2", "k3", "k4"]  # oldest two evicted
        assert PROFILER.calls("script-cache-evict") == ticks_before + 2

    def test_reads_refresh_recency(self):
        cache = _ScriptCache(maxsize=3)
        for i in range(3):
            cache[f"k{i}"] = i
        assert cache.get("k0") == 0  # touch the oldest entry …
        cache["k3"] = 3              # … so the eviction takes k1 instead
        assert "k0" in cache and "k1" not in cache

    def test_global_cache_is_bounded(self):
        assert isinstance(_script_cache, _ScriptCache)
        assert _script_cache.maxsize == SCRIPT_CACHE_MAX
        _script_cache.clear()
        run_app("adapt", "mpi", 2, ADAPT)
        run_app("adapt", "mpi", 2, ADAPT, placement="round-robin")
        assert len(_script_cache) == 2  # distinct signatures, distinct keys
        _script_cache.clear()
