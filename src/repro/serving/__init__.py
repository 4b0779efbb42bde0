"""Experiment-serving layer: cache, shard, and incrementally maintain sweeps.

The paper's contribution is a comparison — every figure is a sweep over
model × P × workload — and every simulated cell is deterministic and
single-threaded.  ``repro.serving`` turns those two facts into a serving
layer with three parts:

* :mod:`repro.serving.store` — a content-addressed on-disk result store
  keyed by the sha256 of each run's canonical signature (workload
  content hash, model, P, placement, faults, derived switches, engine
  version), with atomic writes, an identity → keys index, and a
  ``repro cache stats|gc|verify`` CLI;
* :mod:`repro.serving.scheduler` — a process-pool sweep scheduler that
  serves hits from the store and shards the misses across cores, with
  deterministic result ordering and per-cell error/timeout capture;
* :mod:`repro.serving.invalidate` — incremental sweep maintenance:
  diff a sweep spec against the store, recompute only the invalidated
  cells, and report hit / miss / invalidated counts.

Entry points: ``run_app(..., store=...)`` and ``sweep(..., jobs=...,
store=...)`` in :mod:`repro.harness.experiment`, the ``--jobs`` /
``--no-cache`` / ``--cache-dir`` flags on the sweep-shaped benches, and
``python -m repro serve SPEC.json`` for batch requests.  See
``docs/serving.md``.
"""

from repro.serving.invalidate import Plan, PlanEntry, find_stale, plan, refresh
from repro.serving.scheduler import Cell, CellResult, run_cells, run_tasks, serve_report
from repro.serving.store import (
    STORE_SCHEMA,
    ResultStore,
    ResultSummary,
    SummaryStats,
    cache_key,
    canonical_json,
    default_cache_dir,
    run_identity,
    run_signature,
    summarize_result,
    summary_from_payload,
)

__all__ = [
    "STORE_SCHEMA",
    "Cell",
    "CellResult",
    "Plan",
    "PlanEntry",
    "ResultStore",
    "ResultSummary",
    "SummaryStats",
    "cache_key",
    "canonical_json",
    "default_cache_dir",
    "find_stale",
    "plan",
    "refresh",
    "run_cells",
    "run_identity",
    "run_signature",
    "run_tasks",
    "serve_report",
    "summarize_result",
    "summary_from_payload",
]
