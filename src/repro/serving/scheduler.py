"""Process-pool sweep scheduler: shard cells across cores, store-first.

Every simulated cell is single-threaded and independent of every other
cell — a sweep is embarrassingly parallel — so the scheduler fans the
*misses* of a sweep out over a process pool while serving the hits
straight from the :class:`~repro.serving.store.ResultStore`.  Results
come back in deterministic input order regardless of completion order,
and the simulations themselves are deterministic, so ``jobs=4`` produces
bit-identical summaries to ``jobs=1``.

Failures are captured, not fatal: a cell that raises becomes a
``CellResult`` with ``source="error"``, and a cell that exceeds the
per-cell timeout becomes ``source="timeout"`` (the worker is abandoned,
not killed — the pool drains it in the background).
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.serving.store import (
    ResultStore,
    ResultSummary,
    cache_key,
    resolve_workload,
    run_identity,
    run_signature,
    summarize_result,
    summary_from_payload,
)

__all__ = ["Cell", "CellResult", "run_cells", "run_tasks", "serve_report"]


@dataclass(frozen=True)
class Cell:
    """One sweep cell: everything :func:`repro.harness.run_app` needs.

    A cell signs itself once: its signature, key and identity are worked
    out on first use and kept in the instance ``__dict__``, outside the
    dataclass fields, so equality and ``repr`` see only the cell.  They
    cannot go stale: every field but ``derived`` is immutable, and
    ``derived`` is copied at construction, so a caller editing its dict
    afterwards changes neither the key nor the run.  A scenario given as
    a file path is the exception: the file can change between lookups,
    so such a cell reads and signs it again on every call.
    """

    app: str
    model: str
    nprocs: int
    workload: Any = None
    placement: str = "first-touch"
    faults: Any = None
    derived: Optional[Dict[str, Any]] = None
    machine_profile: Any = None

    def __post_init__(self) -> None:
        if self.derived is not None:
            object.__setattr__(self, "derived", copy.deepcopy(self.derived))

    def run_kwargs(self) -> Dict[str, Any]:
        """The ``run_app`` keyword form of this cell."""
        return {
            "app": self.app,
            "model": self.model,
            "nprocs": self.nprocs,
            "workload": self.workload,
            "placement": self.placement,
            "faults": self.faults,
            "derived": self.derived,
            "machine_profile": self.machine_profile,
        }

    def signed(self) -> Tuple[Dict[str, Any], str, str]:
        """``(signature, key, identity)`` of the cell, signed once.

        The signature is the canonical run signature (see the store) and
        is shared by every caller: treat it as read-only.
        """
        signed = self.__dict__.get("_signed")
        if signed is None:
            workload = resolve_workload(self.app, self.workload)
            sig = run_signature(
                self.app, self.model, self.nprocs, workload,
                self.placement, self.faults, self.derived,
                machine_profile=self.machine_profile,
            )
            signed = (sig, cache_key(sig), run_identity(
                self.app, self.model, self.nprocs, workload,
                self.placement, self.faults,
                machine_profile=self.machine_profile,
            ))
            if workload is self.workload:  # nothing was read from a file
                self.__dict__["_signed"] = signed
        return signed

    def signature(self) -> Dict[str, Any]:
        """The cell's full canonical run signature (see the store)."""
        return self.signed()[0]

    def key(self) -> str:
        """The cell's content-addressed store key."""
        return self.signed()[1]

    def identity(self) -> str:
        """The cell's grouping identity (content-free; for invalidation)."""
        return self.signed()[2]

    def label(self) -> str:
        """Short human label for tables and error messages."""
        if self.machine_profile is not None:
            mp = getattr(self.machine_profile, "name", self.machine_profile)
            return f"{self.app}/{self.model}/P{self.nprocs}@{mp}"
        return f"{self.app}/{self.model}/P{self.nprocs}"


@dataclass
class CellResult:
    """Outcome of one scheduled cell, in input order.

    ``source`` is ``"store"`` (served), ``"computed"`` (ran now),
    ``"error"`` (the run raised; see ``error``), or ``"timeout"``.
    ``summary`` is ``None`` exactly when the cell failed.
    """

    cell: Cell
    index: int
    source: str
    summary: Optional[ResultSummary] = None
    error: Optional[str] = None
    host_seconds: float = 0.0


def _compute_cell(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker: run one cell and return its JSON-safe summary payload."""
    from repro.harness.experiment import run_app

    return summarize_result(run_app(**kwargs))


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> List[Tuple[Any, Optional[str], float]]:
    """Run ``fn`` over ``payloads``, optionally across a process pool.

    The generic engine under :func:`run_cells`, also usable directly by
    harnesses whose unit of work is not a ``run_app`` cell.

    Args:
        fn: a module-level (picklable) callable of one argument.
        payloads: one picklable argument per task.
        jobs: worker processes; ``<= 1`` runs inline in this process.
        timeout: per-task result deadline in seconds (pool mode only).

    Returns:
        ``(result, error, host_seconds)`` per payload, in input order.
        ``error`` is ``None`` on success, a message on failure, and
        ``"timeout"``-prefixed when the deadline passed.
    """
    payloads = list(payloads)
    jobs = max(1, min(int(jobs), len(payloads) or 1))
    out: List[Tuple[Any, Optional[str], float]] = []
    if jobs == 1:
        for payload in payloads:
            t0 = time.perf_counter()
            try:
                result = fn(payload)
                out.append((result, None, time.perf_counter() - t0))
            except Exception as exc:  # noqa: BLE001 - captured per task
                out.append(
                    (None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)
                )
        return out
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except OSError:  # no process support (restricted env): degrade inline
        return run_tasks(fn, payloads, jobs=1, timeout=None)
    with pool:
        futures = [pool.submit(fn, p) for p in payloads]
        for fut in futures:
            t0 = time.perf_counter()
            try:
                result = fut.result(timeout=timeout)
                out.append((result, None, time.perf_counter() - t0))
            except FutureTimeout:
                out.append(
                    (None, f"timeout: no result within {timeout:g}s",
                     time.perf_counter() - t0)
                )
            except Exception as exc:  # noqa: BLE001 - captured per task
                out.append(
                    (None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)
                )
    return out


def run_cells(
    cells: Sequence[Cell],
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> List[CellResult]:
    """Serve a sweep: store-first lookup, then shard the misses.

    Args:
        cells: the sweep cells, in the order results should come back.
        store: result store for lookups and write-back; ``None``
            computes everything.
        jobs: process-pool width for the misses (``1`` = inline).
        timeout: per-cell deadline in seconds (only enforced when the
            pool is used; inline cells run to completion).

    Returns:
        One :class:`CellResult` per input cell, in input order —
        served summaries are bit-identical to computed ones, and the
        result order never depends on completion order.
    """
    cells = list(cells)
    results: List[Optional[CellResult]] = [None] * len(cells)
    pending: List[Tuple[int, Cell, Optional[Tuple[Dict[str, Any], str, str]]]] = []
    for i, cell in enumerate(cells):
        if store is not None:
            signed = cell.signed()
            payload = store.get(signed[1])
            if payload is not None:
                results[i] = CellResult(
                    cell=cell, index=i, source="store",
                    summary=summary_from_payload(payload),
                )
                continue
            pending.append((i, cell, signed))
        else:
            pending.append((i, cell, None))
    if not pending:  # every cell was served: there is no task to run
        return cast(List[CellResult], results)
    computed = run_tasks(
        _compute_cell, [c.run_kwargs() for _, c, _ in pending],
        jobs=jobs, timeout=timeout,
    )
    for (i, cell, signed), (payload, error, host) in zip(pending, computed):
        if error is not None:
            source = "timeout" if error.startswith("timeout") else "error"
            results[i] = CellResult(
                cell=cell, index=i, source=source, error=error, host_seconds=host
            )
            continue
        if signed is not None:
            sig, key, identity = signed
            store.put(key, sig, payload, identity=identity)
        summary = summary_from_payload(payload)
        summary.cached = False
        results[i] = CellResult(
            cell=cell, index=i, source="computed", summary=summary,
            host_seconds=host,
        )
    return [r for r in results if r is not None]


def serve_report(results: Sequence[CellResult]) -> Dict[str, Any]:
    """Aggregate counts over one :func:`run_cells` batch."""
    by_source: Dict[str, int] = {}
    for r in results:
        by_source[r.source] = by_source.get(r.source, 0) + 1
    failed = [r for r in results if r.summary is None]
    return {
        "cells": len(results),
        "served": by_source.get("store", 0),
        "computed": by_source.get("computed", 0),
        "errors": by_source.get("error", 0) + by_source.get("timeout", 0),
        "failed_cells": [r.cell.label() for r in failed],
        "host_seconds": sum(r.host_seconds for r in results),
    }
