"""Incremental sweep maintenance: recompute only what a change touched.

A sweep spec is a list of :class:`~repro.serving.scheduler.Cell`
objects; the store is content-addressed on each cell's full run
signature.  That makes invalidation purely structural — there is no
dirty bit to maintain:

* a cell whose signature is unchanged hashes to a key the store already
  holds → **hit**, served;
* a cell whose signature changed (a workload knob, the placement, a
  fault profile field, the engine version) hashes to a *new* key →
  **miss**, recomputed — and the store's old entry for the *same cell
  identity* is recognisably **stale**;
* cells whose signature fields were not touched by the change keep
  their keys → still hits.

This is the lazy end of the eager/lazy/hybrid view-maintenance spectrum:
nothing is recomputed until a sweep asks, and then exactly the
invalidated subset runs (sharded across cores by the scheduler).
:func:`refresh` is the one-call form — plan, recompute, report — used by
``python -m repro serve`` and the warm-cache CI job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serving.scheduler import Cell, CellResult, run_cells, serve_report
from repro.serving.store import ResultStore

__all__ = ["PlanEntry", "Plan", "plan", "find_stale", "refresh"]


@dataclass(frozen=True)
class PlanEntry:
    """One cell's serving disposition before anything runs."""

    cell: Cell
    key: str
    identity: str
    cached: bool


@dataclass
class Plan:
    """The store-vs-sweep diff: what will be served and what must run."""

    entries: List[PlanEntry]

    @property
    def hits(self) -> List[PlanEntry]:
        return [e for e in self.entries if e.cached]

    @property
    def misses(self) -> List[PlanEntry]:
        return [e for e in self.entries if not e.cached]

    def counts(self) -> Dict[str, int]:
        return {
            "cells": len(self.entries),
            "hits": len(self.hits),
            "misses": len(self.misses),
        }


def plan(cells: Sequence[Cell], store: ResultStore) -> Plan:
    """Diff a sweep spec against the store without running anything.

    Uses presence checks only, so planning never perturbs the store's
    session hit/miss counters.
    """
    entries = []
    for cell in cells:
        _, key, identity = cell.signed()
        entries.append(PlanEntry(cell, key, identity, store.contains(key)))
    return Plan(entries=entries)


def find_stale(
    cells: Sequence[Cell], store: ResultStore
) -> Dict[str, List[str]]:
    """Stale store keys per cell identity.

    A stored entry is *stale* with respect to a sweep when it carries
    the same identity as one of the sweep's cells (same app, workload
    name, model, P, placement, fault profile) but a different key —
    i.e. it was computed from content the sweep no longer uses, such as
    an old knob setting or an older engine version.

    The store's identity index names the keys filed under each identity
    the sweep touches, so the cost follows the sweep, not the store:
    only a candidate stale key's object is read, to confirm that it
    still exists and carries the identity.

    Returns:
        ``{identity: [stale keys]}`` for the identities the sweep
        touches, each list sorted; empty when the store holds nothing
        stale.
    """
    wanted: Dict[str, set] = {}
    for cell in cells:
        _, key, identity = cell.signed()
        wanted.setdefault(identity, set()).add(key)
    stale: Dict[str, List[str]] = {}
    for identity, keys in wanted.items():
        for key in store.keys_of(identity):
            if key in keys:
                continue
            record = store.record(key)
            if record is not None and record.get("identity") == identity:
                stale.setdefault(identity, []).append(key)
    return stale


def refresh(
    cells: Sequence[Cell],
    store: ResultStore,
    jobs: int = 1,
    timeout: Optional[float] = None,
    gc_stale: bool = False,
) -> Tuple[List[CellResult], Dict[str, Any]]:
    """Incrementally maintain a sweep: serve hits, recompute the rest.

    Args:
        cells: the sweep spec, in result order.
        store: the result store to serve from and write back to.
        jobs: process-pool width for the recomputed cells.
        timeout: per-cell deadline in seconds (pool mode).
        gc_stale: also delete store entries invalidated by this sweep
            (same identity, superseded content).

    Returns:
        ``(results, report)`` — the per-cell results in input order and
        a report dict with ``hits`` / ``misses`` / ``invalidated`` /
        ``stale_removed`` / ``errors`` counts.
    """
    cells = list(cells)
    stale = find_stale(cells, store)
    results = run_cells(cells, store=store, jobs=jobs, timeout=timeout)
    report = serve_report(results)
    report["hits"] = report.pop("served")
    report["misses"] = report["computed"] + report["errors"]
    report["invalidated"] = sum(len(keys) for keys in stale.values())
    report["stale_identities"] = sorted(stale)
    removed = 0
    if gc_stale:
        for keys in stale.values():
            for key in keys:
                if store.delete(key):
                    removed += 1
    report["stale_removed"] = removed
    return results, report
