"""Trace-based synchronization checker.

Two rules, both derived from the happens-before structure the traces make
explicit (run via ``python -m repro run ... --check-sync``):

**SHMEM unfenced put** — a ``put`` is asynchronous: it is only guaranteed
visible to a remote ``get`` after the *writer* has executed ``quiet`` /
``fence`` or entered a barrier.  For every ``get`` that reads a symmetric
range another rank previously ``put`` into the same target copy, the
writer must have a ``fence`` or ``barrier`` event strictly after the put
issue and no later than the get.

**CC-SAS cross-phase write→read** — within one adaptation phase the apps
own disjoint index ranges, but data read in a *different* phase than it was
written must be separated by a barrier edge: the reader's latest barrier
generation at the read must be ≥ the writer's earliest barrier generation
after the write (generations are nondecreasing per rank, so this is a
standard epoch argument).  Accesses covered by a common lock are exempt,
as are same-phase or same-rank pairs.

Both rules are conservative in the safe direction for the shipped apps
(zero violations) while catching the seeded races in the negative tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.analysis import _interval_index, phase_intervals
from repro.obs.events import Event

__all__ = ["Violation", "check_sync", "format_violations"]


@dataclass
class Violation:
    """One flagged racy pair: a write observed without a sync edge."""

    rule: str  # "shmem_unfenced_put" | "sas_unsynced_access"
    writer: int
    reader: int
    t_write: float
    t_read: float
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.rule}] rank {self.writer} wrote at t={self.t_write:.0f} ns, "
            f"rank {self.reader} read at t={self.t_read:.0f} ns without a sync "
            f"edge: {self.detail}"
        )


def _ranges_overlap(lo1: float, hi1: float, lo2: float, hi2: float) -> bool:
    return lo1 < hi2 and lo2 < hi1


def _time_eps(t: float) -> float:
    """Float-comparison slack for simulated timestamps (fractions of 1 ns)."""
    return 1e-9 * (1.0 + abs(t))


def _sync_times_by_rank(events: Sequence[Event]) -> Dict[int, List[float]]:
    """Per-rank sorted *completion* times of fence/quiet/barrier events."""
    out: Dict[int, List[float]] = {}
    for ev in events:
        if ev.kind in ("fence", "barrier"):
            out.setdefault(ev.src, []).append(ev.t + ev.dur)
    for times in out.values():
        times.sort()
    return out


def _check_shmem(events: Sequence[Event]) -> List[Violation]:
    puts = [
        ev for ev in events
        if ev.kind == "put" and ev.attrs is not None and ev.src != ev.dst
    ]
    gets = [
        ev for ev in events
        if ev.kind == "get" and ev.attrs is not None and ev.src != ev.dst
    ]
    if not puts or not gets:
        return []
    sync = _sync_times_by_rank(events)
    violations: List[Violation] = []
    for g in gets:
        owner = g.src  # rank whose copy was read
        reader = g.dst
        g_attrs = g.attrs or {}
        for p in puts:
            if p.dst != owner or p.t > g.t:
                continue
            p_attrs = p.attrs or {}
            if p_attrs.get("sym") != g_attrs.get("sym"):
                continue
            if not _ranges_overlap(
                float(p_attrs.get("lo", 0)), float(p_attrs.get("hi", 0)),
                float(g_attrs.get("lo", 0)), float(g_attrs.get("hi", 0)),
            ):
                continue
            times = sync.get(p.src, [])
            # any writer-side fence/barrier in (p.t, g.t] ?
            i = bisect_right(times, p.t)
            if i < len(times) and times[i] <= g.t:
                continue
            violations.append(
                Violation(
                    rule="shmem_unfenced_put",
                    writer=p.src,
                    reader=reader,
                    t_write=p.t,
                    t_read=g.t,
                    detail=(
                        f"put to rank {owner} {p_attrs.get('sym')}"
                        f"[{p_attrs.get('lo')}:{p_attrs.get('hi')}] read by get "
                        f"with no fence/quiet/barrier on rank {p.src} in between"
                    ),
                )
            )
    return violations


def _barrier_gens_by_rank(
    events: Sequence[Event],
) -> Dict[Tuple[int, str], Tuple[List[float], List[int]]]:
    """Per (rank, barrier-name) parallel (sorted times, generations).

    Keyed by name because global and group barriers count generations
    independently — an edge only exists through one *named* barrier both
    ranks participate in.
    """
    raw: Dict[Tuple[int, str], List[Tuple[float, int]]] = {}
    for ev in events:
        if ev.kind == "barrier" and ev.attrs is not None and "gen" in ev.attrs:
            name = str(ev.attrs.get("name"))
            # completion time: a rank is past the barrier once it fires
            raw.setdefault((ev.src, name), []).append(
                (ev.t + ev.dur, int(ev.attrs["gen"]))
            )
    out: Dict[Tuple[int, str], Tuple[List[float], List[int]]] = {}
    for key, pairs in raw.items():
        pairs.sort()
        out[key] = ([t for t, _ in pairs], [g for _, g in pairs])
    return out


def _lock_intervals_by_rank(
    events: Sequence[Event],
) -> Dict[int, List[Tuple[float, float, str]]]:
    """Per-rank lock-held intervals ``(t_acquire, t_release, name)``."""
    held: Dict[Tuple[int, str], float] = {}
    out: Dict[int, List[Tuple[float, float, str]]] = {}
    for ev in events:
        if ev.kind != "lock" or ev.attrs is None:
            continue
        name = str(ev.attrs.get("name"))
        op = ev.attrs.get("op")
        if op == "acquire":
            held[(ev.src, name)] = ev.t
        elif op == "release":
            t0 = held.pop((ev.src, name), None)
            if t0 is not None:
                out.setdefault(ev.src, []).append((t0, ev.t + ev.dur, name))
    return out


def _locks_covering(
    intervals: Optional[List[Tuple[float, float, str]]], t: float
) -> set:
    if not intervals:
        return set()
    return {name for (t0, t1, name) in intervals if t0 <= t <= t1}


def _check_sas(events: Sequence[Event]) -> List[Violation]:
    writes: List[Event] = []
    reads: List[Event] = []
    for ev in events:
        if ev.kind != "coherence" or ev.attrs is None:
            continue
        if "lo" not in ev.attrs or "hi" not in ev.attrs:
            continue
        (writes if ev.attrs.get("write") else reads).append(ev)
    if not writes or not reads:
        return []
    phases = phase_intervals(events)
    gens = _barrier_gens_by_rank(events)
    barrier_names = {name for (_, name) in gens}
    locks = _lock_intervals_by_rank(events)
    violations: List[Violation] = []
    for w in writes:
        w_attrs = w.attrs or {}
        w_phases = phases.get(w.src, [])
        w_phase = _interval_index(w_phases, w.t) if w_phases else None
        w_locks = _locks_covering(locks.get(w.src), w.t)
        for r in reads:
            if r.src == w.src or r.t <= w.t:
                continue
            r_attrs = r.attrs or {}
            if r_attrs.get("label") != w_attrs.get("label"):
                continue
            if not _ranges_overlap(
                float(w_attrs.get("lo", 0)), float(w_attrs.get("hi", 0)),
                float(r_attrs.get("lo", 0)), float(r_attrs.get("hi", 0)),
            ):
                continue
            r_phases = phases.get(r.src, [])
            r_phase = _interval_index(r_phases, r.t) if r_phases else None
            if w_phase is None and r_phase is None:
                continue  # no phase structure at all (e.g. jacobi)
            if w_phase is not None and r_phase is not None and w_phase == r_phase:
                continue  # same-phase accesses: disjoint ownership by contract
            if w_locks & _locks_covering(locks.get(r.src), r.t):
                continue  # both under a common lock
            # barrier edge: for some barrier both ranks use, the writer's
            # first generation after the write must be <= the reader's last
            # generation at the read (generations are nondecreasing per rank).
            # Barrier completion is reconstructed as t + dur, which can land
            # an ulp away from the engine clock the accesses were stamped
            # with (the sums accumulate differently), so the lookups carry a
            # physically negligible tolerance — at P=128 the deeper barrier
            # trees otherwise produce spurious same-instant violations.
            edged = False
            for name in barrier_names:
                wt, wg = gens.get((w.src, name), ([], []))
                rt, rg = gens.get((r.src, name), ([], []))
                w_end = w.t + w.dur
                i = bisect_left(wt, w_end - _time_eps(w_end))
                j = bisect_right(rt, r.t + _time_eps(r.t)) - 1
                if i < len(wg) and j >= 0 and rg[j] >= wg[i]:
                    edged = True
                    break
            if edged:
                continue
            violations.append(
                Violation(
                    rule="sas_unsynced_access",
                    writer=w.src,
                    reader=r.src,
                    t_write=w.t,
                    t_read=r.t,
                    detail=(
                        f"{w_attrs.get('label')} lines "
                        f"[{w_attrs.get('lo')}:{w_attrs.get('hi')}] written in "
                        f"phase {w_phase} and read in phase {r_phase} with no "
                        f"barrier edge between the accesses"
                    ),
                )
            )
    return violations


def check_sync(events: Sequence[Event], nprocs: int) -> List[Violation]:
    """Run both rules over one trace; returns violations sorted by read time."""
    violations = _check_shmem(events) + _check_sas(events)
    violations.sort(key=lambda v: (v.t_read, v.t_write, v.writer, v.reader))
    return violations


def format_violations(violations: Sequence[Violation]) -> str:
    if not violations:
        return "sync check: OK (0 violations)"
    lines = [f"sync check: {len(violations)} violation(s)"]
    lines.extend(f"  {v}" for v in violations)
    return "\n".join(lines)
