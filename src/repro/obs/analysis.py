"""Analysis passes over a communication event stream.

These are pure functions over a list of :class:`repro.obs.events.Event`;
they power ``run``'s ``--comm-matrix``, ``--summary`` and ``--phases``
views and the cross-model comparison tables.  All three models reduce to the same
matrices:

* **MPI / SHMEM** — rank x rank flow matrices from ``msg_send`` / ``put`` /
  ``get`` / ``atomic`` / ``coll_xfer`` events (``M[i][j]`` = bytes or
  messages flowing *from* rank ``i`` *to* rank ``j``).
* **CC-SAS** — rank x home-node fetch matrices from ``coherence`` events:
  ``M[r][h]`` = bytes of cache lines rank ``r`` pulled through the protocol
  whose directory home is node ``h`` (communication under CC-SAS *is* the
  coherence traffic).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.events import Event

__all__ = [
    "RANK_FLOW_KINDS",
    "issuing_rank",
    "comm_matrix",
    "sas_home_matrix",
    "size_histogram",
    "phase_breakdown",
    "phase_intervals",
    "summarize",
    "format_matrix",
    "link_contention_rows",
    "format_link_contention",
]

#: event kinds that describe rank-to-rank data flow (``src`` -> ``dst``)
RANK_FLOW_KINDS = ("msg_send", "put", "get", "atomic", "coll_xfer")

#: flow kinds where the *destination* rank issued the operation (the data
#: moves src -> dst, but the call happened on dst)
_DST_ISSUED = ("msg_recv", "get")


def issuing_rank(ev: Event) -> int:
    """The rank whose program issued the call behind ``ev``."""
    return ev.dst if ev.kind in _DST_ISSUED else ev.src


def comm_matrix(
    events: Iterable[Event], nprocs: int, units: str = "bytes"
) -> np.ndarray:
    """Per-pair traffic matrix: ``M[i][j]`` = bytes (or messages) i -> j.

    Counts the rank-to-rank flow kinds (:data:`RANK_FLOW_KINDS`:
    messages, puts, gets, atomics, collective transfers); coherence
    traffic has no rank-pair flow — use :func:`sas_home_matrix` for the
    CC-SAS picture.  ``units`` is ``"bytes"`` or ``"messages"``.
    """
    if units not in ("bytes", "messages"):
        raise ValueError(f"units must be 'bytes' or 'messages', got {units!r}")
    m = np.zeros((nprocs, nprocs), dtype=np.int64)
    for ev in events:
        if ev.kind in RANK_FLOW_KINDS and 0 <= ev.src < nprocs and 0 <= ev.dst < nprocs:
            m[ev.src, ev.dst] += ev.nbytes if units == "bytes" else 1
    return m


def sas_home_matrix(
    events: Iterable[Event], nprocs: int, nnodes: int, line_bytes: int
) -> np.ndarray:
    """CC-SAS fetch matrix: ``M[rank][home_node]`` = bytes of lines fetched.

    Counts only data-moving transactions (remote and dirty fills) recorded
    in the ``homes`` attribute of ``coherence`` events.
    """
    m = np.zeros((nprocs, nnodes), dtype=np.int64)
    for ev in events:
        if ev.kind != "coherence" or ev.attrs is None:
            continue
        homes = ev.attrs.get("homes")
        if not homes:
            continue
        for home, nlines in homes.items():
            m[ev.src, int(home)] += int(nlines) * line_bytes
    return m


def size_histogram(
    events: Iterable[Event], kinds: Optional[Sequence[str]] = None
) -> Dict[str, Dict[int, int]]:
    """Message-size histogram per kind: bucket = next power of two >= size."""
    selected = RANK_FLOW_KINDS if kinds is None else tuple(kinds)
    out: Dict[str, Dict[int, int]] = {}
    for ev in events:
        if ev.kind not in selected:
            continue
        bucket = 1 << max(int(ev.nbytes) - 1, 0).bit_length() if ev.nbytes else 0
        h = out.setdefault(ev.kind, {})
        h[bucket] = h.get(bucket, 0) + 1
    return out


def phase_intervals(
    events: Iterable[Event],
) -> Dict[int, List[Tuple[float, float, str]]]:
    """Per-rank closed phase intervals ``(t0, t1, name)`` in time order."""
    out: Dict[int, List[Tuple[float, float, str]]] = {}
    for ev in events:
        if ev.kind == "phase" and ev.attrs is not None:
            out.setdefault(ev.src, []).append(
                (ev.t, ev.t + ev.dur, str(ev.attrs.get("name")))
            )
    for intervals in out.values():
        intervals.sort(key=lambda iv: iv[0])
    return out


def _interval_index(
    intervals: List[Tuple[float, float, str]], t: float
) -> Optional[int]:
    """Index of the interval containing ``t`` (None when outside all)."""
    i = bisect_right([iv[0] for iv in intervals], t) - 1
    if i >= 0 and t <= intervals[i][1]:
        return i
    return None


def phase_breakdown(events: Sequence[Event]) -> Dict[str, Dict[str, float]]:
    """Aggregate communication per adaptation phase.

    Each non-phase event is attributed to the issuing rank's enclosing
    phase interval (``"(outside)"`` when none).  Returns, per phase name:
    ``events``, ``bytes``, and per-kind counts.
    """
    per_rank = phase_intervals(events)
    out: Dict[str, Dict[str, float]] = {}
    for ev in events:
        if ev.kind in ("phase", "net"):
            continue
        intervals = per_rank.get(issuing_rank(ev), [])
        idx = _interval_index(intervals, ev.t) if intervals else None
        name = intervals[idx][2] if idx is not None else "(outside)"
        row = out.setdefault(name, {"events": 0, "bytes": 0})
        row["events"] += 1
        row["bytes"] += ev.nbytes
        row[ev.kind] = row.get(ev.kind, 0) + 1
    return out


def summarize(events: Sequence[Event]) -> Dict[str, Dict[str, float]]:
    """Totals per event kind: ``count``, ``bytes``, ``dur_ns``.

    Works over any kind in the stream (including ``fault_*``/``retry``),
    so it doubles as a quick recovery-overhead readout on faulted runs.
    """
    out: Dict[str, Dict[str, float]] = {}
    for ev in events:
        row = out.setdefault(ev.kind, {"count": 0, "bytes": 0, "dur_ns": 0.0})
        row["count"] += 1
        row["bytes"] += ev.nbytes
        row["dur_ns"] += ev.dur
    return out


def link_contention_rows(
    links: Iterable, top: Optional[int] = None, busy_only: bool = True
) -> List[Dict[str, object]]:
    """Tabular per-link contention from ``MachineStats.links``.

    Takes the :class:`repro.machine.stats.LinkStats` snapshot a run
    collected under ``derived["link_stats"] = "on"`` and returns one
    plain-dict row per link, sorted hottest-first (queued ns, then
    bytes).  ``busy_only`` drops links that carried nothing; ``top``
    truncates to the N hottest.  Raises ``ValueError`` when the snapshot
    is empty — the run was made without link stats enabled.
    """
    links = list(links)
    if not links:
        raise ValueError(
            "no per-link stats in this run; enable with "
            'derived["link_stats"] = "on" (CLI: run --link-stats)'
        )
    rows = [
        {
            "link": ls.label,
            "kind": ls.kind,
            "src": ls.src,
            "dst": ls.dst,
            "bytes": ls.bytes,
            "acquires": ls.acquires,
            "claim_waits": ls.claim_waits,
            "queued_ns": ls.queued_ns,
            "busy_ns": ls.busy_ns,
            "saturation": ls.saturation,
            # correlated-fault exposure (all zero on fault-free runs)
            "fault_drops": ls.fault_drops,
            "ge_bad": ls.ge_bad,
            "fault_stall_ns": ls.fault_stall_ns,
        }
        for ls in links
        if not busy_only or ls.acquires > 0
    ]
    rows.sort(key=lambda r: (-r["queued_ns"], -r["bytes"], r["link"]))
    if top is not None:
        rows = rows[:top]
    return rows


def format_link_contention(links: Iterable, top: Optional[int] = 16) -> str:
    """Fixed-width table of the hottest links (CLI ``run --link-stats``).

    Runs under a correlated fault profile grow three extra columns —
    bad-state traversals, burst drops, and burst stall milliseconds —
    so the flaky domain is visible right in the contention table.
    """
    rows = link_contention_rows(links, top=top)
    faulty = any(r["ge_bad"] or r["fault_drops"] for r in rows)
    header = (
        f"{'link':<20} {'bytes':>12} {'acq':>7} {'waits':>6} "
        f"{'queued_ms':>10} {'busy_ms':>9} {'sat':>6}"
    )
    if faulty:
        header += f" {'ge_bad':>7} {'fdrops':>7} {'fstall_ms':>10}"
    lines = [header]
    for r in rows:
        line = (
            f"{r['link']:<20} {r['bytes']:>12} {r['acquires']:>7} "
            f"{r['claim_waits']:>6} {r['queued_ns'] / 1e6:>10.3f} "
            f"{r['busy_ns'] / 1e6:>9.3f} {r['saturation']:>6.1%}"
        )
        if faulty:
            line += (
                f" {r['ge_bad']:>7} {r['fault_drops']:>7} "
                f"{r['fault_stall_ns'] / 1e6:>10.3f}"
            )
        lines.append(line)
    return "\n".join(lines)


def format_matrix(
    m: np.ndarray, row_label: str = "rank", col_label: str = "rank"
) -> str:
    """Fixed-width text rendering of a traffic matrix."""
    rows, cols = m.shape
    width = max(len(str(int(m.max(initial=0)))), len(str(cols - 1)), 6)
    corner = row_label + "\\" + col_label
    header = f"{corner:>10} " + " ".join(f"{c:>{width}}" for c in range(cols))
    lines = [header]
    for r in range(rows):
        lines.append(
            f"{r:>10} " + " ".join(f"{int(m[r, c]):>{width}}" for c in range(cols))
        )
    return "\n".join(lines)
