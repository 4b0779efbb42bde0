"""One workload in one process: warm-up, timed passes, optional traced pass."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence

from bench.clock import Clock
from bench.trace import ROWS, Tracer
from bench.workloads import WORKLOADS, Answer, Checker, fingerprint

__all__ = ["MIN_PASSES", "OUT", "run_workload", "summarize", "layer_report"]

#: timed passes per run, whatever ``seconds`` asks for
MIN_PASSES = 5

#: run outputs: Chrome traces, scratch result stores, the history file
OUT = Path(__file__).resolve().parent / "out"


def run_workload(
    name: str,
    seed: int,
    seconds: float = 0.0,
    trace: bool = False,
    golden: Dict[str, Any] | None = None,
    record: bool = False,
    sizes: Dict[str, Any] | None = None,
    out: Path = OUT,
) -> Dict[str, Any]:
    """Run workload ``name``; return its samples, checks and layer table.

    One untimed warm-up pass comes first. Timed passes follow until at
    least :data:`MIN_PASSES` have run and ``seconds`` have passed. With
    ``trace``, one more pass runs under the :class:`~bench.trace.Tracer`.
    With ``record``, only the warm-up pass runs and its fingerprints come
    back under ``"record"`` for the golden file.
    """
    out.mkdir(parents=True, exist_ok=True)
    kwargs = dict(sizes or {})
    if name == "sweep-serve":
        kwargs.setdefault("root", out)
    workload = WORKLOADS[name](seed, **kwargs)
    checker = Checker({} if record else (golden or {}))
    gc.collect()
    warm = workload.run_pass(Clock())
    checker.check(warm)
    if record:
        return {
            "record": {a.label: fingerprint(a.result) for a in warm if a.result is not None},
            **_check_summary(checker),
        }
    clocks: List[Clock] = []
    walls: List[float] = []
    start = perf_counter()
    while len(clocks) < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()
        clock = Clock()
        clock.calibrate()
        t0 = perf_counter()
        answers = workload.run_pass(clock)
        walls.append(perf_counter() - t0)
        clock.calibrate()
        clocks.append(clock)
        checker.check(answers)
    metrics = summarize(clocks, walls)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    result: Dict[str, Any] = {
        "passes": len(clocks),
        "metrics": metrics,
        # host seconds as measured, and each pass's reference-seconds per host second
        "samples": {
            "wall_s": walls,
            "setup_s": [c.seconds("setup") for c in clocks],
            "sim_s": [c.seconds("sim") for c in clocks],
            "scale": [c.scale() for c in clocks],
        },
    }
    if trace:
        latencies = [dt for c in clocks for _, label, dt in c.scaled_steps() if label is not None]
        result["layers"] = _traced_pass(workload, checker, metrics["wall_s"], latencies, out)
    result.update(_check_summary(checker))
    return result


def summarize(clocks: Sequence[Clock], walls: Sequence[float]) -> Dict[str, float]:
    """End-to-end time metrics of the timed passes, in reference seconds.

    Step ``i`` times the same work in every pass, so its median across
    passes drops the passes a burst of host load slowed; the metrics sum
    those medians. ``wall_s`` adds the median time spent between steps
    (the kernel timings excluded). ``cell_ms`` is the mean, over the
    workload's cells, of each cell's median latency.
    """
    scaled = [c.scaled_steps() for c in clocks]
    n = len(scaled[0])
    if any(len(s) != n for s in scaled):
        raise RuntimeError("timed passes ran different steps")
    kinds = [kind for kind, _, _ in scaled[0]]
    medians = [statistics.median(s[i][2] for s in scaled) for i in range(n)]
    between = statistics.median(
        c.scale() * (w - sum(dt for _, _, dt, _ in c.steps) - sum(c.kernel_s[1:-1]))
        for c, w in zip(clocks, walls)
    )
    latency: Dict[str, List[float]] = {}
    for s in scaled:
        for _, label, dt in s:
            if label is not None:
                latency.setdefault(label, []).append(dt)
    return {
        "wall_s": sum(medians) + between,
        "setup_s": sum(m for m, k in zip(medians, kinds) if k == "setup"),
        "sim_s": sum(m for m, k in zip(medians, kinds) if k == "sim"),
        "cell_ms": 1e3 * statistics.fmean(statistics.median(v) for v in latency.values()),
    }


def _check_summary(checker: Checker) -> Dict[str, Any]:
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures[:10],
        "unpinned": len(checker.unpinned),
    }


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _require_profiler_off() -> None:
    from repro.sim.profile import PROFILER

    if PROFILER.enabled:
        raise RuntimeError(
            "the simulator's host profiler is on; the traced pass must run "
            "the same code as the timed passes"
        )


def _traced_pass(workload, checker: Checker, untraced_s: float,
                 latencies: Sequence[float], out: Path) -> Dict[str, Any]:
    _require_profiler_off()
    tracer = Tracer()
    # no kernel timings inside the traced wall: they would read as unattributed
    clock = Clock(tracer, calibrate_every=math.inf)
    gc.collect()
    clock.calibrate()
    with tracer.installed():
        t0 = perf_counter()
        answers = workload.run_pass(clock)
        wall = perf_counter() - t0
    clock.calibrate()
    _require_profiler_off()
    checker.check(answers)
    _write_chrome_trace(out / f"{workload.name}.trace.json", tracer.events, t0)
    report = layer_report(tracer, clock, answers, wall, latencies)
    report["metrics"]["trace_overhead"] = {"value": clock.scale() * wall / untraced_s - 1.0, "unit": "ratio"}
    return report


def layer_report(tracer: Tracer, clock: Clock, answers: Sequence[Answer], wall: float,
                 latencies: Sequence[float]) -> Dict[str, Any]:
    """Per-row self time and calls, plus the per-layer metrics by name.

    Times here are host seconds of the traced pass, as measured; the
    caller adds ``trace_overhead``.
    """
    rows = {row: {"self_s": tracer.self_s[row], "calls": tracer.calls[row]} for row in ROWS}
    unattributed = wall - sum(r["self_s"] for r in rows.values())
    c = tracer.counts
    metrics: Dict[str, tuple] = {}
    for row, r in rows.items():
        metrics[f"{row}.share"] = (r["self_s"] / wall, "frac")
        metrics[f"{row}.calls"] = (r["calls"], "count")
    events, cohorts = c.get("sim.events", 0), c.get("sim.cohorts_drained", 0)
    matched = sum(c.get(f"models.mpi.{k}", 0) for k in ("head_hits", "index_hits", "vector_scans", "scalar_scans"))
    hits, misses = c.get("machine.cache.hits", 0), c.get("machine.cache.misses", 0)
    # each label's first answer in a pass is the one that was simulated
    computed = {a.label: a.result for a in reversed(answers) if a.result is not None}
    faults = [r.fault_summary for r in computed.values() if r.fault_summary]
    lookups = clock.counts.get("serving.warm_lookups", 0)
    metrics.update({
        "sim.events": (events, "count"),
        "sim.cohorts_drained": (cohorts, "count"),
        "sim.timer_calls": (c.get("sim.timer_calls", 0), "count"),
        "sim.events_per_cohort": (events / cohorts if cohorts else 0.0, "ratio"),
        "models.mpi.index_hit_ratio": (c.get("models.mpi.index_hits", 0) / matched if matched else 0.0, "ratio"),
        "models.mpi.vector_scans": (c.get("models.mpi.vector_scans", 0), "count"),
        "machine.network.timer_transfers": (c.get("machine.network.timer_transfers", 0), "count"),
        "machine.network.messages": (c.get("machine.network.messages", 0), "count"),
        "machine.directory.batch_calls": (tracer.target_calls["Directory.transaction_batch"], "count"),
        "machine.cache.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "faults.retries": (sum(int(f["total_retries"]) for f in faults), "count"),
        "faults.drops": (sum(int(f["counters"].get("drop", 0)) for f in faults), "count"),
        "serving.hit_rate": (clock.counts.get("serving.warm_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "cell_p99_ms": (1e3 * _quantile(latencies, 0.99), "ms"),
        "unattributed_s": (unattributed, "s"),
        "unattributed_frac": (unattributed / wall, "frac"),
        "traced_wall_s": (wall, "s"),
    })
    return {
        "rows": rows,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _quantile(values: Sequence[float], q: float) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _write_chrome_trace(path: Path, events, t0: float) -> None:
    """Coarse spans as Chrome trace-event ``X`` records (open in Perfetto)."""
    records = [
        {"name": name, "ph": "X", "ts": 1e6 * (start - t0), "dur": 1e6 * dur, "pid": 1, "tid": 1}
        for name, start, dur in sorted(events, key=lambda e: (e[1], -e[2]))
    ]
    path.write_text(json.dumps({"traceEvents": records, "displayTimeUnit": "ms"}))
