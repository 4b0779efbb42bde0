"""Summaries, tables, the history file and the comparison of two sets of runs."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from bench import ROOT

__all__ = [
    "SPEC_PATH", "HISTORY", "GOLDEN", "load_spec", "quartiles", "verdict",
    "format_workload", "result_line", "history_record", "append_history",
    "load_history", "select", "compare",
]

SPEC_PATH = ROOT / "BENCHMARK.json"
HISTORY = ROOT / "bench" / "history.jsonl"
GOLDEN = ROOT / "bench" / "golden.json"


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads(SPEC_PATH.read_text())


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for one metric.

    ``better`` needs the change to win at least nine tenths of the pairs
    (run i against run i, ties counting for neither) and the medians to
    differ by more than the parent's own quartile spread. Otherwise, when
    that spread is wider than ``bound`` (a share of the parent's median),
    the metric is ``unresolved`` unless every change run beats every
    parent run; past that, a median worse by more than ``bound`` is
    ``worse``.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = quartiles(parent)
    med_b = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "better"
    every_run_better = max(sign * b for b in change) < min(sign * a for a in parent)
    if q3 - q1 > bound * abs(med_a) and not every_run_better:
        return "unresolved"
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "worse"
    return "unchanged"


def _layer_lines(layers: Dict[str, Any]) -> List[str]:
    rows = layers["rows"]
    metrics = layers["metrics"]
    wall = metrics["traced_wall_s"]["value"]
    lines = [f"  {'layer':<20} {'self_s':>9} {'share':>7} {'calls':>10}"]
    for row, r in rows.items():
        lines.append(f"  {row:<20} {r['self_s']:>9.4f} {100 * r['self_s'] / wall:>6.1f}% {r['calls']:>10}")
    un = metrics["unattributed_s"]["value"]
    lines.append(f"  {'unattributed':<20} {un:>9.4f} {100 * un / wall:>6.1f}%")
    lines.append(
        f"  traced wall {wall:.4f} s, trace_overhead {metrics['trace_overhead']['value']:+.3f}"
    )
    shown = {f"{row}.{k}" for row in rows for k in ("share", "calls")}
    lines.append(f"  {'counter':<34} {'value':>14}")
    for name, m in metrics.items():
        if name not in shown and name not in ("traced_wall_s", "unattributed_s", "trace_overhead"):
            lines.append(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    return lines


def format_workload(name: str, res: Dict[str, Any], spec: Dict[str, Any]) -> str:
    """The human table for one workload: metrics, checks, layers if traced.

    ``value`` is the metric as reported (reference seconds for times);
    the ``raw`` columns are quartiles of the passes' host seconds.
    """
    fail_frac = res["failed"] / res["attempted"]
    lines = [
        f"== {name}: {res['passes']} timed passes; {res['attempted']} answers checked, "
        f"{res['failed']} failed (fail_frac {fail_frac:.4g}), {res['unpinned']} unpinned cells",
        f"  {'metric':<12} {'unit':<5} {'value':>11}   {'raw pass q1':>11} {'median':>11} {'q3':>11} {'n':>3}",
    ]
    for m in spec["end_to_end"]:
        line = f"  {m['name']:<12} {m['unit']:<5} {res['metrics'][m['name']]:>11.6g}"
        if m["name"] in res["samples"]:
            values = res["samples"][m["name"]]
            q1, med, q3 = quartiles(values)
            line += f"   {q1:>11.6g} {med:>11.6g} {q3:>11.6g} {len(values):>3}"
        lines.append(line)
    lines += [f"  FAILED {f}" for f in res["failures"]]
    if "layers" in res:
        lines += _layer_lines(res["layers"])
    return "\n".join(lines)


def result_line(results: Dict[str, Dict[str, Any]], spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The final JSON object: end-to-end metrics, or per-layer ones when traced.

    With one workload the metric names are the spec's; with several,
    each is prefixed by its workload.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        if trace:
            values = {k: v["value"] for k, v in res["layers"]["metrics"].items()}
            wanted = spec["per_layer"]
        else:
            values = res["metrics"]
            wanted = spec["end_to_end"]
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def _git() -> Dict[str, Any]:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def history_record(settings: Dict[str, Any], results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """One history line: environment stamp, settings and every per-pass sample."""
    import numpy

    return {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git": _git(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **settings,
        "workloads": {
            name: {
                k: res[k]
                for k in ("passes", "metrics", "samples", "attempted", "failed", "unpinned", "layers")
                if k in res
            }
            for name, res in results.items()
        },
    }


def append_history(record: Dict[str, Any], path: Path = HISTORY) -> None:
    with path.open("a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def load_history(path: Path = HISTORY) -> List[Dict[str, Any]]:
    with path.open() as f:
        return [json.loads(line) for line in f if line.strip()]


def select(history: List[Dict[str, Any]], selector: str) -> List[Dict[str, Any]]:
    """Records picked by an index (``-1``) or a slice (``-20:-10``)."""
    if ":" in selector:
        start, stop = (int(x) if x else None for x in selector.split(":", 1))
        return history[start:stop]
    return [history[int(selector)]]


def compare(parent: List[Dict[str, Any]], change: List[Dict[str, Any]],
            spec: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """Table lines and verdicts for every (workload, metric) both sides ran.

    Each record contributes one value per metric, so a side of ten
    records gives ten runs; records pair up in order.
    """
    def runs(records, workload, metric):
        return [r["workloads"][workload]["metrics"][metric] for r in records if workload in r["workloads"]]

    def stamp(records):
        shas = sorted({str(r["git"]["sha"])[:10] for r in records})
        return f"{len(records)} records at {', '.join(shas)}"

    lines = [
        f"A: {stamp(parent)}   B: {stamp(change)}",
        f"{'workload':<12} {'metric':<12} {'A median':>11} {'A q1..q3':>23} "
        f"{'B median':>11} {'B q1..q3':>23}  verdict",
    ]
    verdicts = []
    workloads = dict.fromkeys(w for r in parent for w in r["workloads"])
    for name in workloads:
        for m in spec["end_to_end"]:
            va, vb = runs(parent, name, m["name"]), runs(change, name, m["name"])
            if not va or not vb:
                continue
            v = verdict(va, vb, m["better"], m["bound"])
            verdicts.append(v)
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(va), quartiles(vb)
            lines.append(
                f"{name:<12} {m['name']:<12} {ma:>11.5g} {qa1:>11.5g}..{qa3:<11.5g} "
                f"{mb:>11.5g} {qb1:>11.5g}..{qb3:<11.5g}  {v}"
            )
    return lines, verdicts
