"""Fault-recovery benchmark: what does surviving message loss cost?

``run_fault_bench`` runs one application under every model at several
processor counts, twice per configuration — fault-free and with a seeded
:class:`repro.faults.FaultProfile` — and reports the recovery overhead:
retransmissions / NACK bounces, added simulated nanoseconds, the relative
slowdown and the resulting *goodput* (fault-free time / faulted time, the
fraction of the machine's fault-free pace it still achieves).

With ``verify=True`` (default) every faulted configuration also runs a
second time with the same seed and the two runs are asserted identical —
elapsed nanoseconds, fault counters and per-rank results — so the numbers
can never come from nondeterministic injection.
:func:`repro.harness.experiment.write_record` writes the record as
``BENCH_FAULTS.json``.

``correlated=True`` turns the two-arm comparison into three arms per
(model, P): fault-free, fault-*blind* (correlated bursts injected, PLUM
unaware) and fault-*aware* (same bursts, PLUM's part->processor
assignment steered away from the flaky routes via
:func:`repro.plum.faultaware.rank_penalty_matrix`).  The row then also
reports ``recovered_pct`` — how much of the fault-blind elapsed-time
penalty the fault-aware repartitioning clawed back.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from repro.faults import resolve_profile
from repro.harness.experiment import run_app, serve_cells

__all__ = ["run_fault_bench", "format_fault_bench"]


def _rank_checksum(result) -> str:
    """Order-stable digest of the per-rank return values."""
    import hashlib

    blob = repr(result.rank_results).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_fault_bench(
    app: str = "adapt",
    models: Sequence[str] = ("mpi", "shmem", "sas"),
    nprocs_list: Iterable[int] = (1, 4, 8),
    profile: Any = "lossy",
    seed: Optional[int] = None,
    workload: Any = None,
    placement: str = "first-touch",
    verify: bool = True,
    store: Any = None,
    jobs: int = 1,
    machine_profile: Any = None,
    correlated: bool = False,
) -> Dict[str, Any]:
    """Measure per-model recovery overhead; returns the BENCH_FAULTS record.

    Args:
        app: application to drive (any :data:`repro.harness.APPS` key).
        models: programming models to compare.
        nprocs_list: processor counts to run at.
        profile: fault profile name / :class:`FaultProfile`.
        seed: overrides the profile's seed when given.
        workload: app-specific config; ``None`` uses the default.
        placement: page-placement policy.
        verify: re-run every faulted configuration with the same seed
            and assert bit-identical elapsed time, counters and rank
            results (determinism guard).  Verification runs always
            simulate — they deliberately bypass ``store``, otherwise a
            warm store would verify a result against itself.
        store: a :class:`repro.serving.ResultStore` serving the baseline
            and faulted measurement runs (fault injection is seeded and
            deterministic, so faulted cells cache like any others).
        jobs: shard uncached measurement cells over worker processes.
        machine_profile: hardware profile name or
            :class:`~repro.machine.profiles.MachineProfile` every row
            runs on (``None``: the Origin2000 default).
        correlated: add a third, fault-*aware* arm per (model, nprocs):
            the same correlated-burst profile but with PLUM fed the
            link-penalty matrix.  Requires a profile with Gilbert–Elliott
            domains (e.g. ``"bursty-links"`` or a ``gilbert:`` spec).

    Returns:
        A JSON-ready record with one row per (model, nprocs): baseline
        and faulted elapsed ns, retries, added ns, overhead percent,
        goodput, and the per-run checksums (plus the fault-aware arm and
        ``recovered_pct`` when ``correlated``).
    """
    from repro.serving import Cell

    prof = resolve_profile(profile, seed=seed)
    if correlated and not prof.correlated:
        raise ValueError(
            f"correlated fault bench needs a Gilbert-Elliott profile with "
            f"fault domains (e.g. 'bursty-links' or a 'gilbert:' spec); "
            f"got {prof.name!r}"
        )
    nprocs_list = list(nprocs_list)
    if correlated:
        # blind vs aware differ only in whether PLUM sees the penalty
        # matrix; the injected fault schedule is the identical chain.
        arms = (None, prof.with_(fault_aware=False), prof.with_(fault_aware=True))
    else:
        arms = (None, prof)
    cells = [
        Cell(app, model, n, workload, placement, faults=faults,
             machine_profile=machine_profile)
        for model in models
        for n in nprocs_list
        for faults in arms
    ]
    summaries = iter(serve_cells(cells, store=store, jobs=jobs))

    def _check_determinism(model, n, faults, measured):
        again = run_app(app, model, n, workload, placement, faults=faults,
                        machine_profile=machine_profile)
        if again.elapsed_ns != measured.elapsed_ns:
            raise AssertionError(
                f"nondeterministic fault injection: {model} P={n} gave "
                f"{measured.elapsed_ns} then {again.elapsed_ns} simulated ns"
            )
        if again.fault_summary != measured.fault_summary:
            raise AssertionError(
                f"nondeterministic fault counters for {model} P={n}"
            )
        if _rank_checksum(again) != _rank_checksum(measured):
            raise AssertionError(
                f"nondeterministic rank results for {model} P={n}"
            )

    rows = []
    for model in models:
        for n in nprocs_list:
            base = next(summaries)
            faulted = next(summaries)
            aware = next(summaries) if correlated else None
            if verify:
                _check_determinism(model, n, arms[1], faulted)
                if correlated:
                    _check_determinism(model, n, arms[2], aware)
            summary = faulted.fault_summary or {}
            counters = summary.get("counters", {})
            added_ns = faulted.elapsed_ns - base.elapsed_ns
            row = {
                "model": model,
                "nprocs": n,
                "baseline_ns": base.elapsed_ns,
                "faulted_ns": faulted.elapsed_ns,
                "added_ns": added_ns,
                "overhead_pct": (
                    100.0 * added_ns / base.elapsed_ns if base.elapsed_ns else 0.0
                ),
                "goodput": (
                    base.elapsed_ns / faulted.elapsed_ns
                    if faulted.elapsed_ns else 0.0
                ),
                "retries": summary.get("total_retries", 0),
                "drops": counters.get("drop", 0),
                "dups": counters.get("dup", 0),
                "delays": counters.get("delay", 0),
                "nacks": counters.get("nack", 0),
                "baseline_checksum": _rank_checksum(base),
                "faulted_checksum": _rank_checksum(faulted),
                "results_match_baseline": _rank_checksum(base)
                == _rank_checksum(faulted),
                "verified_deterministic": bool(verify),
            }
            if correlated:
                aware_summary = aware.fault_summary or {}
                added_aware = aware.elapsed_ns - base.elapsed_ns
                # fraction of the fault-blind elapsed-time penalty that
                # fault-aware repartitioning recovered
                row["faulted_aware_ns"] = aware.elapsed_ns
                row["recovered_ns"] = faulted.elapsed_ns - aware.elapsed_ns
                row["recovered_pct"] = (
                    100.0 * (faulted.elapsed_ns - aware.elapsed_ns) / added_ns
                    if added_ns > 0 else 0.0
                )
                row["overhead_aware_pct"] = (
                    100.0 * added_aware / base.elapsed_ns if base.elapsed_ns else 0.0
                )
                row["retries_aware"] = aware_summary.get("total_retries", 0)
                row["aware_checksum"] = _rank_checksum(aware)
                row["results_match_aware"] = (
                    _rank_checksum(base) == _rank_checksum(aware)
                )
            rows.append(row)
    record = {
        "benchmark": "fault-recovery",
        "app": app,
        "profile": prof.name,
        "seed": prof.seed,
        "placement": placement,
        "rows": rows,
    }
    if correlated:
        record["correlated"] = {
            "ge_p": prof.ge_p,
            "ge_r": prof.ge_r,
            "stationary_bad": prof.ge_stationary_bad,
            "stationary_loss": prof.ge_stationary_loss,
            "mean_burst": prof.ge_mean_burst,
            "domains": list(prof.domains),
            "best_recovered_pct": max(
                (r["recovered_pct"] for r in rows), default=0.0
            ),
        }
    return record


def format_fault_bench(record: Dict[str, Any]) -> str:
    """Human-readable table of one ``run_fault_bench`` record."""
    corr = record.get("correlated")
    lines = [
        f"fault-recovery overhead: app={record['app']} "
        f"profile={record['profile']} seed={record['seed']}",
    ]
    if corr:
        lines.append(
            f"correlated bursts: pi_bad={corr['stationary_bad']:.3f} "
            f"mean_burst={corr['mean_burst']:.1f} "
            f"domains={','.join(corr['domains'])}"
        )
        lines.append(
            f"{'model':>6} {'P':>3} {'retries':>8} "
            f"{'blind ms':>10} {'aware ms':>10} {'overhead':>9} "
            f"{'aware ov':>9} {'recovered':>10}"
        )
        for r in record["rows"]:
            lines.append(
                f"{r['model']:>6} {r['nprocs']:>3} {r['retries']:>8} "
                f"{r['added_ns'] / 1e6:>10.3f} "
                f"{(r['faulted_aware_ns'] - r['baseline_ns']) / 1e6:>10.3f} "
                f"{r['overhead_pct']:>8.2f}% {r['overhead_aware_pct']:>8.2f}% "
                f"{r['recovered_pct']:>9.1f}%"
            )
        lines.append(
            f"best recovered: {corr['best_recovered_pct']:.1f}% of the "
            f"fault-blind elapsed-time penalty"
        )
        return "\n".join(lines)
    lines.append(
        f"{'model':>6} {'P':>3} {'retries':>8} {'nacks':>6} "
        f"{'added ms':>10} {'overhead':>9} {'goodput':>8}"
    )
    for r in record["rows"]:
        lines.append(
            f"{r['model']:>6} {r['nprocs']:>3} {r['retries']:>8} {r['nacks']:>6} "
            f"{r['added_ns'] / 1e6:>10.3f} {r['overhead_pct']:>8.2f}% "
            f"{r['goodput']:>8.3f}"
        )
    return "\n".join(lines)

