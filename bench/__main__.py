"""Command line: ``python -m bench [options]`` and ``python -m bench compare A B``.

Each workload runs in a fresh child process (``--worker``), one at a
time. The parent prints every workload's table, appends one line to
``bench/history.jsonl`` and ends with one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from bench import ROOT

#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 900


def _parser(workloads: List[str]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads,
                   help="workload to run (repeatable; default: all four)")
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep running timed passes until this many seconds have passed "
                        "(at least 5 passes run regardless)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="run one extra traced pass and report the per-layer metrics")
    p.add_argument("--record-golden", action="store_true",
                   help="write this seed's cell fingerprints to bench/golden.json")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command")
    c = sub.add_parser("compare", help="compare two sets of bench/history.jsonl records")
    c.add_argument("a", help="parent runs: a record index (-2) or a slice of them (-20:-10)")
    c.add_argument("b", help="change runs, likewise")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    try:
        import repro
        from bench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        # an installed copy would be measured instead of this checkout
        print(f"bench: repro imports from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    from bench import report

    args = _parser(sorted(WORKLOADS)).parse_args(argv)
    spec = report.load_spec()
    if args.command == "compare":
        history = report.load_history()
        lines, verdicts = report.compare(
            report.select(history, args.a), report.select(history, args.b), spec
        )
        print("\n".join(lines))
        return 1 if "worse" in verdicts else 0
    if args.worker:
        from bench.runner import run_workload

        golden = json.loads(report.GOLDEN.read_text()).get(str(args.seed), {})
        result = run_workload(
            args.workload[0], args.seed, args.seconds, bool(args.trace),
            golden.get(args.workload[0], {}), args.record_golden,
        )
        print(json.dumps(result))
        return 0

    results = {}
    for name in args.workload or sorted(WORKLOADS):
        cmd = [
            sys.executable, "-m", "bench", "--worker", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--record-golden"] if args.record_golden else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])

    if args.record_golden:
        return _record_golden(report, args.seed, results)
    for name, res in results.items():
        print(report.format_workload(name, res, spec), flush=True)
    settings = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report.append_history(report.history_record(settings, results))
    print(json.dumps(report.result_line(results, spec, bool(args.trace))))
    return 0


def _record_golden(report, seed: int, results) -> int:
    failed = {name: r["failures"] for name, r in results.items() if r["failed"]}
    if failed:
        print(f"bench: not recording, answers failed their checks: {failed}", file=sys.stderr)
        return 1
    golden = json.loads(report.GOLDEN.read_text())
    entry = golden.setdefault(str(seed), {})
    for name, res in results.items():
        entry[name] = res["record"]
        print(f"recorded {len(res['record'])} cells of {name} for seed {seed}")
    report.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
