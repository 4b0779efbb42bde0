"""Experiment harness: run app × model × P sweeps and format the results."""

from repro.harness.experiment import APPS, check_models, run_app, sweep, write_record
from repro.harness.breakdown import breakdown_rows, comm_stats_rows
from repro.harness.faultbench import format_fault_bench, run_fault_bench
from repro.harness.rankings import (
    format_rank_sweep,
    rank_sweep,
    run_profile_bench,
    run_scenario_bench,
)
from repro.harness.tables import format_table
from repro.harness.figures import ascii_chart
from repro.harness.loc import count_loc, effort_table

__all__ = [
    "APPS",
    "check_models",
    "run_app",
    "sweep",
    "write_record",
    "run_fault_bench",
    "format_fault_bench",
    "rank_sweep",
    "run_scenario_bench",
    "run_profile_bench",
    "format_rank_sweep",
    "breakdown_rows",
    "comm_stats_rows",
    "format_table",
    "ascii_chart",
    "count_loc",
    "effort_table",
]
