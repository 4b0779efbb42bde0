"""Tests for the experiment harness (runner, tables, figures, LoC, CLI)."""

from pathlib import Path

import pytest

from repro.apps.jacobi import JacobiConfig
from repro.harness import (
    APPS,
    ascii_chart,
    count_loc,
    effort_table,
    format_table,
    run_app,
    sweep,
)
from repro.harness.breakdown import aggregate_breakdown, breakdown_rows, comm_stats_rows
from repro.harness.tables import format_dict_table

SMALL = JacobiConfig(nx=32, ny=32, iters=4)


class TestRunApp:
    def test_all_apps_registered(self):
        assert set(APPS) == {"adapt", "adapt3d", "nbody", "jacobi", "scenario"}

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            run_app("weather", "mpi", 2)

    def test_run_returns_program_result(self):
        res = run_app("jacobi", "mpi", 2, SMALL)
        assert res.model == "mpi"
        assert res.nprocs == 2
        assert res.elapsed_ms > 0
        assert len(res.rank_results) >= 2

    def test_placement_is_forwarded(self):
        # a grid spanning several pages, so placement actually differs
        big = JacobiConfig(nx=128, ny=128, iters=4)
        a = run_app("jacobi", "sas", 4, big, placement="first-touch")
        b = run_app("jacobi", "sas", 4, big, placement="fixed:0")
        assert a.elapsed_ms != b.elapsed_ms

    def test_adapt_script_is_cached(self):
        from repro.apps.adapt import AdaptConfig
        from repro.harness.experiment import _run_key, _script_cache

        cfg = AdaptConfig(mesh_n=6, phases=2, solver_iters=3)
        run_app("adapt", "mpi", 2, cfg)
        key = _run_key("adapt", cfg, 2, "first-touch", None)
        assert key in _script_cache
        cached = _script_cache[key]
        run_app("adapt", "shmem", 2, cfg)  # same signature: reuses the script
        assert _script_cache[key] is cached


class TestSweep:
    def test_rows_cover_cross_product(self):
        rows = sweep("jacobi", models=("mpi", "sas"), nprocs_list=(1, 2), workload=SMALL)
        assert {(r.model, r.nprocs) for r in rows} == {
            ("mpi", 1), ("mpi", 2), ("sas", 1), ("sas", 2)
        }

    def test_speedup_normalised_to_own_p1(self):
        rows = sweep("jacobi", models=("mpi",), nprocs_list=(1, 2), workload=SMALL)
        by = {r.nprocs: r for r in rows}
        assert by[1].speedup == pytest.approx(1.0)
        assert by[2].speedup == pytest.approx(by[1].elapsed_ms / by[2].elapsed_ms)
        assert by[2].efficiency == pytest.approx(by[2].speedup / 2)

    def test_common_baseline_normalisation(self):
        rows = sweep(
            "jacobi",
            models=("mpi", "shmem"),
            nprocs_list=(1, 2),
            workload=SMALL,
            baseline_model="mpi",
        )
        shm1 = next(r for r in rows if r.model == "shmem" and r.nprocs == 1)
        mpi1 = next(r for r in rows if r.model == "mpi" and r.nprocs == 1)
        assert shm1.speedup == pytest.approx(mpi1.elapsed_ms / shm1.elapsed_ms)


class TestBreakdown:
    def test_rows_per_rank(self):
        res = run_app("jacobi", "mpi", 3, SMALL)
        rows = breakdown_rows(res)
        assert len(rows) == 3
        for row in rows:
            total = row["compute_pct"] + row["comm_pct"] + row["sync_pct"] + row["stall_pct"]
            assert total == pytest.approx(100.0)

    def test_aggregate_sums_to_100(self):
        res = run_app("jacobi", "shmem", 2, SMALL)
        agg = aggregate_breakdown(res)
        assert (
            agg["compute_pct"] + agg["comm_pct"] + agg["sync_pct"] + agg["stall_pct"]
        ) == pytest.approx(100.0)

    def test_comm_stats_keys(self):
        res = run_app("jacobi", "sas", 2, SMALL)
        stats = comm_stats_rows(res)
        assert stats["model"] == "sas"
        assert stats["messages"] == 0


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [333, 0.001]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width
        assert "333" in text and "0.001" in text

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_dict_table(self):
        text = format_dict_table([{"x": 1, "y": 2}], keys=["y", "x"])
        header = text.splitlines()[0]
        assert header.index("y") < header.index("x")

    def test_dict_table_empty(self):
        assert "(empty)" in format_dict_table([]) or format_dict_table([], title="t") == "t"


class TestFigures:
    def test_chart_contains_marks_and_legend(self):
        text = ascii_chart({"one": [(1, 1.0), (2, 2.0)], "two": [(1, 0.5)]})
        assert "legend" in text
        assert "*" in text and "o" in text

    def test_chart_handles_empty(self):
        assert ascii_chart({}, title="nothing") == "nothing"

    def test_chart_single_point(self):
        text = ascii_chart({"s": [(1.0, 5.0)]})
        assert "5.00" in text


class TestLoc:
    def test_count_skips_comments_docstrings_blanks(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            '"""Module docstring\nspanning lines."""\n\n'
            "# comment\n"
            "def f():\n"
            '    """doc"""\n'
            "    return 1  # trailing comment counts as code line\n"
        )
        assert count_loc(f) == 2  # def + return, nothing else

    def test_effort_table_covers_nine_programs(self):
        rows = effort_table()
        assert {r["app"] for r in rows} == {"adapt", "nbody", "jacobi"}
        for r in rows:
            assert all(r[m] > 0 for m in ("mpi", "shmem", "sas"))


class TestCli:
    def test_describe(self, capsys):
        from repro.__main__ import main

        assert main(["describe", "-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "8 CPUs" in out

    def test_micro_ladder_ordered(self, capsys):
        from repro.__main__ import main

        assert main(["micro", "-n", "16"]) == 0
        out = capsys.readouterr().out
        assert "L2 hit" in out and "dirty miss" in out

    def test_run_command(self, capsys):
        from repro.__main__ import main

        assert main(["run", "jacobi", "shmem", "-n", "2", "-s", "small"]) == 0
        out = capsys.readouterr().out
        assert "simulated time" in out

    def test_effort_command(self, capsys):
        from repro.__main__ import main

        assert main(["effort"]) == 0
        assert "adapt" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        from repro.__main__ import main

        assert main(["sweep", "jacobi", "-p", "1,2", "-s", "small"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out


class TestFindFlips:
    """The N-axis flip pass on a hand-built rank table (no simulation)."""

    R1 = ["shmem", "mpi", "sas"]
    R2 = ["shmem", "sas", "mpi"]  # same best model as R1
    R3 = ["mpi", "shmem", "sas"]  # a different best model
    AXES = [("a", ("a0", "a1")), ("b", (1, 2, 3)), ("c", ("x",))]

    def flips(self):
        from repro.harness.rankings import find_flips

        table = {
            ("a0", 1): self.R1, ("a0", 2): self.R1, ("a0", 3): self.R2,
            ("a1", 1): self.R3, ("a1", 2): self.R1, ("a1", 3): self.R1,
        }
        return find_flips(self.AXES, {(a, b, "x"): r for (a, b), r in table.items()})

    def test_innermost_axis_first_others_in_grid_order(self):
        got = [(f["axis"], f["fixed"], f["from_setting"], f["to_setting"])
               for f in self.flips()]
        assert got == [
            ("b", {"a": "a0", "c": "x"}, 2, 3),
            ("b", {"a": "a1", "c": "x"}, 1, 2),
            ("a", {"b": 1, "c": "x"}, "a0", "a1"),
            ("a", {"b": 3, "c": "x"}, "a0", "a1"),
        ]
        # fixed axes are listed in grid order
        assert [list(f["fixed"]) for f in self.flips()] == [
            ["a", "c"], ["a", "c"], ["b", "c"], ["b", "c"],
        ]

    def test_rankings_and_best_changed(self):
        got = [(f["from_ranking"], f["to_ranking"], f["best_changed"])
               for f in self.flips()]
        assert got == [
            (self.R1, self.R2, False),
            (self.R3, self.R1, True),
            (self.R1, self.R3, True),
            (self.R2, self.R1, False),
        ]

    def test_single_setting_axis_has_no_flips(self):
        assert all(f["axis"] != "c" for f in self.flips())


class TestModelValidation:
    """A bad -m entry fails before any cell of the sweep runs."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "jacobi", "-p", "1,2", "-m", "mpi,hybrid"],
        ["bench-faults", "-p", "1,4", "-m", "mpi,pvm"],
        ["bench-scenarios", "-m", "mpi,pvm"],
        ["bench-profiles", "-m", "mpi,pvm"],
    ], ids=["sweep", "bench-faults", "bench-scenarios", "bench-profiles"])
    def test_unknown_model_rejected_before_any_cell(self, argv, monkeypatch, tmp_path):
        import repro.harness.experiment as experiment
        from repro.__main__ import main

        def no_cells(*args, **kwargs):
            raise AssertionError("a sweep cell ran before the model list was checked")

        monkeypatch.setattr(experiment, "run_app", no_cells)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=r"unknown model '(hybrid|pvm)'.*choose from"):
            main(argv + ["--no-cache"])

    def test_model_table_matches_program_registries(self):
        # check_models reads APP_MODELS so that checking a spec imports no
        # rank program; the table must name exactly what each app runs
        from repro.harness.experiment import APP_MODELS, _programs

        assert set(APP_MODELS) == set(APPS)
        for app, models in APP_MODELS.items():
            assert sorted(models) == sorted(_programs(app)), app

    def test_checking_models_imports_no_program(self):
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.harness.experiment import check_models\n"
            "for app in ('adapt', 'adapt3d', 'scenario', 'nbody', 'jacobi'):\n"
            "    check_models(app, ['mpi', 'sas'])\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.apps')"
            " or m == 'scipy'))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "[]"
