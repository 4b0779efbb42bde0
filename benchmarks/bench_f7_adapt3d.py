"""R-F7 (extension): the 3-D (tetrahedral) adaptive application under the
three programming models.

The same per-model programs as R-F1 replay a tetrahedral trajectory.
Expected shape: the 2-D ranking carries over — the models agree at P=1,
SHMEM leads at scale — and the gap between models is at least as large as
in 2-D (a 3-D decomposition has proportionally more surface, hence more
fine-grained boundary communication per element).
"""

import pytest

from conftest import MODELS, emit
from repro.apps.adapt import ADAPT_PROGRAMS, build_script
from repro.apps.adapt3d import Adapt3DConfig
from repro.harness import ascii_chart, format_table
from repro.models.registry import run_program
from repro.workloads.shock3d import MovingShock3D

P_LIST = (1, 2, 4, 8, 16)

WL = Adapt3DConfig(
    mesh_n=3,
    phases=4,
    solver_iters=10,
    shock=MovingShock3D(x0=0.15, speed=0.15, band=0.06, coarsen_distance=0.2),
)


@pytest.fixture(scope="module")
def f7_results():
    out = {}
    scripts = {}
    for p in P_LIST:
        scripts[p] = build_script(WL, p)
        for model in MODELS:
            out[(model, p)] = run_program(model, ADAPT_PROGRAMS[model], p, scripts[p])
    rows = []
    series = {}
    for model in MODELS:
        base = out[(model, 1)].elapsed_ms
        for p in P_LIST:
            t = out[(model, p)].elapsed_ms
            rows.append([model, p, t, base / t])
            series.setdefault(model, []).append((p, base / t))
    table = format_table(
        ["model", "P", "time_ms", "speedup"],
        rows,
        title=f"R-F7: 3-D adaptive app ({scripts[P_LIST[-1]].phases[-1].nels} final tets)",
    )
    chart = ascii_chart(series, title="R-F7 speedup", xlabel="processors", ylabel="speedup")
    emit("f7_adapt3d", table + "\n\n" + chart)
    return out, scripts


def test_f7_correctness(f7_results):
    out, scripts = f7_results
    for (model, p), res in out.items():
        assert res.rank_results[0] == pytest.approx(
            scripts[p].reference_checksum, abs=1e-9
        )


def test_f7_shape(f7_results):
    out, _ = f7_results
    t1 = [out[(m, 1)].elapsed_ms for m in MODELS]
    assert max(t1) / min(t1) < 1.10  # models agree at P=1
    for model in MODELS:
        assert out[(model, 8)].elapsed_ms < out[(model, 1)].elapsed_ms  # scales
    # one-sided communication leads at scale, as in 2-D
    assert out[("shmem", 16)].elapsed_ms < out[("mpi", 16)].elapsed_ms
    assert out[("shmem", 16)].elapsed_ms < out[("sas", 16)].elapsed_ms


def test_f7_benchmark(benchmark, f7_results):
    _, scripts = f7_results
    benchmark.pedantic(
        lambda: run_program("shmem", ADAPT_PROGRAMS["shmem"], 8, scripts[8]),
        rounds=2,
        iterations=1,
    )
