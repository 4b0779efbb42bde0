"""R-T3: programming effort — lines of code per model per application.

Expected shape: the shared-address-space versions need the least code for
the *adaptive* application (no pack/unpack, no explicit migration, no
staging buffers); message passing needs the most.  For the regular jacobi
app the three are close — effort, like performance, diverges with
adaptivity.
"""

import pytest

from conftest import emit
from repro.harness import count_loc, effort_table
from repro.harness.tables import format_dict_table


@pytest.fixture(scope="module")
def t3_rows():
    rows = effort_table()
    table = format_dict_table(
        rows, keys=["app", "mpi", "shmem", "sas"],
        title="R-T3: programming effort (logical lines of code)",
    )
    emit("t3_effort", table)
    return rows


def test_t3_shape(t3_rows):
    by_app = {r["app"]: r for r in t3_rows}
    adapt = by_app["adapt"]
    # every implementation is substantial, none is a stub
    for app in by_app.values():
        for model in ("mpi", "shmem", "sas"):
            assert app[model] > 20
    # for the adaptive app, explicit-communication models need more code
    # than the tuned SAS version's core (SAS here includes its reordering
    # optimisation, yet stays below the MPI line count)
    assert adapt["sas"] <= adapt["mpi"] * 1.15
    assert adapt["mpi"] > by_app["jacobi"]["mpi"]  # adaptivity costs code


def test_t3_benchmark(benchmark):
    import inspect
    from pathlib import Path

    from repro.apps.adapt import ADAPT_PROGRAMS
    from repro.apps.jacobi import JACOBI_PROGRAMS
    from repro.apps.jacobi.hybrid_app import jacobi_hybrid
    from repro.apps.nbody import NBODY_PROGRAMS

    apps = Path(__file__).resolve().parent.parent / "src" / "repro" / "apps"
    files = sorted(apps.rglob("*_app.py"))
    # every registered program's source, plus R-F6's hybrid jacobi (which
    # no registry holds)
    programs = [
        *ADAPT_PROGRAMS.values(), *JACOBI_PROGRAMS.values(), *NBODY_PROGRAMS.values(),
        jacobi_hybrid,
    ]
    expected = {Path(inspect.getsourcefile(p)).resolve() for p in programs}
    assert {f.resolve() for f in files} == expected
    benchmark(lambda: [count_loc(f) for f in files])
