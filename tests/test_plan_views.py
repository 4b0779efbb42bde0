"""Per-rank pair-table views and the per-plan memo of :class:`PhasePlan`.

Every rank of every adapt program reads its own entries of the phase's
pair tables through ``plan.pairs_of`` and the models' shared layouts
through ``plan.once``; both are built once per plan and shared.
"""

import dataclasses

import pytest

from repro.apps.adapt import AdaptConfig, build_script
from repro.apps.adapt.sas_app import _layout
from repro.apps.adapt.shmem_app import _slot_layout
from repro.apps.adapt3d import Adapt3DConfig

TABLES = ("ghost_sends", "boundary_marks", "migration_elems", "migration_verts",
          "coarsen_transfers")


@pytest.fixture(scope="module", params=["2d-p64", "3d-p8"])
def script(request):
    if request.param == "2d-p64":
        # the smallest 2-D trajectory with all four pair tables non-empty
        return build_script(AdaptConfig(mesh_n=8, phases=3, solver_iters=2), 64)
    return build_script(Adapt3DConfig(mesh_n=2, phases=3, solver_iters=2), 8)


def test_pairs_of_is_the_rank_filter_of_each_table(script):
    nprocs = script.nprocs
    for plan in script.phases:
        for table in TABLES:
            entries = getattr(plan, table)
            for r in range(nprocs):
                view = plan.pairs_of(table, r)
                expected = [(k, v) for k, v in entries.items() if r in k]
                assert [k for k, _ in view] == [k for k, _ in expected]
                assert all(a is b for (_, a), (_, b) in zip(view, expected))


def test_tables_used_by_the_programs_are_populated():
    plan = build_script(AdaptConfig(mesh_n=8, phases=3, solver_iters=2), 64).phases[-1]
    for table in ("ghost_sends", "boundary_marks", "migration_elems", "coarsen_transfers"):
        assert getattr(plan, table)


def test_once_shares_results_per_argument(script):
    plan = script.phases[-1]
    cap = script.max_nverts
    a = plan.once(_layout, cap, 16, True)
    assert plan.once(_layout, cap, 16, True) is a
    b = plan.once(_layout, cap, 8, True)  # a different line size
    assert b is not a
    assert plan.once(_slot_layout, "ghost_sends") is plan.once(_slot_layout, "ghost_sends")
    assert plan.pairs_of("ghost_sends", 0) is plan.pairs_of("ghost_sends", 0)


def test_memoised_arrays_reject_writes(script):
    plan = script.phases[-1]
    slots, _ = plan.once(_layout, script.max_nverts, 16, True)
    with pytest.raises(ValueError):
        slots[0] = 1
    for _, ids in plan.pairs_of("ghost_sends", 0):
        assert not ids.flags.writeable


def test_memo_is_not_a_dataclass_field(script):
    plan = script.phases[0]
    names = [f.name for f in dataclasses.fields(plan)]
    plan.pairs_of("ghost_sends", 0)
    assert [f.name for f in dataclasses.fields(plan)] == names
    assert "_once" not in names and "_once" in vars(plan)
