"""Integration tests for the three applications under all three models.

The central correctness claim: every model implementation produces the
*bit-identical* solution checksum of the sequential reference, at every
processor count — communication and synchronisation differ, numerics don't.
"""

import numpy as np
import pytest

from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
from repro.apps.jacobi import JACOBI_PROGRAMS, JacobiConfig
from repro.apps.jacobi import reference_checksum as jacobi_ref
from repro.apps.nbody import NBODY_PROGRAMS, NBodyConfig
from repro.apps.nbody.common import cost_ranges, reference_checksum as nbody_ref
from repro.apps.nbody.tree import QuadTree
from repro.machine import Machine, MachineConfig
from repro.models.registry import run_program
from repro.workloads.plummer import plummer_bodies
from tests.reference import assert_matches_recording

MODELS = ("mpi", "shmem", "sas")
ALL_MODELS = (*MODELS, "hybrid")

ADAPT_CFG = AdaptConfig(mesh_n=6, phases=3, solver_iters=4)
NBODY_CFG = NBodyConfig(n=128, steps=2)
JACOBI_CFG = JacobiConfig(nx=32, ny=32, iters=6)


@pytest.fixture(scope="module")
def adapt_scripts():
    return {n: build_script(ADAPT_CFG, n) for n in (1, 2, 3, 4, 8)}


class TestAdaptScript:
    def test_trajectory_grows_at_front(self, adapt_scripts):
        s = adapt_scripts[4]
        assert s.phases[-1].nels > s.phases[0].nels

    def test_ghost_lists_are_consistent(self, adapt_scripts):
        s = adapt_scripts[4]
        for plan in s.phases:
            owned = [set(r) for r in plan.rows]
            for (p, q), ids in plan.ghost_sends.items():
                assert p != q
                assert set(ids) <= owned[p]  # senders own what they send

    def test_rows_partition_vertices(self, adapt_scripts):
        s = adapt_scripts[4]
        for plan in s.phases:
            seen = set()
            for r in plan.rows:
                assert not (seen & set(r))
                seen.update(r)

    def test_migration_only_when_rebalanced(self, adapt_scripts):
        s = adapt_scripts[4]
        for plan in s.phases:
            if not plan.rebalanced and plan.index > 0:
                assert not plan.migration_elems

    def test_imbalance_controlled(self, adapt_scripts):
        s = adapt_scripts[8]
        for before, after in s.imbalance_trace:
            assert after <= max(before, ADAPT_CFG.imbalance_threshold) + 1e-9

    def test_script_deterministic(self):
        a = build_script(ADAPT_CFG, 3)
        b = build_script(ADAPT_CFG, 3)
        assert a.reference_checksum == b.reference_checksum
        assert a.phases[-1].nels == b.phases[-1].nels


class TestAdaptCrossModel:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("nprocs", (1, 2, 3, 4, 8))
    def test_checksum_matches_reference(self, adapt_scripts, model, nprocs):
        script = adapt_scripts[nprocs]
        res = run_program(model, ADAPT_PROGRAMS[model], nprocs, script)
        for rank in range(nprocs):
            assert res.rank_results[rank] == pytest.approx(
                script.reference_checksum, abs=1e-9
            )

    @pytest.mark.parametrize("nprocs", (8, 64))
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_timeline_matches_recording(self, model, nprocs):
        """A trajectory using all four pair tables replays ``tests/golden/timelines.json``."""
        assert_matches_recording(f"adapt-coarsen/{model}/{nprocs}")

    def test_shmem_cheaper_than_mpi_comm(self, adapt_scripts):
        script = adapt_scripts[4]
        mpi = run_program("mpi", ADAPT_PROGRAMS["mpi"], 4, script)
        shm = run_program("shmem", ADAPT_PROGRAMS["shmem"], 4, script)
        assert shm.stats.total("comm_ns") < mpi.stats.total("comm_ns")

    def test_sas_time_is_stall_not_comm(self, adapt_scripts):
        script = adapt_scripts[4]
        res = run_program("sas", ADAPT_PROGRAMS["sas"], 4, script)
        assert res.stats.total("stall_ns") > 0
        assert res.stats.total("msgs_sent") == 0

    def test_phase_timers_populated(self, adapt_scripts):
        script = adapt_scripts[2]
        res = run_program("mpi", ADAPT_PROGRAMS["mpi"], 2, script)
        assert {"adapt", "balance", "solve"} <= set(res.phase_ns)


class TestNBody:
    @staticmethod
    def _preorder(tree):
        """Nodes in quadrant-order pre-order, children renumbered to match.

        Node ids are allocation order, which follows insertion order; the
        region structure and the sums do not, so compare in this numbering.
        """
        order, stack = [], [0]
        while stack:
            node = stack.pop()
            order.append(node)
            if tree.children[node] is not None:
                stack.extend(reversed(tree.children[node]))
        rank = {node: k for k, node in enumerate(order)}
        children = [
            None if tree.children[n] is None else [rank[c] for c in tree.children[n]]
            for n in order
        ]
        bodies = [sorted(tree.bodies[n]) for n in order]
        sums = [(tree.mass[n], tree.comx[n], tree.comy[n]) for n in order]
        return children, bodies, sums

    def test_tree_canonical_under_permutation(self):
        pos, _, mass = plummer_bodies(64, seed=2)
        # triples of coincident bodies fill depth-capped leaves, where the
        # summation order of a leaf's bodies decides the rounding
        pos = np.vstack([pos, np.repeat(pos[:2], 3, axis=0)])
        mass = np.concatenate([mass, np.random.default_rng(9).uniform(0.001, 0.1, 6)])
        ref = QuadTree()
        ref.build(pos, mass)
        for seed in range(3):
            shuffled = QuadTree()
            shuffled.pos, shuffled.m = pos, mass
            for i in np.random.default_rng(seed).permutation(len(pos)).tolist():
                shuffled.insert(i, float(pos[i, 0]), float(pos[i, 1]))
            shuffled.finalize()
            assert shuffled.num_nodes == ref.num_nodes
            # == on lists of Python floats is bit equality (no NaNs here)
            assert self._preorder(shuffled) == self._preorder(ref)
            for i in range(len(pos)):
                assert shuffled.accel(i) == ref.accel(i)

    def test_replicated_hit_matches_fresh_build(self):
        pos, _, mass = plummer_bodies(96, seed=4)
        first, nodes = QuadTree.replicated(pos, mass)
        hit, hit_nodes = QuadTree.replicated(pos.copy(), mass.copy())
        assert hit is first
        fresh = QuadTree()
        assert fresh.build(pos, mass) == hit_nodes == nodes
        for i in range(len(pos)):
            seen_hit, seen_fresh = set(), set()
            assert hit.accel(i, visited=seen_hit) == fresh.accel(i, visited=seen_fresh)
            assert seen_hit == seen_fresh

    def test_replicated_tree_ignores_later_writes_to_caller_arrays(self):
        pos, _, mass = plummer_bodies(96, seed=5)
        original = pos.copy()
        tree, _ = QuadTree.replicated(pos, mass)
        before = [tree.accel(i) for i in range(len(pos))]
        pos[:] = pos[::-1]
        mass *= 2.0
        assert np.array_equal(tree.pos, original)
        assert [tree.accel(i) for i in range(len(pos))] == before
        assert QuadTree.replicated(pos, mass)[0] is not tree

    def test_replicated_one_ulp_change_misses(self):
        pos, _, mass = plummer_bodies(96, seed=6)
        tree, _ = QuadTree.replicated(pos, mass)
        bumped = pos.copy()
        bumped[17, 0] = np.nextafter(bumped[17, 0], 1.0)
        other, _ = QuadTree.replicated(bumped, mass)
        assert other is not tree
        assert other.pos[17, 0] == bumped[17, 0] != tree.pos[17, 0]

    @pytest.mark.parametrize("model", MODELS)
    def test_one_host_build_per_step(self, model, monkeypatch):
        """Every rank is charged for the tree, but the host builds it once."""
        cfg = NBodyConfig(n=64, steps=2)
        calls = []
        build = QuadTree.build

        def spy(tree, pos, mass):
            calls.append(len(pos))
            return build(tree, pos, mass)

        monkeypatch.setattr(QuadTree, "build", spy)
        res = run_program(model, NBODY_PROGRAMS[model], 8, cfg)
        assert len(calls) <= cfg.steps
        assert res.rank_results[0] == pytest.approx(nbody_ref(cfg), abs=1e-9)

    def test_tree_accel_matches_direct_sum_at_theta_zero(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0.2, 0.8, (20, 2))
        mass = np.full(20, 1.0 / 20)
        tree = QuadTree()
        tree.build(pos, mass)
        ax, ay, _ = tree.accel(0, theta=0.0, eps=1e-3)
        # direct sum
        dx = pos[1:, 0] - pos[0, 0]
        dy = pos[1:, 1] - pos[0, 1]
        r2 = dx * dx + dy * dy + 1e-6
        w = mass[1:] / (r2 * np.sqrt(r2))
        assert ax == pytest.approx(float((w * dx).sum()), rel=1e-9)
        assert ay == pytest.approx(float((w * dy).sum()), rel=1e-9)

    def test_coincident_bodies_do_not_hang(self):
        pos = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        mass = np.ones(3)
        tree = QuadTree()
        tree.build(pos, mass)
        ax, ay, _ = tree.accel(0)
        assert np.isfinite(ax) and np.isfinite(ay)

    def test_cost_ranges_cover(self):
        costs = np.array([10.0, 1, 1, 1, 1, 1, 1, 10])
        ranges = cost_ranges(costs, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == 8
        for (l1, h1), (l2, h2) in zip(ranges, ranges[1:]):
            assert h1 == l2

    def test_cost_ranges_balance_cost(self):
        costs = np.concatenate([np.full(10, 100.0), np.full(90, 1.0)])
        ranges = cost_ranges(costs, 2)
        # the heavy head should not all land on rank 0 together with the tail
        assert ranges[0][1] < 50

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("nprocs", (1, 3, 4))
    def test_checksum_matches_reference(self, model, nprocs):
        ref = nbody_ref(NBODY_CFG)
        res = run_program(model, NBODY_PROGRAMS[model], nprocs, NBODY_CFG)
        assert res.rank_results[0] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("nprocs", (8, 64))
    @pytest.mark.parametrize("model", MODELS)
    def test_timeline_matches_recording(self, model, nprocs):
        """Simulated time, stats and results equal ``tests/golden/timelines.json``."""
        assert_matches_recording(f"nbody-{model}/{nprocs}")

    def test_initial_bodies_shared_per_run_as_copies(self):
        """One build per run: each caller gets equal copies it may write into."""
        from repro.apps.nbody import common

        initial_bodies = common.initial_bodies
        cfg = NBodyConfig(n=64, steps=1, seed=3)
        machine = Machine(MachineConfig(nprocs=4))
        fresh = initial_bodies(cfg)
        first = initial_bodies(cfg, machine)
        for got, want in zip(first, fresh):
            assert got.tobytes() == want.tobytes()
        for arr in first:
            arr[...] = -1.0
        second = initial_bodies(cfg, machine)
        for got, want in zip(second, fresh):
            assert got.tobytes() == want.tobytes()
        assert common._last_bodies[0]() is machine
        # a different run, or a different config, builds again
        other = initial_bodies(cfg, Machine(MachineConfig(nprocs=4)))
        assert common._last_bodies[0]() is not machine
        assert other[0].tobytes() == fresh[0].tobytes()
        uniform_cfg = NBodyConfig(n=64, steps=1, seed=3, distribution="uniform")
        uniform = initial_bodies(uniform_cfg, machine)
        assert uniform[0].tobytes() != fresh[0].tobytes()

    def test_plummer_cost_imbalanced_without_costzones(self):
        """Central bodies cost more — the adaptivity the app must handle."""
        cfg = NBodyConfig(n=256, steps=1)
        from repro.apps.nbody.common import initial_bodies, step_bodies

        pos, vel, mass = initial_bodies(cfg)
        _, _, counts, _, _ = step_bodies(cfg, pos, vel, mass, 0, cfg.n)
        assert counts.max() > 1.3 * counts.mean()
        r = np.hypot(pos[:, 0] - 0.5, pos[:, 1] - 0.5)
        assert counts[r < 0.1].mean() > 1.5 * counts[r > 0.3].mean()


class TestJacobi:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("nprocs", (1, 2, 4, 5, 8))
    def test_checksum_matches_reference(self, model, nprocs):
        ref = jacobi_ref(JACOBI_CFG)
        res = run_program(model, JACOBI_PROGRAMS[model], nprocs, JACOBI_CFG)
        assert res.rank_results[0] == pytest.approx(ref, abs=1e-9)

    def test_models_closer_on_regular_than_adaptive(self, adapt_scripts):
        """R-F5's point: the model gap opens on the adaptive app."""
        jac = {
            m: run_program(m, JACOBI_PROGRAMS[m], 8, JacobiConfig(nx=96, ny=96, iters=10)).elapsed_ns
            for m in ("mpi", "shmem")
        }
        script = adapt_scripts[8]
        ada = {
            m: run_program(m, ADAPT_PROGRAMS[m], 8, script).elapsed_ns
            for m in ("mpi", "shmem")
        }
        gap_regular = max(jac.values()) / min(jac.values())
        gap_adaptive = max(ada.values()) / min(ada.values())
        assert gap_adaptive > gap_regular


class TestAdapt3D:
    """The 3-D application: same model programs, tetrahedral trajectory."""

    @pytest.fixture(scope="class")
    def script3d(self):
        from repro.apps.adapt3d import Adapt3DConfig, build_script3d
        from repro.workloads.shock3d import MovingShock3D

        cfg = Adapt3DConfig(
            mesh_n=2,
            phases=3,
            solver_iters=4,
            shock=MovingShock3D(x0=0.25, speed=0.25, band=0.13, coarsen_distance=0.3),
        )
        return {n: build_script3d(cfg, n) for n in (1, 2, 4, 8)}

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("nprocs", (1, 2, 4, 8))
    def test_checksum_matches_reference(self, script3d, model, nprocs):
        script = script3d[nprocs]
        res = run_program(model, ADAPT_PROGRAMS[model], nprocs, script)
        for rank in range(nprocs):
            assert res.rank_results[rank] == pytest.approx(
                script.reference_checksum, abs=1e-9
            )

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_timeline_matches_recording(self, model):
        """The default 3-D run at P=8 replays ``tests/golden/timelines.json``."""
        assert_matches_recording(f"adapt3d/{model}/8")

    def test_trajectory_is_tetrahedral_scale(self, script3d):
        s = script3d[4]
        assert s.phases[0].nels == 6 * 8  # Kuhn start
        assert s.phases[-1].nels > s.phases[0].nels

    def test_harness_runs_adapt3d(self):
        from repro.harness import run_app

        res = run_app("adapt3d", "shmem", 4)
        assert res.elapsed_ms > 0


class TestScript3DInvariants:
    """Trajectory invariants for the 3-D builder (mirrors TestAdaptScript)."""

    @pytest.fixture(scope="class")
    def s3(self):
        from repro.apps.adapt3d import Adapt3DConfig, build_script3d
        from repro.workloads.shock3d import MovingShock3D

        cfg = Adapt3DConfig(
            mesh_n=3,
            phases=3,
            solver_iters=4,
            shock=MovingShock3D(x0=0.2, speed=0.18, band=0.07, coarsen_distance=0.22),
        )
        return build_script3d(cfg, 6)

    def test_ghost_senders_own_what_they_send(self, s3):
        for plan in s3.phases:
            owned = [set(r) for r in plan.rows]
            for (p, q), ids in plan.ghost_sends.items():
                assert p != q
                assert set(ids) <= owned[p]

    def test_rows_partition_vertices(self, s3):
        for plan in s3.phases:
            seen = set()
            for r in plan.rows:
                assert not (seen & set(r))
                seen.update(r)

    def test_migration_verts_cover_moved_elements(self, s3):
        """Every moved element's vertices travel with it."""
        # rebuild the meshes is overkill; check internal consistency instead:
        for plan in s3.phases:
            for pair, elems in plan.migration_elems.items():
                assert pair in plan.migration_verts
                # a cluster of tets shares vertices, but any non-empty move
                # carries at least one tet's worth of them
                assert len(plan.migration_verts[pair]) >= 4

    def test_interp_triples_ordered(self, s3):
        """Endpoints precede their midpoint (interpolation order safety)."""
        for plan in s3.phases:
            for mid, a, b in plan.interp_triples:
                assert a < mid and b < mid

    def test_imbalance_controlled(self, s3):
        for before, after in s3.imbalance_trace:
            assert after <= max(before, 1.25) + 1e-9
