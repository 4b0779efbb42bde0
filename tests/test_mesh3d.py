"""Tests for the tetrahedral (3-D) adaptation engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.adapt3d import adapt_phase3d
from repro.mesh.coarsen3d import coarsen3d
from repro.mesh.generator3d import structured_tet_mesh
from repro.mesh.mesh3d import TetMesh, edge_key3
from repro.mesh.quality3d import tet_aspects, tet_quality, tet_volumes
from repro.mesh.refine3d import (
    classify_marks3d,
    close_marks3d,
    dissolve_green_families3d,
    hanging_edge_marks3d,
    refine3d,
    refine_cascade3d,
)
from repro.workloads.shock3d import MovingShock3D, SphericalBlast


class TestTetMesh:
    def test_kuhn_mesh_counts_and_volume(self):
        m = structured_tet_mesh(2)
        assert m.num_tets == 6 * 8
        assert m.num_vertices == 27
        m.validate()
        assert tet_volumes(m).sum() == pytest.approx(1.0)

    def test_anisotropic_box(self):
        m = structured_tet_mesh(2, 1, 1)
        assert m.num_tets == 12
        m.validate()

    def test_bad_mesh_rejected(self):
        with pytest.raises(ValueError):
            TetMesh(np.zeros((4, 3)), [(0, 1, 2, 2)])
        with pytest.raises(ValueError):
            TetMesh(np.zeros((3, 3)), [(0, 1, 2, 3)])
        with pytest.raises(ValueError):
            structured_tet_mesh(0)

    def test_faces_shared_by_at_most_two(self):
        m = structured_tet_mesh(2)
        for f, ts in m.faces().items():
            assert 1 <= len(ts) <= 2

    def test_edge_table_is_cached_until_a_mutation(self):
        def brute(m):
            table = {}
            for tid in m.alive_tets():
                for e in m.tet_edges(tid):
                    table.setdefault(e, []).append(tid)
            return table

        m = structured_tet_mesh(2)
        first = m.edges()
        assert m.edges() is first and first == brute(m)
        m.midpoint(next(iter(first)))  # a new vertex changes no edge
        assert m.edges() is first
        for mutate in (lambda: m.kill(5), lambda: m.revive(5),
                       lambda: m.add_tet(0, 1, 3, 9)):
            before = m.edges()
            mutate()
            after = m.edges()
            assert after is not before and after == brute(m)
            assert list(after) == list(brute(m))  # first-use order, too

    def test_validate_names_the_first_degenerate_tet(self):
        def volume(p0, p1, p2, p3):  # the one-tet-at-a-time formula
            return float(np.linalg.det(np.asarray([p1, p2, p3]) - np.asarray(p0))) / 6.0

        verts = np.asarray([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                            [2, 2, 3e-18], [0.5, 0.5, 1e-17], [3, 0, 0]], dtype=float)
        tets = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (1, 6, 2, 3), (1, 2, 4, 0)]
        m = TetMesh(verts, tets)
        m.kill(0)  # the faces check counts only alive tets
        m.kill(1)  # a dead degenerate tet is never reported
        first = 2
        vol = volume(*verts[list(tets[first])])
        assert abs(vol) < 1e-16
        with pytest.raises(AssertionError) as err:
            m.validate()
        assert str(err.value) == f"tet {first} degenerate (volume {vol})"
        m.kill(first)
        with pytest.raises(AssertionError) as err:
            m.validate()
        vol = volume(*verts[list(tets[4])])
        assert str(err.value) == f"tet 4 degenerate (volume {vol})"

    def test_edges_and_midpoints(self):
        m = structured_tet_mesh(1)
        e = next(iter(m.edges()))
        v1 = m.midpoint(e)
        assert m.midpoint(e) == v1
        p = m.vert(v1)
        pa, pb = m.vert(e[0]), m.vert(e[1])
        assert p == tuple((a + b) / 2 for a, b in zip(pa, pb))


class TestClassification:
    TET = (0, 1, 2, 3)

    def test_none_and_red(self):
        assert classify_marks3d(self.TET, set())[0] == "none"
        all6 = set(
            edge_key3(a, b) for a in self.TET for b in self.TET if a < b
        )
        assert classify_marks3d(self.TET, all6)[0] == "red"

    def test_single_edge_is_green2(self):
        kind, e = classify_marks3d(self.TET, {(0, 1)})
        assert kind == "green2" and e == (0, 1)

    def test_two_coplanar_is_green3(self):
        kind, detail = classify_marks3d(self.TET, {(0, 1), (1, 2)})
        assert kind == "green3"
        assert detail[2] == 1  # the shared vertex

    def test_two_opposite_promotes(self):
        assert classify_marks3d(self.TET, {(0, 1), (2, 3)})[0] == "promote"

    def test_face_is_green4(self):
        kind, face = classify_marks3d(self.TET, {(0, 1), (1, 2), (0, 2)})
        assert kind == "green4" and face == (0, 1, 2)

    def test_three_noncoplanar_promotes(self):
        assert classify_marks3d(self.TET, {(0, 1), (0, 2), (0, 3)})[0] == "promote"

    def test_four_promotes(self):
        assert (
            classify_marks3d(self.TET, {(0, 1), (1, 2), (0, 2), (0, 3)})[0]
            == "promote"
        )


class TestRefine3D:
    def test_full_red_subdivision(self):
        m = structured_tet_mesh(1)
        before = m.num_tets
        rep = refine3d(m, close_marks3d(m, set(m.edges())))
        m.validate()
        assert rep.refined_1to8 == before
        assert m.num_tets == 8 * before
        assert tet_volumes(m).sum() == pytest.approx(1.0)

    def test_midpoint_table_packs_the_memoised_midpoints(self):
        from repro.mesh.mesh2d import unpack_edge_keys

        m = structured_tet_mesh(1)
        refine3d(m, close_marks3d(m, set(m.edges())))
        keys, mids = m.midpoint_table()
        assert (keys[1:] > keys[:-1]).all()
        lo, hi = unpack_edge_keys(keys)
        assert dict(zip(zip(lo.tolist(), hi.tolist()), mids.tolist())) == m.edge_midpoint

    def test_red_children_bounded_quality(self):
        m = structured_tet_mesh(1)
        base = tet_aspects(m).max()
        for _ in range(3):  # repeated red refinement must not degrade
            refine3d(m, close_marks3d(m, set(m.edges())))
            m.validate()
            assert tet_aspects(m).max() <= base * 1.5 + 1e-9

    def test_single_mark_green(self):
        m = structured_tet_mesh(1)
        e = next(iter(m.edges()))
        rep = refine3d(m, close_marks3d(m, {e}))
        m.validate()
        assert rep.refined_1to2 >= 1
        assert rep.refined_1to8 == 0
        assert tet_volumes(m).sum() == pytest.approx(1.0)

    def test_unsupported_pattern_rejected(self):
        m = structured_tet_mesh(1)
        tid = m.alive_tets()[0]
        a, b, c, d = m.tet_verts(tid)
        with pytest.raises(ValueError, match="close_marks3d"):
            refine3d(m, {edge_key3(a, b), edge_key3(c, d)})

    def test_closure_localises_refinement(self):
        """The full green set keeps a band refinement from going global."""
        m = structured_tet_mesh(3)
        verts = m.verts_array()
        marks = set()
        for e in m.edges():
            mx = (verts[e[0]][0] + verts[e[1]][0]) / 2
            if abs(mx - 0.5) < 0.05:
                marks.add(e)
        closed = close_marks3d(m, marks)
        rep = refine3d(m, closed)
        m.validate()
        # some tets far from the band must remain untouched
        untouched = sum(
            1
            for t in m.alive_tets()
            if m.level[t] == 0
            and abs(verts[list(m.tet_verts(t))][:, 0].mean() - 0.5) > 0.3
        )
        assert untouched > 0
        assert rep.refined < 6 * 27  # not the whole mesh

    def test_dissolve_greens(self):
        m = structured_tet_mesh(1)
        e = next(iter(m.edges()))
        refine3d(m, close_marks3d(m, {e}))
        dissolved = dissolve_green_families3d(m)
        assert len(dissolved) >= 1
        assert not m.green
        m.validate()

    def test_cascade_handles_multilevel(self):
        m = structured_tet_mesh(2)
        for front in (0.3, 0.4, 0.5):
            verts = m.verts_array()
            marks = set()
            for e, ts in m.edges().items():
                if all(m.level[t] >= 2 for t in ts):
                    continue
                mx = (verts[e[0]][0] + verts[e[1]][0]) / 2
                if abs(mx - front) < 0.08:
                    marks.add(e)
            dissolve_green_families3d(m)
            marks |= hanging_edge_marks3d(m)
            refine_cascade3d(m, marks)
            m.validate()
            assert tet_volumes(m).sum() == pytest.approx(1.0)


class TestCoarsen3D:
    def test_full_coarsen_restores(self):
        m = structured_tet_mesh(1)
        refine3d(m, close_marks3d(m, set(m.edges())))
        rep = coarsen3d(m, set(m.alive_tets()))
        assert rep.families_merged == 6
        assert m.num_tets == 6
        m.validate()

    def test_partial_blocked_conformity(self):
        m = structured_tet_mesh(2)
        refine3d(m, close_marks3d(m, set(m.edges())))
        verts = m.verts_array()
        cands = {
            t
            for t in m.alive_tets()
            if verts[list(m.tet_verts(t))][:, 0].mean() < 0.5
        }
        coarsen3d(m, cands)
        m.validate()

    def test_greens_not_coarsened(self):
        m = structured_tet_mesh(1)
        e = next(iter(m.edges()))
        refine3d(m, close_marks3d(m, {e}))
        rep = coarsen3d(m, set(m.alive_tets()))
        assert rep.families_merged == 0


class TestAdaptPhase3D:
    def test_planar_shock_full_cycle(self):
        shock = MovingShock3D(x0=0.1, speed=0.12, band=0.05, coarsen_distance=0.16)
        m = structured_tet_mesh(4)
        aspects = []
        merged_any = False
        for phase in range(7):
            rep = adapt_phase3d(
                m,
                lambda mesh, k=phase: shock.marks(mesh, k),
                lambda mesh, k=phase: shock.coarsen_candidates(mesh, k),
                validate=True,
            )
            merged_any = merged_any or rep.families_merged > 0
            q = tet_quality(m)
            aspects.append(q.worst_aspect)
            assert q.total_volume == pytest.approx(1.0)
        assert merged_any  # the wake actually coarsens
        # red-green discipline: quality bounded across the whole run
        assert max(aspects) == pytest.approx(aspects[-1], rel=1.0)
        assert max(aspects) < 30.0

    def test_spherical_blast(self):
        blast = SphericalBlast(r0=0.15, speed=0.12, band=0.06)
        m = structured_tet_mesh(3)
        grew = False
        for phase in range(3):
            rep = adapt_phase3d(
                m,
                lambda mesh, k=phase: blast.marks(mesh, k),
                lambda mesh, k=phase: blast.coarsen_candidates(mesh, k),
                validate=True,
            )
            grew = grew or rep.refinement.refined > 0
        assert grew
        assert tet_volumes(m).sum() == pytest.approx(1.0)

    @settings(max_examples=10, deadline=None)
    @given(
        fronts=st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3),
        n=st.integers(2, 3),
    )
    def test_property_always_conforming(self, fronts, n):
        """Any sequence of 3-D band adaptations keeps the mesh valid and
        volume-preserving."""
        m = structured_tet_mesh(n)
        for f in fronts:
            shock = MovingShock3D(x0=f, speed=0.0, band=0.07, max_level=1)
            adapt_phase3d(
                m,
                lambda mesh: shock.marks(mesh, 0),
                lambda mesh: shock.coarsen_candidates(mesh, 0),
                validate=True,
            )
            assert tet_volumes(m).sum() == pytest.approx(1.0)


class TestTetMeshIO:
    def test_roundtrip(self, tmp_path):
        from repro.mesh.io import load_tet_mesh, save_tet_mesh

        m = structured_tet_mesh(2)
        refine3d(m, close_marks3d(m, set(list(m.edges())[:6])))
        path = tmp_path / "tets.npz"
        save_tet_mesh(m, str(path))
        m2 = load_tet_mesh(str(path))
        m2.validate()
        assert m2.num_tets == m.num_tets
        assert tet_volumes(m2).sum() == pytest.approx(tet_volumes(m).sum())
