"""Tests for the unstructured-mesh substrate: structure, refinement,
coarsening, adaptation invariants (with hypothesis), quality, IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    close_marks,
    coarsen,
    delaunay_mesh,
    distance_band_marks,
    dual_graph,
    gradient_indicator,
    mesh_quality,
    partition_boundary_edges,
    refine,
    structured_mesh,
    triangle_areas,
)
from repro.mesh.adapt import adapt_phase
from repro.mesh.error import mark_by_threshold
from repro.mesh.io import load_mesh, save_mesh
from repro.mesh.mesh2d import TriMesh, edge_key, unpack_edge_keys
from repro.mesh.refine import (
    dissolve_green_families,
    hanging_edge_marks,
    refine_cascade,
)


class TestTriMesh:
    def test_structured_counts(self):
        m = structured_mesh(4)
        assert m.num_triangles == 32
        assert m.num_vertices == 25
        m.validate()

    def test_rectangular_mesh(self):
        m = structured_mesh(4, 2, lx=2.0, ly=1.0)
        assert m.num_triangles == 16
        assert abs(triangle_areas(m).sum() - 2.0) < 1e-12

    def test_bad_mesh_rejected(self):
        with pytest.raises(ValueError):
            TriMesh(np.zeros((3, 2)), [(0, 1, 1)])  # degenerate
        with pytest.raises(ValueError):
            TriMesh(np.zeros((2, 2)), [(0, 1, 2)])  # missing vertex
        with pytest.raises(ValueError):
            structured_mesh(0)

    def test_edges_interior_and_boundary(self):
        m = structured_mesh(2)
        edges = m.edges()
        boundary = m.boundary_edges()
        assert all(len(ts) <= 2 for ts in edges.values())
        assert len(boundary) == 8  # 2 per side

    def test_edge_key_canonical(self):
        assert edge_key(5, 2) == (2, 5) == edge_key(2, 5)

    def test_midpoint_memoised(self):
        m = structured_mesh(2)
        e = next(iter(m.edges()))
        v1 = m.midpoint(e)
        v2 = m.midpoint(e)
        assert v1 == v2
        assert m.has_midpoint(e)

    def test_kill_revive_guards(self):
        m = structured_mesh(2)
        m.kill(0)
        with pytest.raises(ValueError):
            m.kill(0)
        m.revive(0)
        with pytest.raises(ValueError):
            m.revive(0)

    def test_delaunay_valid(self):
        m = delaunay_mesh(50, seed=3)
        m.validate()
        assert m.num_triangles > 50


def _brute_edge_table(mesh):
    """Edge table rebuilt the slow way: one dict pass over the alive triangles."""
    table = {}
    for tid in mesh.alive_tris():
        for e in mesh.tri_edges(tid):
            table.setdefault(e, []).append(tid)
    return table


def _assert_table_fresh(mesh):
    """The cached edge table equals a brute-force rebuild from the alive triangles."""
    table = mesh.edges()
    brute = _brute_edge_table(mesh)
    keys = sorted(brute)
    alive = mesh.alive_tris()
    assert table.tids.tolist() == alive
    assert table.verts.tolist() == [list(mesh.tri_verts(t)) for t in alive]
    assert list(zip(*(a.tolist() for a in unpack_edge_keys(table.key)))) == keys
    assert table.count.tolist() == [len(brute[e]) for e in keys]
    assert table.tris.tolist() == [(brute[e] + [-1])[:2] for e in keys]
    assert table.pos.tolist() == [
        [alive.index(t) if t >= 0 else -1 for t in (brute[e] + [-1])[:2]] for e in keys
    ]
    lo, hi = unpack_edge_keys(table.key[table.slots])
    assert np.stack([lo, hi], axis=-1).tolist() == [
        [list(e) for e in mesh.tri_edges(t)] for t in alive
    ]
    assert mesh.edges() == brute
    assert list(mesh.edges()) == list(brute)  # first-use order, too


class TestEdgeTable:
    def test_matches_brute_force(self):
        m = delaunay_mesh(40, seed=1)
        _assert_table_fresh(m)
        refine(m, close_marks(m, set(list(m.edges())[:7])))
        _assert_table_fresh(m)

    def test_mapping_view(self):
        m = structured_mesh(2)
        table = m.edges()
        assert len(table) == len(table.key) == 16
        a, b = next(iter(table))
        assert table[(a, b)] == [0]
        assert (b, a) not in table and (a, 10**6) not in table
        with pytest.raises(KeyError):
            table[(b, a)]

    def test_cached_until_mutation(self):
        m = structured_mesh(2)
        assert m.edges() is m.edges()

    @pytest.mark.parametrize("mutation", ["add_triangle", "kill", "revive", "add_vertex"])
    def test_every_mutation_invalidates(self, mutation):
        m = structured_mesh(2)
        if mutation == "revive":
            m.kill(3)
        before = m.edges()
        if mutation == "add_triangle":
            v = m.add_vertex(2.0, 2.0)
            m.edges()
            m.add_triangle(2, 5, v)
        elif mutation == "kill":
            m.kill(3)
        elif mutation == "revive":
            m.revive(3)
        else:
            m.add_vertex(0.3, 0.7)
        after = m.edges()
        assert after is not before, f"{mutation} left the edge table cached"
        _assert_table_fresh(m)
        assert len(after.used_vertices(m.num_vertices)) == m.num_vertices


def _conform(mesh, marks):
    """Refine ``marks`` and close every hanging node left behind."""
    refine_cascade(mesh, marks)
    for _ in range(16):
        extra = hanging_edge_marks(mesh)
        if not extra:
            return
        refine_cascade(mesh, extra)
    raise AssertionError("hanging-node closure did not converge")


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_property_random_adaptation_keeps_table_and_mesh_valid(n, data):
    """Random marks, cascades, green dissolves and coarsenings on a
    structured mesh: the cached edge table equals a brute-force rebuild
    after every step, red-green closure leaves each alive triangle with
    0, 1 or 3 marked edges, and the mesh validates after every refinement
    (dissolving greens and coarsening leave hanging nodes by design until
    the next refinement closes them, as in ``adapt_phase``)."""
    m = structured_mesh(n)
    phases = data.draw(st.integers(min_value=2, max_value=4), label="phases")
    for _ in range(phases):
        dissolve_green_families(m)
        _assert_table_fresh(m)
        # whole families, so merges happen; coarsen filters the rest
        parents = sorted(m.children)
        chosen = data.draw(
            st.sets(st.sampled_from(parents)) if parents else st.just(set()), label="coarsen"
        )
        coarsen(m, {c for p in chosen for c in m.children[p]})
        _assert_table_fresh(m)
        edges = sorted(m.edges())
        marks = data.draw(st.sets(st.sampled_from(edges), max_size=6), label="marks")
        marks |= hanging_edge_marks(m)
        closed = close_marks(m, marks)
        assert closed >= marks
        for t in m.alive_tris():
            assert sum(e in closed for e in m.tri_edges(t)) in (0, 1, 3)
        _assert_table_fresh(m)
        _conform(m, marks)
        m.validate()
        _assert_table_fresh(m)
        assert triangle_areas(m).sum() == pytest.approx(1.0)


class TestRefine:
    def test_full_refine_quadruples(self):
        m = structured_mesh(2)
        marks = close_marks(m, set(m.edges()))
        rep = refine(m, marks)
        assert rep.refined_1to4 == 8
        assert rep.refined_1to2 == 0
        assert m.num_triangles == 32
        m.validate()

    def test_single_mark_gives_green(self):
        m = structured_mesh(2)
        boundary = sorted(m.boundary_edges())
        marks = close_marks(m, {boundary[0]})
        rep = refine(m, marks)
        assert rep.refined_1to2 == 1
        assert rep.refined_1to4 == 0
        m.validate()

    def test_closure_eliminates_two_mark_triangles(self):
        m = structured_mesh(4)
        tid = m.alive_tris()[5]
        e1, e2, _ = m.tri_edges(tid)
        closed = close_marks(m, {e1, e2})
        for t in m.alive_tris():
            count = sum(1 for e in m.tri_edges(t) if e in closed)
            assert count in (0, 1, 3)

    def test_refine_rejects_unclosed(self):
        m = structured_mesh(2)
        tid = m.alive_tris()[0]
        e1, e2, _ = m.tri_edges(tid)
        with pytest.raises(ValueError, match="close_marks"):
            refine(m, {e1, e2})

    def test_area_preserved(self):
        m = structured_mesh(4)
        before = triangle_areas(m).sum()
        marks = close_marks(m, distance_band_marks(m, lambda x, y: x - 0.5, 0.1))
        refine(m, marks)
        assert triangle_areas(m).sum() == pytest.approx(before)

    def test_children_track_parent_and_level(self):
        m = structured_mesh(2)
        marks = close_marks(m, set(m.edges()))
        rep = refine(m, marks)
        for parent, kids in rep.families.items():
            for k in kids:
                assert m.parent[k] == parent
                assert m.level[k] == m.level[parent] + 1

    def test_dissolve_greens_restores_parents(self):
        m = structured_mesh(2)
        boundary = sorted(m.boundary_edges())
        rep = refine(m, close_marks(m, {boundary[0]}))
        assert len(m.green) == 1
        dissolved = dissolve_green_families(m)
        assert len(dissolved) == 1
        assert not m.green
        m.validate()

    def test_hanging_marks_found_after_dissolve(self):
        m = structured_mesh(2)
        # fully refine one triangle; its neighbours go green
        tid = m.alive_tris()[0]
        marks = close_marks(m, set(m.tri_edges(tid)))
        refine(m, marks)
        dissolve_green_families(m)
        hanging = hanging_edge_marks(m)
        assert hanging  # the formerly-green edges must be re-marked
        refine_cascade(m, hanging)
        m.validate()

    def test_cascade_handles_multilevel(self):
        """Marks landing on sub-edges of coarse triangles must cascade."""
        m = structured_mesh(4)
        for front in (0.25, 0.3, 0.35, 0.45):
            marks = distance_band_marks(m, lambda x, y, f=front: x - f, 0.07, max_level=3)
            marks |= hanging_edge_marks(m)
            dissolve_green_families(m)
            marks |= hanging_edge_marks(m)
            refine_cascade(m, marks)
            m.validate()


class TestCoarsen:
    def make_refined(self):
        m = structured_mesh(4)
        marks = close_marks(m, set(m.edges()))
        refine(m, marks)
        return m

    def test_full_coarsen_restores_original(self):
        m = self.make_refined()
        rep = coarsen(m, set(m.alive_tris()))
        assert rep.families_merged == 32
        assert m.num_triangles == 32
        m.validate()

    def test_partial_candidates_no_merge(self):
        m = self.make_refined()
        some = set(m.alive_tris()[:3])  # incomplete families
        rep = coarsen(m, some)
        assert rep.families_merged == 0

    def test_batch_conformity(self):
        """Coarsening respects neighbours that keep their refinement."""
        m = structured_mesh(4)
        refine(m, close_marks(m, set(m.edges())))
        # ask to coarsen only the left half
        verts = m.verts_array()
        cands = {
            t
            for t in m.alive_tris()
            if verts[list(m.tri_verts(t))][:, 0].mean() < 0.5
        }
        coarsen(m, cands)
        m.validate()

    def test_coarsen_then_area_preserved(self):
        m = self.make_refined()
        before = triangle_areas(m).sum()
        coarsen(m, set(m.alive_tris()))
        assert triangle_areas(m).sum() == pytest.approx(before)

    def test_green_families_not_coarsened_here(self):
        m = structured_mesh(2)
        boundary = sorted(m.boundary_edges())
        refine(m, close_marks(m, {boundary[0]}))
        rep = coarsen(m, set(m.alive_tris()))
        assert rep.families_merged == 0  # greens are dissolved, not coarsened


class TestAdaptPhase:
    def test_moving_front_bounded_quality(self):
        m = structured_mesh(8)
        angles_seen = []
        for phase in range(6):
            xf = 0.1 + 0.15 * phase

            def marker(mesh, f=xf):
                return distance_band_marks(mesh, lambda x, y: x - f, 0.05, max_level=3)

            def coarsener(mesh, f=xf):
                verts = mesh.verts_array()
                return {
                    t
                    for t in mesh.alive_tris()
                    if abs(verts[list(mesh.tri_verts(t))][:, 0].mean() - f) > 0.2
                }

            adapt_phase(m, marker, coarsener, validate=True)
            q = mesh_quality(m)
            angles_seen.append(q.min_angle_deg)
            assert q.total_area == pytest.approx(1.0)
        # red-green discipline: quality stabilises (greens never re-bisected),
        # so the worst angle stops degrading after the first green generation
        assert min(angles_seen) == pytest.approx(angles_seen[1], abs=1e-6) or min(
            angles_seen
        ) >= angles_seen[1] - 1e-6
        assert min(angles_seen) > 15.0  # bounded well away from degenerate

    def test_report_fields(self):
        m = structured_mesh(4)
        rep = adapt_phase(
            m, lambda mesh: distance_band_marks(mesh, lambda x, y: x - 0.5, 0.1)
        )
        assert rep.triangles_after > rep.triangles_before
        assert rep.refinement.refined > 0
        assert rep.growth > 1.0

    @settings(max_examples=20, deadline=None)
    @given(
        fronts=st.lists(
            st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=4
        ),
        n=st.integers(min_value=2, max_value=6),
    )
    def test_property_adaptation_always_conforming(self, fronts, n):
        """Invariant: any sequence of band adaptations keeps the mesh valid
        and area-preserving."""
        m = structured_mesh(n)
        for f in fronts:
            adapt_phase(
                m,
                lambda mesh, f=f: distance_band_marks(
                    mesh, lambda x, y: x - f, 0.08, max_level=2
                ),
                lambda mesh, f=f: {
                    t
                    for t in mesh.alive_tris()
                    if abs(
                        mesh.verts_array()[list(mesh.tri_verts(t))][:, 0].mean() - f
                    )
                    > 0.25
                },
                validate=True,
            )
            assert triangle_areas(m).sum() == pytest.approx(1.0)


class TestIndicators:
    def test_gradient_indicator_peaks_at_jump(self):
        m = structured_mesh(4)
        values = (m.verts_array()[:, 0] > 0.5).astype(float)
        errors = gradient_indicator(m, values)
        marked = mark_by_threshold(errors, 0.01)
        assert marked
        verts = m.verts_array()
        for a, b in marked:
            assert abs((verts[a][0] + verts[b][0]) / 2 - 0.5) < 0.3

    def test_gradient_indicator_size_check(self):
        m = structured_mesh(2)
        with pytest.raises(ValueError):
            gradient_indicator(m, np.zeros(3))

    def test_band_marks_respect_max_level(self):
        m = structured_mesh(2)
        for _ in range(3):
            marks = distance_band_marks(m, lambda x, y: x - 0.5, 0.3, max_level=1)
            if not marks:
                break
            refine(m, close_marks(m, marks))
        assert max(m.level[t] for t in m.alive_tris()) <= 2  # level-1 + greens

    def test_band_requires_positive(self):
        m = structured_mesh(2)
        with pytest.raises(ValueError):
            distance_band_marks(m, lambda x, y: x, 0.0)


class TestDualAndIO:
    def test_dual_graph_symmetry(self):
        m = structured_mesh(3)
        tids, adj = dual_graph(m)
        for t, neighbours in adj.items():
            for u in neighbours:
                assert t in adj[u]

    def test_partition_boundary_edges(self):
        m = structured_mesh(2)
        verts = m.verts_array()
        owner = {
            t: (0 if verts[list(m.tri_verts(t))][:, 0].mean() < 0.5 else 1)
            for t in m.alive_tris()
        }
        boundary = partition_boundary_edges(m, owner)
        assert (0, 1) in boundary
        assert len(boundary[(0, 1)]) >= 2

    def test_save_load_roundtrip(self, tmp_path):
        m = structured_mesh(3)
        refine(m, close_marks(m, set(list(m.edges())[:4])))
        path = tmp_path / "mesh.npz"
        save_mesh(m, str(path))
        m2 = load_mesh(str(path))
        m2.validate()
        assert m2.num_triangles == m.num_triangles
        assert triangle_areas(m2).sum() == pytest.approx(triangle_areas(m).sum())
