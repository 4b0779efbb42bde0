"""Tests for the partitioning substrate: graph, RCB, spectral, multilevel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import structured_mesh, delaunay_mesh
from repro.partition import (
    Graph,
    PARTITIONERS,
    edge_cut,
    imbalance,
    mesh_dual_graph,
    multilevel,
    partition_summary,
    rcb,
    spectral,
)
from repro.partition.metrics import part_weights
from repro.partition.multilevel import (
    _BALANCE_TOL,
    coarsen_graph,
    fm_refine,
    heavy_edge_matching,
)


def path_graph(n: int) -> Graph:
    adj = {v: sorted({u for u in (v - 1, v + 1) if 0 <= u < n}) for v in range(n)}
    coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return Graph.from_adjacency(adj, coords=coords)


class TestGraph:
    def test_csr_validation(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2]), np.array([1]))  # inconsistent
        with pytest.raises(ValueError):
            Graph(np.array([0, 1, 0]), np.array([0]))  # decreasing

    def test_basic_queries(self):
        g = path_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2
        assert list(g.neighbors(2)) == [1, 3]
        assert g.total_weight() == 5.0

    def test_subgraph(self):
        g = path_graph(6)
        sub, orig = g.subgraph(np.array([1, 2, 3]))
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # 1-2, 2-3 survive; 0-1 and 3-4 cut
        assert list(orig) == [1, 2, 3]

    def test_mesh_dual_graph_coords(self):
        m = structured_mesh(3)
        g, tids = mesh_dual_graph(m)
        assert g.num_vertices == m.num_triangles
        assert g.coords.shape == (len(tids), 2)
        assert np.all((g.coords >= 0) & (g.coords <= 1))

    def test_mesh_dual_graph_weights(self):
        m = structured_mesh(2)
        tids = m.alive_tris()
        g, order = mesh_dual_graph(m, weights={tids[0]: 5.0})
        assert g.vwgt[order.index(tids[0])] == 5.0


class TestMetrics:
    def test_edge_cut_path(self):
        g = path_graph(4)
        part = np.array([0, 0, 1, 1])
        assert edge_cut(g, part) == 1.0

    def test_imbalance_perfect_and_skewed(self):
        g = path_graph(4)
        assert imbalance(g, np.array([0, 0, 1, 1]), 2) == 1.0
        assert imbalance(g, np.array([0, 0, 0, 1]), 2) == 1.5

    def test_part_weights(self):
        g = path_graph(5)
        w = part_weights(g, np.array([0, 1, 1, 2, 2]), 3)
        assert list(w) == [1.0, 2.0, 2.0]

    def test_summary(self):
        g = path_graph(8)
        s = partition_summary(g, rcb(g, 2), 2)
        assert s.nparts == 2
        assert s.edge_cut == 1.0
        assert s.imbalance == 1.0


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
class TestAllPartitioners:
    @pytest.mark.parametrize("nparts", (1, 2, 3, 4, 7, 8))
    def test_valid_partition(self, name, nparts):
        m = structured_mesh(6)
        g, _ = mesh_dual_graph(m)
        part = PARTITIONERS[name](g, nparts)
        assert len(part) == g.num_vertices
        assert set(np.unique(part)) == set(range(nparts))
        assert imbalance(g, part, nparts) < 1.35

    def test_nparts_one_trivial(self, name):
        g = path_graph(10)
        assert np.all(PARTITIONERS[name](g, 1) == 0)

    def test_bad_nparts(self, name):
        g = path_graph(4)
        with pytest.raises(ValueError):
            PARTITIONERS[name](g, 0)

    def test_fractional_nparts_rejected(self, name):
        g, _ = mesh_dual_graph(structured_mesh(4))
        with pytest.raises(ValueError, match=r"nparts must be an integer >= 1, got 2\.5"):
            PARTITIONERS[name](g, 2.5)

    def test_deterministic(self, name):
        m = delaunay_mesh(60, seed=2)
        g, _ = mesh_dual_graph(m)
        p1 = PARTITIONERS[name](g, 4)
        p2 = PARTITIONERS[name](g, 4)
        assert np.array_equal(p1, p2)


class TestRcb:
    def test_requires_coords(self):
        g = Graph.from_adjacency({0: [1], 1: [0]})
        with pytest.raises(ValueError, match="coordinates"):
            rcb(g, 2)

    def test_splits_along_long_axis(self):
        g = path_graph(16)  # all on a horizontal line
        part = rcb(g, 2)
        # left half one part, right half the other
        assert len(set(part[:8])) == 1 and len(set(part[8:])) == 1
        assert part[0] != part[-1]

    def test_weighted_median(self):
        adj = {v: [] for v in range(4)}
        coords = np.column_stack([np.arange(4.0), np.zeros(4)])
        g = Graph.from_adjacency(adj, vwgt=np.array([10.0, 1.0, 1.0, 1.0]), coords=coords)
        part = rcb(g, 2)
        # the heavy vertex should sit alone-ish: balance by weight not count
        w = part_weights(g, part, 2)
        assert max(w) <= 10.0


class TestSpectral:
    def test_cut_quality_on_grid(self):
        m = structured_mesh(6)
        g, _ = mesh_dual_graph(m)
        cut = edge_cut(g, spectral(g, 2))
        # a 6x6 grid dual bisects with cut ~ O(side); anything < 20 is sane
        assert cut <= 20

    def test_disconnected_graph_handled(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        coords = np.array([[0.0, 0], [1, 0], [10, 0], [11, 0]])
        g = Graph.from_adjacency(adj, coords=coords)
        part = spectral(g, 2)
        assert set(np.unique(part)) == {0, 1}


class TestMultilevelInternals:
    def test_matching_is_symmetric(self):
        m = structured_mesh(4)
        g, _ = mesh_dual_graph(m)
        match = heavy_edge_matching(g, seed=1)
        for v, u in enumerate(match):
            assert match[u] == v

    def test_coarsening_preserves_weight(self):
        m = structured_mesh(4)
        g, _ = mesh_dual_graph(m)
        coarse, cmap = coarsen_graph(g, heavy_edge_matching(g))
        assert coarse.total_weight() == g.total_weight()
        assert coarse.num_vertices < g.num_vertices
        assert len(cmap) == g.num_vertices

    def test_fm_improves_or_keeps_cut(self):
        m = structured_mesh(6)
        g, _ = mesh_dual_graph(m)
        rng = np.random.default_rng(0)
        part = rng.integers(0, 2, g.num_vertices)
        before = edge_cut(g, part)
        half = g.total_weight() / 2
        fm_refine(g, part, (half, half))
        assert edge_cut(g, part) <= before

    def test_multilevel_beats_random(self):
        m = delaunay_mesh(150, seed=5)
        g, _ = mesh_dual_graph(m)
        rng = np.random.default_rng(1)
        random_cut = edge_cut(g, rng.integers(0, 4, g.num_vertices), )
        ml_cut = edge_cut(g, multilevel(g, 4))
        assert ml_cut < random_cut / 2


@settings(max_examples=15, deadline=None)
@given(
    side=st.integers(min_value=3, max_value=8),
    nparts=st.integers(min_value=2, max_value=6),
)
def test_property_partitions_cover_and_balance(side, nparts):
    """Invariant: every partitioner labels every vertex, uses every part,
    and stays within a loose balance bound."""
    m = structured_mesh(side)
    g, _ = mesh_dual_graph(m)
    for fn in PARTITIONERS.values():
        part = fn(g, nparts)
        assert len(part) == g.num_vertices
        assert set(np.unique(part)) == set(range(nparts))
        assert imbalance(g, part, nparts) <= 1.5


# -- properties over random connected graphs with float weights ---------------

_WEIGHT = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def weighted_graphs(draw, max_n: int = 40) -> Graph:
    """A connected graph: a random spanning tree plus random chords, with
    non-integer vertex weights, symmetric edge weights and coordinates."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = sorted({(min(a, b), max(a, b)) for a, b in tree + chords if a != b})
    ewgt = draw(st.lists(_WEIGHT, min_size=len(edges), max_size=len(edges)))
    rows = [[] for _ in range(n)]
    for (a, b), w in zip(edges, ewgt):
        rows[a].append((b, w))
        rows[b].append((a, w))
    xadj = np.cumsum([0] + [len(r) for r in rows])
    entries = [e for r in rows for e in sorted(r)]
    return Graph(
        xadj,
        [u for u, _ in entries],
        vwgt=draw(st.lists(_WEIGHT, min_size=n, max_size=n)),
        ewgt=[w for _, w in entries],
        coords=np.column_stack([np.arange(n, dtype=float), np.zeros(n)]),
    )


def _close_le(a: float, b: float) -> bool:
    """``a <= b`` up to float summation-order rounding."""
    return a <= b + 1e-9 * max(1.0, abs(b))


@settings(max_examples=60, deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_property_fm_never_raises_cut_or_breaks_balance(graph, data):
    n = graph.num_vertices
    part = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    frac = data.draw(st.floats(min_value=0.2, max_value=0.8))
    total = graph.total_weight()
    targets = (frac * total, (1 - frac) * total)
    limits = [t * _BALANCE_TOL for t in targets]
    before_cut = edge_cut(graph, part)
    before_w = part_weights(graph, part, 2)
    out = fm_refine(graph, part, targets)
    assert out is part
    assert _close_le(edge_cut(graph, part), before_cut)
    after_w = part_weights(graph, part, 2)
    for side in (0, 1):
        if before_w[side] <= limits[side]:
            assert _close_le(after_w[side], limits[side])


@settings(max_examples=60, deadline=None)
@given(graph=weighted_graphs(), seed=st.integers(0, 2**16))
def test_property_matching_is_a_maximal_involution_on_edges(graph, seed):
    match = heavy_edge_matching(graph, seed=seed)
    assert np.array_equal(match[match], np.arange(graph.num_vertices))
    for v, u in enumerate(match):
        if u != v:
            assert u in graph.neighbors(v)
        else:  # maximal: an unmatched vertex has no unmatched neighbour
            assert all(match[x] != x for x in graph.neighbors(v))


@settings(max_examples=60, deadline=None)
@given(graph=weighted_graphs(), seed=st.integers(0, 2**16))
def test_property_coarsening_preserves_weights(graph, seed):
    match = heavy_edge_matching(graph, seed=seed)
    coarse, cmap = coarsen_graph(graph, match)
    assert np.array_equal(cmap[match], cmap)  # a pair shares its coarse vertex
    assert coarse.num_vertices == len(np.unique(cmap)) == cmap.max() + 1
    assert coarse.total_weight() == pytest.approx(graph.total_weight(), rel=1e-12)
    uncontracted = graph.ewgt[cmap[graph.sources()] != cmap[graph.adjncy]].sum()
    assert coarse.ewgt.sum() == pytest.approx(uncontracted, rel=1e-12)
    for cv in range(coarse.num_vertices):  # rows ascend, no self loops
        nbrs = coarse.neighbors(cv)
        assert np.all(np.diff(nbrs) > 0) and cv not in nbrs


@settings(max_examples=60, deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_property_subgraph_equals_brute_force(graph, data):
    n = graph.num_vertices
    keep = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    sub, orig = graph.subgraph(np.asarray(keep, dtype=np.int64))
    pos = {v: i for i, v in enumerate(keep)}
    rows = [
        [(pos[int(u)], w) for u, w in zip(graph.neighbors(v), graph.neighbor_weights(v)) if int(u) in pos]
        for v in keep
    ]
    assert list(orig) == keep
    assert list(sub.xadj) == list(np.cumsum([0] + [len(r) for r in rows]))
    assert list(sub.adjncy) == [u for r in rows for u, _ in r]
    assert list(sub.ewgt) == [w for r in rows for _, w in r]
    assert list(sub.vwgt) == [graph.vwgt[v] for v in keep]
    assert sub.coords.tolist() == [graph.coords[v].tolist() for v in keep]
