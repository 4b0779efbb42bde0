"""Tests for the PLUM load balancer: policy, remap, costs, orchestration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import close_marks, distance_band_marks, refine, structured_mesh
from repro.mesh.adapt import adapt_phase
from repro.plum import (
    ImbalancePolicy,
    PlumBalancer,
    reassign_greedy,
    reassign_optimal,
    remap_cost,
    similarity_matrix,
)
from repro.plum.balancer import inherit_ownership
from repro.plum.remap import apply_assignment


class TestPolicy:
    def test_imbalance_math(self):
        assert ImbalancePolicy.imbalance([1, 1, 1, 1]) == 1.0
        assert ImbalancePolicy.imbalance([2, 1, 1, 0]) == 2.0
        assert ImbalancePolicy.imbalance([]) == 1.0
        assert ImbalancePolicy.imbalance([0, 0]) == 1.0

    def test_threshold_gate(self):
        pol = ImbalancePolicy(1.25)
        assert not pol.should_rebalance([1.2, 1.0, 1.0, 1.0])
        assert pol.should_rebalance([2.0, 1.0, 1.0, 1.0])

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            ImbalancePolicy(0.9)


class TestSimilarityAndReassignment:
    def test_similarity_matrix(self):
        S = similarity_matrix([0, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1], 2)
        assert S[0, 1] == 2 and S[1, 0] == 1 and S[1, 1] == 1 and S[0, 0] == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            similarity_matrix([0], [0, 1], [1, 1], 2)

    def test_greedy_keeps_obvious_diagonal(self):
        # new part 0 is mostly old proc 1's data and vice versa
        S = np.array([[1.0, 9.0], [8.0, 2.0]])
        assign = reassign_greedy(S)
        assert list(assign) == [1, 0]

    def test_optimal_matches_greedy_on_easy_case(self):
        S = np.diag([5.0, 7.0, 3.0])
        assert list(reassign_greedy(S)) == [0, 1, 2]
        assert list(reassign_optimal(S)) == [0, 1, 2]

    def test_optimal_at_least_as_good(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            S = rng.uniform(0, 10, (6, 6))
            g = S[reassign_greedy(S), np.arange(6)].sum()
            o = S[reassign_optimal(S), np.arange(6)].sum()
            assert o >= g - 1e-9

    def test_assignment_is_permutation(self):
        rng = np.random.default_rng(5)
        S = rng.uniform(0, 1, (8, 8))
        for fn in (reassign_greedy, reassign_optimal):
            assign = fn(S)
            assert sorted(assign) == list(range(8))

    def test_apply_assignment(self):
        part = np.array([0, 1, 2, 0])
        assign = np.array([2, 0, 1])
        assert list(apply_assignment(part, assign)) == [2, 0, 1, 2]


class TestRemapCost:
    def test_no_movement_zero_cost(self):
        c = remap_cost([0, 1, 1], [0, 1, 1], [1, 1, 1], 2)
        assert c.total_v == 0 and c.max_v == 0 and c.max_sr == 0

    def test_simple_move(self):
        c = remap_cost([0, 0, 1], [1, 0, 1], [2.0, 1.0, 1.0], 2)
        assert c.total_v == 2.0
        assert c.max_v == 2.0
        assert c.max_sr == 1  # proc 0 sends to one partner; proc 1 receives from one
        assert c.moved_elements == 1

    def test_max_sr_counts_partners(self):
        # proc 0 scatters to 3 different processors
        c = remap_cost([0, 0, 0], [1, 2, 3], [1, 1, 1], 4)
        assert c.max_sr == 3

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        nparts=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_property_reassignment_never_hurts(self, n, nparts, seed):
        """Invariants: optimal reassignment moves no more weight than taking
        the new partition's labels at face value, and greedy retains at
        least half of what optimal retains (the greedy-matching bound)."""
        rng = np.random.default_rng(seed)
        cur = rng.integers(0, nparts, n)
        new = rng.integers(0, nparts, n)
        w = rng.uniform(0.5, 2.0, n)
        S = similarity_matrix(cur, new, w, nparts)
        naive = remap_cost(cur, new, w, nparts).total_v
        opt = apply_assignment(new, reassign_optimal(S))
        assert remap_cost(cur, opt, w, nparts).total_v <= naive + 1e-9
        retained_opt = S[reassign_optimal(S), np.arange(nparts)].sum()
        retained_greedy = S[reassign_greedy(S), np.arange(nparts)].sum()
        assert retained_greedy >= retained_opt / 2 - 1e-9


class TestBalancer:
    def adapted_mesh(self):
        m = structured_mesh(6)
        refine(
            m,
            close_marks(m, distance_band_marks(m, lambda x, y: x - 0.3, 0.1)),
        )
        return m

    def test_initial_partition_covers_alive(self):
        m = self.adapted_mesh()
        bal = PlumBalancer(nparts=4)
        owner = bal.initial_partition(m)
        assert set(owner) == set(m.alive_tris())
        assert set(owner.values()) == set(range(4))

    def test_rebalance_reduces_imbalance(self):
        m = structured_mesh(6)
        bal = PlumBalancer(nparts=4, policy=ImbalancePolicy(1.1))
        owner = bal.initial_partition(m)
        refine(m, close_marks(m, distance_band_marks(m, lambda x, y: x - 0.2, 0.1)))
        owner = inherit_ownership(m, owner)
        res = bal.rebalance(m, owner)
        assert res.rebalanced
        assert res.imbalance_after < res.imbalance_before
        assert res.cost is not None
        assert set(res.owner) == set(m.alive_tris())

    def test_below_threshold_no_rebalance(self):
        m = structured_mesh(6)
        bal = PlumBalancer(nparts=4, policy=ImbalancePolicy(5.0))
        owner = bal.initial_partition(m)
        res = bal.rebalance(m, owner)
        assert not res.rebalanced
        assert res.owner == owner

    def test_force_rebalances_anyway(self):
        m = structured_mesh(6)
        bal = PlumBalancer(nparts=4, policy=ImbalancePolicy(5.0))
        owner = bal.initial_partition(m)
        res = bal.rebalance(m, owner, force=True)
        assert res.rebalanced

    def test_missing_owner_detected(self):
        m = structured_mesh(4)
        bal = PlumBalancer(nparts=2)
        with pytest.raises(KeyError):
            bal.rebalance(m, {})

    def test_bad_args(self):
        with pytest.raises(ValueError):
            PlumBalancer(nparts=0)
        with pytest.raises(ValueError):
            PlumBalancer(nparts=2, reassigner="magic")

    def test_fractional_nparts_rejected(self):
        with pytest.raises(ValueError, match=r"nparts must be an integer >= 1, got 2\.5"):
            PlumBalancer(2.5)

    def test_negative_owner_rejected(self):
        """An owner of -1 is refused, not counted on the last processor."""
        m = structured_mesh(4)
        bal = PlumBalancer(nparts=4)
        owner = bal.initial_partition(m)
        tid = sorted(owner)[3]
        owner[tid] = -1
        msg = rf"element {tid} has owner -1, outside processors \[0, 4\)"
        with pytest.raises(ValueError, match=msg):
            bal.loads(owner)
        with pytest.raises(ValueError, match=msg):
            bal.rebalance(m, owner, force=True)
        assert bal.history == []

    def test_owner_past_nparts_rejected(self):
        m = structured_mesh(4)
        bal = PlumBalancer(nparts=4)
        owner = bal.initial_partition(m)
        tid = sorted(owner)[0]
        owner[tid] = 7
        with pytest.raises(ValueError, match=rf"element {tid} has owner 7, outside"):
            bal.rebalance(m, owner, force=True)

    def test_loads_sum_weights_in_element_order(self):
        bal = PlumBalancer(nparts=3)
        owner = {5: 1, 2: 0, 9: 1, 4: 1}
        weights = {5: 0.1, 9: 0.2, 4: 0.7}
        expected = [1.0, (0.1 + 0.2) + 0.7, 0.0]
        assert bal.loads(owner, weights).tolist() == expected
        assert bal.loads(owner).tolist() == [1.0, 3.0, 0.0]

    def test_inherit_ownership_through_adaptation(self):
        m = structured_mesh(6)
        bal = PlumBalancer(nparts=3)
        owner = bal.initial_partition(m)
        for phase in range(4):
            xf = 0.2 + 0.2 * phase
            adapt_phase(
                m,
                lambda mesh, f=xf: distance_band_marks(mesh, lambda x, y: x - f, 0.06, max_level=2),
                lambda mesh, f=xf: {
                    t
                    for t in mesh.alive_tris()
                    if abs(mesh.verts_array()[list(mesh.tri_verts(t))][:, 0].mean() - f) > 0.25
                },
            )
            owner = inherit_ownership(m, owner)
            assert set(owner) == set(m.alive_tris())
            owner = bal.rebalance(m, owner).owner

    def test_history_recorded(self):
        m = structured_mesh(4)
        bal = PlumBalancer(nparts=2)
        owner = bal.initial_partition(m)
        bal.rebalance(m, owner)
        bal.rebalance(m, owner, force=True)
        assert len(bal.history) == 2
