import pytest
from hypothesis import given, settings, strategies as st

from hamdec.core import (ClusterCycle, ClusterPartition, Digraph, Multigraph,
                         OrderedDirectedMatching, PathSequence,
                         cycle_to_perfect_matchings, is_consistent_with,
                         is_locally_balanced, verify_hamilton_cycle,
                         winds_around)
from hamdec.errors import MalformedInput


def small_partition():
    # 3 clusters of 4 on 0..11
    return ClusterPartition.equipartition([[0, 1, 2, 3], [4, 5, 6, 7],
                                           [8, 9, 10, 11]])


class TestMultigraph:
    def test_sum_multiplicity(self):
        g = Multigraph(2, [(0, 1)])
        h = Multigraph(2, [(0, 1)])
        assert g + h == Multigraph(2, [(0, 1, 2)])

    def test_sum_minus_roundtrip_disjoint_support(self):
        g = Multigraph(4, [(0, 1), (2, 3)])
        h = Multigraph(4, [(0, 2)])
        assert (g + h) - h == g

    def test_minus_multiplicity_arithmetic(self):
        g = Multigraph(2, [(0, 1, 2)])
        h = Multigraph(2, [(0, 1)])
        assert g - h == Multigraph(2, [(0, 1)])

    def test_minus_never_below_zero(self):
        g = Multigraph(2, [(0, 1)])
        h = Multigraph(2, [(0, 1, 5)])
        assert (g - h).edge_count() == 0

    def test_no_loops(self):
        with pytest.raises(MalformedInput):
            Multigraph(3, [(1, 1)])

    def test_path_system_detection(self):
        assert Multigraph(5, [(0, 1), (1, 2), (3, 4)]).is_path_system()
        assert not Multigraph(3, [(0, 1), (1, 2), (0, 2)]).is_path_system()
        # doubled edge is a 2-cycle, not a path
        assert not Multigraph(2, [(0, 1, 2)]).is_path_system()

    def test_paths_decomposition(self):
        g = Multigraph(6, [(0, 1), (1, 2), (4, 5)])
        assert sorted(g.paths()) == [[0, 1, 2], [4, 5]]

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_edge_count_additive(self, pairs):
        edges = [(u, v) for (u, v) in pairs if u != v]
        g = Multigraph(8, edges[: len(edges) // 2])
        h = Multigraph(8, edges[len(edges) // 2:])
        assert (g + h).edge_count() == g.edge_count() + h.edge_count()
        assert (g - h).edge_count() >= g.edge_count() - h.edge_count()


class TestDigraph:
    def test_one_arc_per_direction(self):
        with pytest.raises(MalformedInput):
            Digraph(3, [(0, 1), (0, 1)])
        d = Digraph(3, [(0, 1), (1, 0)])
        assert len(d.arcs()) == 2

    def test_path_sequence(self):
        assert Digraph(4, [(0, 1), (1, 2)]).is_path_sequence()
        assert not Digraph(3, [(0, 1), (1, 2), (2, 0)]).is_path_sequence()
        assert Digraph(4, []).is_path_sequence()

    def test_directed_paths(self):
        d = Digraph(5, [(0, 1), (1, 2), (3, 4)])
        assert d.directed_paths() == [[0, 1, 2], [3, 4]]


class TestPathSequence:
    @pytest.mark.parametrize("arcs,message", [
        ([(0, 1), (2, 2)], "loop at 2"),
        ([(0, 4)], r"arc \(0,4\) outside 0..3"),
        ([(-1, 0)], r"arc \(-1,0\) outside 0..3"),
        # a dict would keep only the second arc out of vertex 0
        ([(0, 1), (0, 2)], r"a second arc \(0,2\) out of 0"),
    ], ids=["loop", "end-above-n", "end-below-0", "second-out-arc"])
    def test_from_arcs_rejects(self, arcs, message):
        with pytest.raises(MalformedInput, match=message):
            PathSequence.from_arcs(4, arcs)

    def test_arcs_sorted_by_tail(self):
        ps = PathSequence.from_arcs(6, [(4, 5), (0, 1), (2, 3), (1, 2)])
        assert ps.arcs() == [(0, 1), (1, 2), (2, 3), (4, 5)]
        assert ps.paths() == [[0, 1, 2, 3], [4, 5]]
        assert ps.vertices_with_arcs() == set(range(6))

    def test_paths_reject_a_shared_head_and_a_cycle(self):
        with pytest.raises(MalformedInput, match="not a path sequence"):
            PathSequence.from_arcs(3, [(0, 2), (1, 2)]).paths()
        with pytest.raises(MalformedInput, match="not a path sequence"):
            PathSequence.from_arcs(5, [(3, 4), (0, 1), (1, 2), (2, 0)]
                                   ).paths()


class TestVerifyHamiltonCycle:
    def test_triangle(self):
        g = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
        assert verify_hamilton_cycle(g, {0, 1, 2})

    def test_two_disjoint_triangles(self):
        g = Multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not verify_hamilton_cycle(g, set(range(6)))

    def test_c5_plus_chord(self):
        g = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        assert not verify_hamilton_cycle(g, set(range(5)))

    def test_directed_versions(self):
        assert verify_hamilton_cycle(Digraph(3, [(0, 1), (1, 2), (2, 0)]),
                                     {0, 1, 2})
        two = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not verify_hamilton_cycle(two, set(range(6)))

    def test_restriction_ignores_outside_edges(self):
        g = Multigraph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert verify_hamilton_cycle(g, {0, 1, 2})

    def test_degree_two_all_vertices(self):
        # every vertex of a verified cycle has degree exactly 2
        g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert verify_hamilton_cycle(g, set(range(4)))
        for v in range(4):
            assert g.degree(v) == 2


class TestWindsAround:
    def test_winds(self):
        qp = small_partition()
        cyc = ClusterCycle((0, 1, 2))
        d = Digraph(12, [(0, 4), (5, 8)])
        assert winds_around(d, qp, cyc)
        assert winds_around(PathSequence.from_arcs(12, d.arcs()), qp, cyc)

    def test_arc_inside_cluster(self):
        qp = small_partition()
        cyc = ClusterCycle((0, 1, 2))
        assert not winds_around(Digraph(12, [(0, 1)]), qp, cyc)

    def test_wrong_direction(self):
        qp = small_partition()
        cyc = ClusterCycle((0, 1, 2))
        assert not winds_around(Digraph(12, [(4, 0)]), qp, cyc)

    def test_vertex_outside_clusters(self):
        qp = ClusterPartition.two_cliques([12], [[0, 1], [2, 3]], [13],
                                          [[4, 5], [6, 7]], 0.5)
        with pytest.raises(MalformedInput):
            winds_around(Digraph(14, [(12, 0)]), qp, ClusterCycle((0, 1)))


class TestLocallyBalanced:
    def test_empty(self):
        qp = small_partition()
        assert is_locally_balanced(Digraph(12, []), qp, ClusterCycle((0, 1, 2)))

    def test_inner_arc_plus_skip_arc(self):
        # arc inside V_1 plus arc V_0 -> V_2 balance each other
        qp = small_partition()
        cyc = ClusterCycle((0, 1, 2))
        d = Digraph(12, [(4, 5), (0, 8)])
        assert is_locally_balanced(d, qp, cyc)

    def test_single_winding_arc_is_balanced(self):
        # a single arc u -> v with u in V_0, v in V_1 balances: edge
        # (V_0,V_1) has one start and one end, every other edge zero
        qp = small_partition()
        cyc = ClusterCycle((0, 1, 2))
        assert is_locally_balanced(Digraph(12, [(0, 4)]), qp, cyc)

    def test_unbalanced(self):
        qp = small_partition()
        cyc = ClusterCycle((0, 1, 2))
        # arc inside V_1 alone: edge (V_0,V_1) has 0 starts but 1 end
        assert not is_locally_balanced(Digraph(12, [(4, 5)]), qp, cyc)

    def test_rotation_invariance(self):
        qp = small_partition()
        d = Digraph(12, [(4, 5), (0, 8)])
        for r in range(3):
            order = tuple((i + r) % 3 for i in range(3))
            assert is_locally_balanced(d, qp, ClusterCycle(order))


class TestConsistency:
    def cycle(self, verts):
        n = max(verts) + 1
        return Digraph(n, [(verts[i], verts[(i + 1) % len(verts)])
                           for i in range(len(verts))])

    def test_contained_in_order(self):
        c = self.cycle([0, 1, 2, 3])
        m = OrderedDirectedMatching(((0, 1), (2, 3)))
        assert is_consistent_with(c, m)

    def test_cyclic_rotation_ok(self):
        c = self.cycle([0, 1, 2, 3])
        m = OrderedDirectedMatching(((2, 3), (0, 1)))
        assert is_consistent_with(c, m)

    def test_wrong_order_rejected(self):
        c = self.cycle([0, 1, 2, 3, 4, 5])
        m = OrderedDirectedMatching(((0, 1), (4, 5), (2, 3)))
        assert not is_consistent_with(c, m)

    def test_missing_arc_rejected(self):
        c = self.cycle([0, 1, 2, 3])
        assert not is_consistent_with(c, OrderedDirectedMatching(((0, 2),)))

    def test_non_cycle_raises(self):
        d = Digraph(4, [(0, 1), (1, 2)])
        with pytest.raises(MalformedInput):
            is_consistent_with(d, OrderedDirectedMatching(((0, 1),)))

    def test_non_cycle_raises_with_empty_matching(self):
        d = Digraph(4, [(0, 1), (1, 2)])
        with pytest.raises(MalformedInput):
            is_consistent_with(d, OrderedDirectedMatching(()))

    @given(st.integers(5, 9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rotations_of_two_arcs_always_consistent(self, n, data):
        # two vertex-disjoint arcs of a cycle are consistent in either order
        c = self.cycle(list(range(n)))
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(
            lambda x: x not in {(i - 1) % n, i, (i + 1) % n}))
        m = OrderedDirectedMatching((((i, (i + 1) % n)),
                                     ((j, (j + 1) % n))))
        assert is_consistent_with(c, m)


class TestPartition:
    def test_cluster_lookup(self):
        qp = ClusterPartition.two_cliques(
            [8], [[0, 1], [2, 3]], [9], [[4, 5], [6, 7]], 0.5)
        assert qp.cluster_index(0) == 0
        assert qp.cluster_index(4) == 2  # B_0 is cluster index K+0
        assert qp.cluster_index(8) == -1
        assert qp.cluster_index(9) == -2
        assert qp.A_prime == [8, 0, 1, 2, 3]

    def test_exceptional_budget_enforced(self):
        with pytest.raises(MalformedInput):
            ClusterPartition.two_cliques(
                [8], [[0, 1], [2, 3]], [9], [[4, 5], [6, 7]], 0.01)

    def test_unequal_clusters_rejected(self):
        with pytest.raises(MalformedInput):
            ClusterPartition.equipartition([[0, 1], [2]])

    def test_json_roundtrip(self):
        qp = ClusterPartition.bipartite(
            [8], [[0, 1], [2, 3]], [9], [[4, 5], [6, 7]], 0.5)
        back = ClusterPartition.from_json_obj(qp.to_json_obj())
        assert back.clusters == qp.clusters and back.mode == qp.mode


class TestWindingFactorProperty:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_one_factor_winding_gives_pair_matchings(self, seed):
        # a 1-factor winding around C restricts to a perfect matching on
        # every consecutive cluster pair
        import random as _random
        rng = _random.Random(seed)
        k, m = 4, 5
        qp = ClusterPartition.equipartition(
            [list(range(i * m, (i + 1) * m)) for i in range(k)])
        cyc = ClusterCycle(tuple(range(k)))
        arcs = []
        for i in range(k):
            perm = list(qp.cluster((i + 1) % k))
            rng.shuffle(perm)
            arcs += list(zip(qp.cluster(i), perm))
        f = Digraph(k * m, arcs)
        assert winds_around(f, qp, cyc)
        for i in range(k):
            tails = set(qp.cluster(i))
            heads = set(qp.cluster((i + 1) % k))
            pair = [(u, v) for (u, v) in f.arcs()
                    if u in tails and v in heads]
            assert len(pair) == m
            assert len({u for u, _ in pair}) == m
            assert len({v for _, v in pair}) == m


class TestCycleToMatchings:
    def test_even_cycle_splits(self):
        g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        m1, m2 = cycle_to_perfect_matchings(g, set(range(4)))
        assert m1.is_matching() and m2.is_matching()
        assert m1 + m2 == g

    def test_odd_cycle_rejected(self):
        g = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(MalformedInput):
            cycle_to_perfect_matchings(g, {0, 1, 2})
