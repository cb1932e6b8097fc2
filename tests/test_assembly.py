import random

import pytest

from hamdec.assembly import (PairSpec, assemble_slice, extend_to_one_factors,
                             find_ordered_hamilton, merge_to_hamilton,
                             reorder_for_consistency)
from hamdec.core import (ClusterCycle, ClusterPartition, Digraph, Multigraph,
                         OrderedDirectedMatching, is_consistent_with,
                         verify_hamilton_cycle)
from hamdec.cyclic import CyclicSystem, reserve_regular
from hamdec.errors import (HamiltonSearchExhausted, MalformedInput)
from hamdec.extension import BalancedExtension


def blowup_system(k, m, missing=0.0, seed=0):
    """Complete winding blow-up of a k-cycle, optionally thinned."""
    n = k * m
    clusters = [list(range(i * m, (i + 1) * m)) for i in range(k)]
    qp = ClusterPartition.equipartition(clusters)
    cyc = ClusterCycle(tuple(range(k)))
    rng = random.Random(seed)
    arcs = [(u, v) for i in range(k) for u in clusters[i]
            for v in clusters[(i + 1) % k] if rng.random() >= missing]
    g = Digraph(n, arcs)
    return CyclicSystem(g, qp, cyc, mu=missing, eps=0.5), clusters


class TestExtendToOneFactors:
    def test_empty_sequences_give_winding_factors(self):
        system, clusters = blowup_system(4, 6)
        q = 5
        ps_list = [Digraph(24, []) for _ in range(q)]
        factors = extend_to_one_factors(system, ps_list)
        assert len(factors) == q
        used = set()
        for f in factors:
            for v in range(24):
                assert f.out_degree(v) == 1 and f.in_degree(v) == 1
            assert not (set(f._arcs) & used)
            used |= set(f._arcs)

    def test_path_containment(self):
        system, clusters = blowup_system(4, 6)
        # a path u -> v crossing from V_0 to V_1
        u, v = clusters[0][0], clusters[1][0]
        ps = Digraph(24, [(u, v)])
        (f,) = extend_to_one_factors(system, [ps])
        assert f.has_arc(u, v)
        for w in range(24):
            assert f.out_degree(w) == 1 and f.in_degree(w) == 1


class TestFindOrderedHamilton:
    def test_complete_digraph_with_waypoints(self):
        n = 8
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        cyc = find_ordered_hamilton(d, [3, 5, 1], rng=random.Random(0))
        assert verify_hamilton_cycle(cyc, set(range(n)))
        order = []
        cur = 3
        for _ in range(n):
            order.append(cur)
            cur = next(iter(cyc.out_neighbors(cur)))
        assert order.index(5) < order.index(1)

    def test_dense_random_no_waypoints(self):
        n = 30
        rng = random.Random(2)
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.75}
        d = Digraph(n, arcs)
        cyc = find_ordered_hamilton(d, [], rng=random.Random(3))
        assert verify_hamilton_cycle(cyc, set(range(n)))

    def test_path_has_no_hamilton_cycle(self):
        d = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(HamiltonSearchExhausted) as exc:
            find_ordered_hamilton(d, [], restarts=5, rng=random.Random(0))
        assert exc.value.restarts == 5

    def test_waypoint_fraction_guard(self):
        n = 10
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        with pytest.raises(MalformedInput):
            find_ordered_hamilton(d, [0, 1, 2, 3, 4, 5], rng=random.Random(0))


def cycle_digraph(verts, n):
    return Digraph(n, [(verts[i], verts[(i + 1) % len(verts)])
                       for i in range(len(verts))])


class TestMergeAndReorder:
    def build_two_cycle_factor(self):
        """k=2-ish structure on 12 vertices: two disjoint 6-cycles winding
        around clusters V_0 = 0..5, V_1 = 6..11."""
        f = Digraph(12, [(0, 6), (6, 1), (1, 7), (7, 2), (2, 8), (8, 0),
                         (3, 9), (9, 4), (4, 10), (10, 5), (5, 11), (11, 3)])
        return f

    def test_merge_two_cycles(self):
        f = self.build_two_cycle_factor()
        v1 = tuple(range(6))
        v2 = tuple(range(6, 12))
        reservoir = {(u, v) for u in v1 for v in v2}
        spec = PairSpec(cluster_index=0, v1=v1, v2=v2)
        unused = set(reservoir)
        merged, used = merge_to_hamilton(f, unused, [spec],
                                         rng=random.Random(1))
        assert verify_hamilton_cycle(merged, set(range(12)))
        assert used and all(a in reservoir for a in used)
        assert unused == reservoir - set(used)

    def test_identity_when_single_cycle(self):
        verts = list(range(8))
        f = cycle_digraph(verts, 8)
        merged, used = merge_to_hamilton(f, set(), [],
                                         rng=random.Random(1))
        assert merged == f and used == []

    def test_unreachable_cycle_reported(self):
        f = self.build_two_cycle_factor()
        # pair whose V^1 misses the second cycle entirely
        spec = PairSpec(cluster_index=0, v1=(0, 1, 2), v2=(6, 7, 8))
        reservoir = {(u, v) for u in (0, 1, 2) for v in (6, 7, 8)}
        with pytest.raises(MalformedInput):
            merge_to_hamilton(f, reservoir, [spec], rng=random.Random(1))

    def test_reorder_square_blowup(self):
        # 12-vertex blow-up of a 2-cluster cycle; 3 waypoints forced
        verts = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        cyc = cycle_digraph(verts, 12)
        v1 = tuple(range(6))
        v2 = tuple(range(6, 12))
        reservoir = {(u, v) for u in v1 for v in v2}
        spec = PairSpec(cluster_index=0, v1=v1, v2=v2)
        out, used = reorder_for_consistency(cyc, reservoir, spec, [0, 3, 1],
                                            rng=random.Random(4))
        assert verify_hamilton_cycle(out, set(range(12)))
        order = []
        cur = 0
        for _ in range(12):
            order.append(cur)
            cur = next(iter(out.out_neighbors(cur)))
        assert order.index(3) < order.index(1)

    def test_reorder_empty_waypoints_identity(self):
        verts = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        cyc = cycle_digraph(verts, 12)
        spec = PairSpec(cluster_index=0, v1=tuple(range(6)),
                        v2=tuple(range(6, 12)))
        out, used = reorder_for_consistency(cyc, set(), spec, [],
                                            rng=random.Random(4))
        assert out == cyc and used == []

    def test_reorder_waypoints_outside_v1(self):
        verts = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        cyc = cycle_digraph(verts, 12)
        spec = PairSpec(cluster_index=0, v1=tuple(range(6)),
                        v2=tuple(range(6, 12)))
        with pytest.raises(MalformedInput):
            reorder_for_consistency(cyc, set(), spec, [6, 0, 1],
                                    rng=random.Random(4))


class TestAssembleSlice:
    def test_full_slice(self):
        k, m = 5, 12
        n = k * m
        system, clusters = blowup_system(k, m)
        # carve a reservoir out of the system
        res_arcs = set()
        keep = set(system.g_dir._arcs)
        for i in range(k):
            und = Multigraph(n, [(u, v) for u in clusters[i]
                                 for v in clusters[(i + 1) % k]])
            h, _, _ = reserve_regular(und, clusters[i],
                                      clusters[(i + 1) % k], 6, 0.5,
                                      rng_seed=17)
            for (u, v) in h.support():
                a = (u, v) if u in set(clusters[i]) else (v, u)
                res_arcs.add(a)
                keep.discard(a)
        reservoir = Digraph(n, res_arcs)
        sys2 = CyclicSystem(Digraph(n, keep), system.q, system.cycle,
                            mu=0.4, eps=0.5)
        m0 = OrderedDirectedMatching(((0, 1), (2, 3)))
        ps0 = Digraph(n, [(0, 1), (2, 3), (48, 12), (49, 13)])
        m1 = OrderedDirectedMatching(())
        ps1 = Digraph(n, [])
        m2 = OrderedDirectedMatching(((24, 25), (26, 27), (28, 29)))
        ps2 = Digraph(n, [(24, 25), (26, 27), (28, 29),
                          (12, 36), (14, 37), (16, 38)])
        be = BalancedExtension([ps0, ps1, ps2], [m0, m1, m2], [0, 1, 2],
                               eps=0.5, ell=3)
        asm = assemble_slice(sys2, be, reservoir, seed=5)
        used_flat = set()
        for s, cyc in enumerate(asm.cycles):
            assert verify_hamilton_cycle(cyc, set(range(n)))
            assert is_consistent_with(cyc, be.matchings[s])
            assert set(be.path_sequences[s]._arcs) <= set(cyc._arcs)
            for a in asm.reservoir_usage[s]:
                assert a not in used_flat
                used_flat.add(a)
                assert a in reservoir._arcs
