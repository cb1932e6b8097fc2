import random

import pytest

from hamdec import core
from hamdec.core import (ClusterPartition, Digraph, Multigraph,
                         cycle_to_perfect_matchings, verify_hamilton_cycle)
from hamdec.errors import (InvalidExceptionalSystem, NotConsistent)
from hamdec.exceptional import (BalancedExceptionalSystem, ExceptionalSystem,
                                build_fictive_bipartite,
                                build_fictive_two_cliques, induce_jab,
                                splice_bipartite, splice_two_cliques)


def tiny_partition(a_size=3, b_size=3, a0=1, b0=1, eps0=0.5, mode="two-cliques"):
    """A = [0..a_size), B next, then A0, B0 (single clusters)."""
    a = list(range(a_size))
    b = list(range(a_size, a_size + b_size))
    a0_list = list(range(a_size + b_size, a_size + b_size + a0))
    b0_list = list(range(a_size + b_size + a0, a_size + b_size + a0 + b0))
    ctor = (ClusterPartition.two_cliques if mode == "two-cliques"
            else ClusterPartition.bipartite)
    return ctor(a0_list, [a], b0_list, [b], eps0)


class TestAxioms:
    def test_v0_degree_two_required(self):
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6)])  # a0 has degree 1
        with pytest.raises(InvalidExceptionalSystem):
            ExceptionalSystem(P, g)

    def test_edges_inside_a_rejected(self):
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 1), (3, 7), (7, 4), (0, 1)])
        with pytest.raises(InvalidExceptionalSystem):
            ExceptionalSystem(P, g)

    def test_odd_ab_paths_rejected(self):
        P = tiny_partition()
        # covers a0, b0 with one AB-path each: 0-6-3 is one AB path; add
        # direct edge 1-4 making the count 3 (odd)
        g = Multigraph(P.n, [(0, 6), (6, 3), (1, 7), (7, 4), (2, 5)])
        with pytest.raises(InvalidExceptionalSystem):
            ExceptionalSystem(P, g)

    def test_mes_detection(self):
        P = tiny_partition(a_size=4, b_size=4, a0=1, b0=1)
        g = Multigraph(P.n, [(0, 8), (8, 1), (4, 9), (9, 5)])
        es = ExceptionalSystem(P, g)
        assert es.kind == "MES"

    def test_hes_detection(self):
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 3), (1, 7), (7, 4)])
        es = ExceptionalSystem(P, g)
        assert es.kind == "HES"
        assert es.count_ab_paths() == 2

    def test_ab_path_budget(self):
        # sqrt(eps0)*n too small for two AB-paths
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 3), (1, 7), (7, 4)])
        with pytest.raises(InvalidExceptionalSystem):
            ExceptionalSystem(P, g, eps0=0.026)  # sqrt*8 = 1.3 < 2

    def test_locality_enforced(self):
        P = ClusterPartition.two_cliques(
            [8], [[0, 1], [2, 3]], [9], [[4, 5], [6, 7]], 0.5)
        g = Multigraph(10, [(0, 8), (8, 1), (4, 9), (9, 5)])
        ExceptionalSystem(P, g, locality=(0, 0))
        with pytest.raises(InvalidExceptionalSystem):
            ExceptionalSystem(P, g, locality=(1, 0))

    def test_bes_balance_required(self):
        P = tiny_partition(mode="bipartite")
        # covers 2 A-vertices, 0 B-vertices: b0's path also goes to A
        g = Multigraph(P.n, [(0, 6), (6, 1), (2, 7), (7, 0)])
        with pytest.raises(InvalidExceptionalSystem):
            BalancedExceptionalSystem(P, g, locality=(0, 0, 0, 0))

    def test_bes_valid(self):
        P = tiny_partition(mode="bipartite")
        g = Multigraph(P.n, [(0, 6), (6, 1), (3, 7), (7, 4)])
        bes = BalancedExceptionalSystem(P, g, locality=(0, 0, 0, 0))
        assert bes.edge_count() == 4

    def test_json_roundtrip(self):
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 3), (1, 7), (7, 4)])
        es = ExceptionalSystem(P, g)
        back = ExceptionalSystem.from_json_obj(es.to_json_obj(), P)
        assert back.graph == es.graph and back.kind == es.kind


class TestFictive:
    def test_induced_matching_single_a_path(self):
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 1), (3, 7), (7, 4)])
        jab = induce_jab(ExceptionalSystem(P, g))
        assert list(jab.edges()) == [(0, 1, 1), (3, 4, 1)]
        assert jab.edge_count() == 2

    def test_empty_system_empty_matching(self):
        P = ClusterPartition.two_cliques(
            [], [[0, 1]], [], [[2, 3]], 0.5)
        es = ExceptionalSystem(P, Multigraph(4, []), vertices=set())
        assert induce_jab(es).edge_count() == 0

    def test_two_cliques_reduction_hes(self):
        # two AB-paths 0-6-3 and 1-7-4 (ell = 1)
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 3), (1, 7), (7, 4)])
        red = build_fictive_two_cliques(ExceptionalSystem(P, g))
        assert list(red.ja.edges()) == [(0, 1, 1)]
        assert list(red.jb.edges()) == [(3, 4, 1)]
        # orientation: x1 -> x2 and y2 -> y1
        assert red.ja_dir.arcs == ((0, 1),)
        assert red.jb_dir.arcs == ((4, 3),)
        assert red.jstar.edge_count() == red.jab.edge_count() == 2

    def test_two_cliques_reduction_mes(self):
        P = tiny_partition(a_size=4, b_size=4)
        g = Multigraph(P.n, [(0, 8), (8, 1), (4, 9), (9, 5)])
        red = build_fictive_two_cliques(ExceptionalSystem(P, g))
        assert red.ja_dir.arcs == ((0, 1),)
        assert red.jb_dir.arcs == ((4, 5),)

    def test_bipartite_reduction(self):
        P = tiny_partition(mode="bipartite")
        g = Multigraph(P.n, [(0, 6), (6, 1), (3, 7), (7, 4)])
        red = build_fictive_bipartite(
            BalancedExceptionalSystem(P, g, locality=(0, 0, 0, 0)))
        # s = 1, s' = 2: J* = {x1y1, x2y2} = {(0,3), (1,4)}
        assert red.jstar_dir.arcs == ((0, 3), (1, 4))
        assert red.jstar.edge_count() == red.jab.edge_count() == 2

    def test_fictive_size_bound(self):
        # e(J*) = e(J*_AB) <= |V0| + sqrt(eps0) * n for every valid system
        rng = random.Random(7)
        checked = 0
        helper = TestSpliceRandomized()
        while checked < 60:
            built = helper.build_random_es(rng)
            if built is None:
                continue
            P, es = built
            red = build_fictive_two_cliques(es)
            bound = len(P.V0) + (0.9 ** 0.5) * P.n
            assert red.jstar.edge_count() == red.jab.edge_count() <= bound
            checked += 1

    def test_localized_fictive_vertices(self):
        # an (i, i')-localized system has V(J*_A) inside A_i and
        # V(J*_B) inside B_i'
        P = ClusterPartition.two_cliques(
            [8], [[0, 1], [2, 3]], [9], [[4, 5], [6, 7]], 0.5)
        g = Multigraph(10, [(2, 8), (8, 3), (6, 9), (9, 7)])
        es = ExceptionalSystem(P, g, locality=(1, 1))
        red = build_fictive_two_cliques(es)
        assert red.ja_dir.vertices() <= set(P.a_cluster(1))
        assert red.jb_dir.vertices() <= set(P.b_cluster(1))

    def test_path_through_two_exceptional_vertices(self):
        # one path covering two same-side exceptional vertices is legal
        # and reduces to a single fictive edge between its endpoints
        P = tiny_partition(a_size=4, b_size=4, a0=2, b0=0)
        g = Multigraph(P.n, [(0, 8), (8, 9), (9, 1)])
        es = ExceptionalSystem(P, g)
        assert es.kind == "MES"
        red = build_fictive_two_cliques(es)
        assert sorted(red.jab.support()) == [(0, 1)]
        out = splice_two_cliques([0, 1, 2, 3], [4, 5, 6, 7], es, red)
        a_pr = set(P.A_prime)
        assert verify_hamilton_cycle(out.restrict(a_pr), a_pr)

    def test_cross_path_with_same_side_ends_rejected(self):
        # a path through A0 and B0 whose endpoints both lie in A has a
        # cross edge but no cross connection: neither kind's axioms hold
        P = tiny_partition(a_size=4, b_size=4, a0=1, b0=1)
        g = Multigraph(P.n, [(0, 8), (8, 9), (9, 1)])
        with pytest.raises(InvalidExceptionalSystem):
            ExceptionalSystem(P, g)

    def test_bipartite_fictive_bound(self):
        # e(J*) = e(J*_AB) <= e(J)
        P = tiny_partition(mode="bipartite")
        g = Multigraph(P.n, [(0, 6), (6, 1), (3, 7), (7, 4)])
        red = build_fictive_bipartite(
            BalancedExceptionalSystem(P, g, locality=(0, 0, 0, 0)))
        assert red.jstar.edge_count() == red.jab.edge_count() <= g.edge_count()

    def test_bipartite_lone_cross_path(self):
        # a - v0 - b covers one A- and one B-vertex: s=0, s'=1
        P = tiny_partition(a0=1, b0=0)
        P = ClusterPartition.bipartite([6], [[0, 1, 2]], [], [[3, 4, 5]], 0.5)
        g = Multigraph(7, [(0, 6), (6, 3)])
        red = build_fictive_bipartite(
            BalancedExceptionalSystem(P, g, locality=(0, 0, 0, 0)))
        assert red.jstar_dir.arcs == ((0, 3),)


class TestSplice:
    def test_hes_eight_vertices(self):
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 3), (1, 7), (7, 4)])
        es = ExceptionalSystem(P, g)
        red = build_fictive_two_cliques(es)
        out = splice_two_cliques([0, 1, 2], [4, 3, 5], es, red)
        assert verify_hamilton_cycle(out, set(range(8)))

    def test_mes_ten_vertices(self):
        P = tiny_partition(a_size=4, b_size=4)
        g = Multigraph(P.n, [(0, 8), (8, 1), (4, 9), (9, 5)])
        es = ExceptionalSystem(P, g)
        red = build_fictive_two_cliques(es)
        out = splice_two_cliques([0, 1, 2, 3], [4, 5, 6, 7], es, red)
        a_pr, b_pr = set(P.A_prime), set(P.B_prime)
        assert verify_hamilton_cycle(out.restrict(a_pr), a_pr)
        assert verify_hamilton_cycle(out.restrict(b_pr), b_pr)
        # |A'| = |B'| = 5 odd here, so no matching split; even variant:
        P2 = tiny_partition(a_size=3, b_size=3, a0=1, b0=1)
        g2 = Multigraph(P2.n, [(0, 6), (6, 1), (3, 7), (7, 4)])
        es2 = ExceptionalSystem(P2, g2)
        red2 = build_fictive_two_cliques(es2)
        out2 = splice_two_cliques([0, 1, 2], [3, 4, 5], es2, red2)
        a_pr, b_pr = set(P2.A_prime), set(P2.B_prime)
        ma1, ma2 = cycle_to_perfect_matchings(out2.restrict(a_pr), a_pr)
        mb1, mb2 = cycle_to_perfect_matchings(out2.restrict(b_pr), b_pr)
        m1, m2 = ma1 + mb1, ma2 + mb2
        assert m1.is_matching() and m2.is_matching()
        assert m1 + m2 == out2

    def test_inconsistent_cycle_rejected(self):
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 3), (1, 7), (7, 4)])
        es = ExceptionalSystem(P, g)
        red = build_fictive_two_cliques(es)
        bad = [1, 0, 2]  # contains (1,0) not (0,1)
        with pytest.raises(NotConsistent):
            splice_two_cliques(bad, [4, 3, 5], es, red)

    @pytest.mark.parametrize("order", [
        [0, 1, 2, 3],   # leaves A
        [0, 1],         # misses the A-vertex 2
        [0, 1, 2, 0],   # spans A but is no cycle
    ])
    def test_bad_input_cycle_rejected(self, order):
        P = tiny_partition()
        g = Multigraph(P.n, [(0, 6), (6, 3), (1, 7), (7, 4)])
        es = ExceptionalSystem(P, g)
        red = build_fictive_two_cliques(es)
        with pytest.raises(NotConsistent):
            splice_two_cliques(order, [4, 3, 5], es, red)

    def test_splice_builds_no_digraph(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the splice walked or built a Digraph")
        monkeypatch.setattr(core.Digraph, "__init__", forbidden)
        monkeypatch.setattr(core, "_directed_cycle_order", forbidden)
        P = tiny_partition()
        es = ExceptionalSystem(P, Multigraph(P.n, [(0, 6), (6, 3), (1, 7),
                                                   (7, 4)]))
        out = splice_two_cliques([0, 1, 2], [4, 3, 5], es,
                                 build_fictive_two_cliques(es))
        assert verify_hamilton_cycle(out, set(range(8)))
        P = tiny_partition(mode="bipartite")
        es = BalancedExceptionalSystem(
            P, Multigraph(P.n, [(0, 6), (6, 1), (3, 7), (7, 4)]),
            locality=(0, 0, 0, 0))
        out = splice_bipartite([0, 3, 2, 5, 1, 4], es,
                               build_fictive_bipartite(es))
        assert verify_hamilton_cycle(out, set(range(8)))

    def test_bipartite_splice(self):
        P = tiny_partition(mode="bipartite")
        g = Multigraph(P.n, [(0, 6), (6, 1), (3, 7), (7, 4)])
        es = BalancedExceptionalSystem(P, g, locality=(0, 0, 0, 0))
        red = build_fictive_bipartite(es)
        out = splice_bipartite([0, 3, 2, 5, 1, 4], es, red)
        assert verify_hamilton_cycle(out, set(range(8)))

    def test_bipartite_empty_system_identity(self):
        P = ClusterPartition.bipartite([], [[0, 1]], [], [[2, 3]], 0.5)
        es = BalancedExceptionalSystem(P, Multigraph(4, []), vertices=set(),
                                       locality=(0, 0, 0, 0))
        red = build_fictive_bipartite(es)
        out = splice_bipartite([0, 2, 1, 3], es, red)
        assert out == Multigraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])


class TestSpliceRandomized:
    """Randomized tiny instances with exhaustively searched consistent
    cycles; a compressed version of the acceptance criterion runs here."""

    def build_random_es(self, rng):
        a_size = rng.randint(2, 6)
        b_size = a_size  # the two sides are balanced by definition
        a0 = rng.randint(0, 1)
        b0 = rng.randint(0, 1)
        if a0 + b0 == 0:
            a0 = 1
        P = tiny_partition(a_size, b_size, a0, b0, eps0=0.9)
        edges = []
        a_pool = list(range(a_size))
        b_pool = list(range(a_size, a_size + b_size))
        rng.shuffle(a_pool)
        rng.shuffle(b_pool)
        want_hes = rng.random() < 0.5
        for v0 in P.a0:
            cross = want_hes and a_pool and b_pool and rng.random() < 0.5
            if cross:
                edges += [(a_pool.pop(), v0), (v0, b_pool.pop())]
            elif len(a_pool) >= 2:
                edges += [(a_pool.pop(), v0), (v0, a_pool.pop())]
            else:
                return None
        for v0 in P.b0:
            cross = want_hes and a_pool and b_pool and rng.random() < 0.5
            if cross:
                edges += [(b_pool.pop(), v0), (v0, a_pool.pop())]
            elif len(b_pool) >= 2:
                edges += [(b_pool.pop(), v0), (v0, b_pool.pop())]
            else:
                return None
        g = Multigraph(P.n, edges)
        try:
            es = ExceptionalSystem(P, g)
        except InvalidExceptionalSystem:
            return None
        return P, es

    def test_randomized_splices(self):
        rng = random.Random(424242)
        done = 0
        trials = 0
        while done < 120 and trials < 2000:
            trials += 1
            built = self.build_random_es(rng)
            if built is None:
                continue
            P, es = built
            red = build_fictive_two_cliques(es)
            a, b = set(P.A), set(P.B)
            c_a = self.consistent_cycle(P, sorted(a), red.ja_dir.arcs)
            c_b = self.consistent_cycle(P, sorted(b), red.jb_dir.arcs)
            if c_a is None or c_b is None:
                continue
            out = splice_two_cliques(c_a, c_b, es, red)
            if es.kind == "HES":
                assert verify_hamilton_cycle(out, set(P.vertices()))
            else:
                a_pr, b_pr = set(P.A_prime), set(P.B_prime)
                assert verify_hamilton_cycle(out.restrict(a_pr), a_pr)
                assert verify_hamilton_cycle(out.restrict(b_pr), b_pr)
            done += 1
        assert done == 120

    @staticmethod
    def consistent_cycle(P, verts, arcs):
        """A vertex order whose cycle contains the given arcs in cyclic
        order (complete host graph), or None."""
        from hamdec.core import OrderedDirectedMatching, is_consistent_with
        arcset = list(arcs)
        other = [v for v in verts
                 if all(v not in a for a in arcset)]
        # place arcs in order, interleave the rest: arcs in sequence
        # then remaining vertices appended is always consistent
        seq = []
        for (u, v) in arcset:
            seq += [u, v]
        seq += other
        cyc = Digraph(P.n, zip(seq, seq[1:] + seq[:1]))
        if arcset and not is_consistent_with(
                cyc, OrderedDirectedMatching(tuple(arcset))):
            return None
        return seq
