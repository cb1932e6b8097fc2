import random

import pytest

from hamdec.core import (ClusterCycle, ClusterPartition, Digraph, Multigraph,
                         OrderedDirectedMatching, is_locally_balanced)
from hamdec.cyclic import sysdecombip
from hamdec.errors import InvalidParameter, MalformedInput
from hamdec.exceptional import build_fictive_bipartite
from hamdec.extension import (BalancedExtension, balance_extend_bipartite,
                              balance_extend_cliques,
                              validate_balanced_extension)
from hamdec.pipeline import InstanceConfig, generate_instance


def equipartition(k, m):
    return ClusterPartition.equipartition(
        [list(range(i * m, (i + 1) * m)) for i in range(k)])


def shifted_pair_edges(cluster_a, cluster_b, shifts):
    m = len(cluster_a)
    return [(cluster_a[x], cluster_b[(x + s) % m]) for x in range(m)
            for s in shifts]


def reservoir_graph(qp, cycle, degree, n):
    """H with H[V_{i-1}, V_{i+1}] exactly degree-regular for every i."""
    k = len(qp.clusters)
    edges = []
    for pos in range(k):
        prev_c = cycle.order[(pos - 1) % k]
        next_c = cycle.order[(pos + 1) % k]
        edges += shifted_pair_edges(list(qp.cluster(prev_c)),
                                    list(qp.cluster(next_c)),
                                    list(range(degree)))
    return Multigraph(n, edges)


class TestCliquesBuilder:
    def setup_method(self):
        self.k, self.m = 5, 12
        self.n = self.k * self.m
        self.qp = equipartition(self.k, self.m)
        self.cycle = ClusterCycle((0, 1, 2, 3, 4))
        self.eps = 1 / self.m  # 2*eps*m = 2-regular reservoir
        self.h = reservoir_graph(self.qp, self.cycle, 2, self.n)

    def test_simple_extension(self):
        m0 = OrderedDirectedMatching(((12, 13),))  # inside V_1
        be, order = balance_extend_cliques(
            {1: [m0]}, self.qp, self.cycle, self.h, self.eps, self.n)
        validate_balanced_extension(be, self.qp, self.cycle)
        assert be.eps == 2 * self.eps and be.ell == 3
        (ps,) = be.path_sequences
        assert is_locally_balanced(ps, self.qp, self.cycle)
        extra = set(ps._arcs) - set(m0.arcs)
        assert len(extra) == 1
        ((u, v),) = extra
        assert self.qp.cluster_index(u) == 0 and self.qp.cluster_index(v) == 2

    def test_empty_input(self):
        be, order = balance_extend_cliques(
            {}, self.qp, self.cycle, self.h, self.eps, self.n)
        assert len(be) == 0

    def test_cluster_intersection_bound(self):
        m0 = OrderedDirectedMatching(((12, 13),))
        be, _ = balance_extend_cliques(
            {1: [m0]}, self.qp, self.cycle, self.h, self.eps, self.n)
        (ps,) = be.path_sequences
        verts = ps.vertices_with_arcs()
        inter = len(verts & set(self.qp.cluster(1)))
        assert inter == 2 * len(m0.arcs) <= 2 * self.eps * self.m
        for ci in (0, 2):
            assert len(verts & set(self.qp.cluster(ci))) <= self.eps * self.m

    def test_oversized_matching_rejected(self):
        m0 = OrderedDirectedMatching(((12, 13), (14, 15)))  # e(M) = 2 > eps*m
        with pytest.raises(InvalidParameter):
            balance_extend_cliques({1: [m0]}, self.qp, self.cycle, self.h,
                                   self.eps, self.n)

    def test_irregular_reservoir_rejected(self):
        bad = self.h - Multigraph(self.n, [next(iter(self.h.support()))])
        with pytest.raises(InvalidParameter):
            balance_extend_cliques({}, self.qp, self.cycle, bad,
                                   self.eps, self.n)

    def test_many_seeded_inputs(self):
        # 20 seeds x several matchings; validator with parameters (2eps, 3)
        for seed in range(20):
            rng = random.Random(seed)
            eps = 2 / self.m
            h = reservoir_graph(self.qp, self.cycle, 4, self.n)
            groups = {}
            for ci in range(self.k):
                cluster = list(self.qp.cluster(ci))
                rng.shuffle(cluster)
                group = []
                for t in range(rng.randint(0, 2)):
                    size = rng.randint(1, 2)
                    arcs = tuple((cluster[4 * t + 2 * x],
                                  cluster[4 * t + 2 * x + 1])
                                 for x in range(size))
                    group.append(OrderedDirectedMatching(arcs))
                if group:
                    groups[ci] = group
            be, _ = balance_extend_cliques(groups, self.qp, self.cycle,
                                              h, eps, self.n)
            validate_balanced_extension(be, self.qp, self.cycle)


class TestValidatorIndependence:
    def test_rejects_unbalanced(self):
        qp = equipartition(3, 4)
        cycle = ClusterCycle((0, 1, 2))
        ps = Digraph(12, [(0, 1)])  # inside V_0, not balanced
        be = BalancedExtension([ps], [OrderedDirectedMatching(((0, 1),))],
                               [0], eps=0.9, ell=3)
        with pytest.raises(MalformedInput):
            validate_balanced_extension(be, qp, cycle)

    def test_rejects_shared_extra_arcs(self):
        qp = equipartition(3, 4)
        cycle = ClusterCycle((0, 1, 2))
        ps1 = Digraph(12, [(0, 1), (8, 4)])
        ps2 = Digraph(12, [(2, 3), (8, 4)])
        be = BalancedExtension(
            [ps1, ps2],
            [OrderedDirectedMatching(((0, 1),)),
             OrderedDirectedMatching(((2, 3),))],
            [0, 0], eps=0.9, ell=3)
        with pytest.raises(MalformedInput):
            validate_balanced_extension(be, qp, cycle)

    def test_rejects_wrong_extension_cluster(self):
        qp = equipartition(3, 4)
        cycle = ClusterCycle((0, 1, 2))
        ps = Digraph(12, [(0, 1), (8, 4)])
        be = BalancedExtension([ps], [OrderedDirectedMatching(((0, 1),))],
                               [2], eps=0.9, ell=3)
        with pytest.raises(MalformedInput):
            validate_balanced_extension(be, qp, cycle)


@pytest.fixture(scope="module")
def built():
    cfg = InstanceConfig.bipartite_default(seed=31)
    host, P, systems = generate_instance(cfg)
    reductions = [build_fictive_bipartite(es) for es in systems]
    slices, quotas = sysdecombip(host, P, systems, reductions,
                                 mu=cfg.mu, rho=cfg.rho, seed=31)
    slc = slices[0]
    idxs = [slot.es_index for slot in slc.slots]
    be = balance_extend_bipartite(
        [systems[i] for i in idxs], [reductions[i] for i in idxs],
        P, slc.cycle, slc.h_reserve, P.eps0,
        quotas.reserve_inner, quotas.reserve_outer)
    return P, slc, [reductions[i] for i in idxs], be


class TestBipartiteBuilder:
    def test_validator_passes(self, built):
        P, slc, reds, be = built
        validate_balanced_extension(be, P.ab_equipartition(), slc.cycle)
        assert be.eps == 12 * P.eps0 * P.K and be.ell == 12

    def test_sequence_size_identity(self, built):
        P, slc, reds, be = built
        for ps, red in zip(be.path_sequences, reds):
            assert ps.edge_count() == 4 * len(red.jstar_dir)

    def test_locality_on_canonical_cycle(self, built):
        # on the canonical cycle A1 B1 A2 B2 ..., a sequence localized at
        # (i1,i2,i3,i4) touches A-clusters only in {i1,i2,i3,i4,i3+1,i4+1}
        # and B-clusters only in {i1-1,i1,i2,i3,i4}
        P, slc, reds, be = built
        if slc.j != 0:
            pytest.skip("canonical cycle is slice 0")
        q = P.ab_equipartition()
        K = P.K
        cfg = InstanceConfig.bipartite_default(seed=31)
        _, _, systems = generate_instance(cfg)
        for ps, slot in zip(be.path_sequences, slc.slots):
            i1, i2, i3, i4 = systems[slot.es_index].locality
            a_ok = {i1, i2, i3, i4, (i3 + 1) % K, (i4 + 1) % K}
            b_ok = {(i1 - 1) % K, i1, i2, i3, i4}
            touched = {q.cluster_index(x) for (u, v) in ps._arcs
                       for x in (u, v)}
            for ci in touched:
                if ci < K:
                    assert ci in a_ok, (ci, (i1, i2, i3, i4))
                else:
                    assert ci - K in b_ok, (ci - K, (i1, i2, i3, i4))

    def test_extension_into_a_i1(self, built):
        P, slc, reds, be = built
        q = P.ab_equipartition()
        for ps, matching, i_s in zip(be.path_sequences, be.matchings,
                                     be.extension_cluster):
            paths = ps.directed_paths()
            ends_of_matching_paths = []
            for path in paths:
                arcs = {(path[t], path[t + 1]) for t in range(len(path) - 1)}
                if arcs & set(matching.arcs):
                    ends_of_matching_paths.append(path[-1])
            target = set(q.cluster(i_s))
            assert all(v in target for v in ends_of_matching_paths)
