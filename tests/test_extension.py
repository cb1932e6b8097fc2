import random

import numpy as np
import pytest

from hamdec import classic, cyclic, extension, pipeline
from hamdec.core import (ClusterCycle, ClusterPartition,
                         OrderedDirectedMatching, PathSequence,
                         is_locally_balanced)
from hamdec.cyclic import sysdecom, sysdecombip
from hamdec.errors import InvalidParameter, MalformedInput
from hamdec.exceptional import (build_fictive_bipartite,
                                build_fictive_two_cliques)
from hamdec.extension import (BalancedExtension, balance_extend_bipartite,
                              balance_extend_cliques, final_vertices,
                              validate_balanced_extension)
from hamdec.pipeline import InstanceConfig, generate_instance


def equipartition(k, m):
    return ClusterPartition.equipartition(
        [list(range(i * m, (i + 1) * m)) for i in range(k)])


def reservoir_graph(qp, cycle, degree):
    """H as its perfect matchings, with H[V_{i-1}, V_{i+1}] the shifted
    circulants x -> x + s for s < degree, keyed as sysdecom keys a pair:
    its lower cluster index first."""
    k, m = len(qp.clusters), qp.m
    reserve = {}
    for pos in range(k):
        prev_c = cycle.order[(pos - 1) % k]
        next_c = cycle.order[(pos + 1) % k]
        sign = 1 if prev_c < next_c else -1
        reserve[min(prev_c, next_c), max(prev_c, next_c)] = np.array(
            [(np.arange(m) + sign * s) % m for s in range(degree)],
            dtype=np.intp).reshape(degree, m)
    return reserve


def malformed(reserve, key, kind):
    """A copy of ``reserve`` whose pair ``key`` is broken as ``kind``
    says: one matching too few, a position matched twice, or a position
    outside the cluster."""
    bad = {k: v.copy() for k, v in reserve.items()}
    cols = bad[key]
    if kind == "count":
        bad[key] = cols[1:]
    elif kind == "not-perfect":
        cols[0, 1] = cols[0, 0]
    else:
        cols[0, 0] = cols.shape[1]
    return bad


MALFORMED_POOLS = {"count": "exactly", "not-perfect": "not a perfect",
                   "outside": "not a perfect"}


class TestCliquesBuilder:
    def setup_method(self):
        self.k, self.m = 5, 12
        self.n = self.k * self.m
        self.qp = equipartition(self.k, self.m)
        self.cycle = ClusterCycle((0, 1, 2, 3, 4))
        self.eps = 1 / self.m  # 2*eps*m = 2-regular reservoir
        self.h = reservoir_graph(self.qp, self.cycle, 2)

    def test_simple_extension(self):
        m0 = OrderedDirectedMatching(((12, 13),))  # inside V_1
        be, order = balance_extend_cliques(
            {1: [m0]}, self.qp, self.cycle, self.h, self.eps, self.n)
        validate_balanced_extension(be, self.qp, self.cycle)
        assert be.eps == 2 * self.eps and be.ell == 3
        (ps,) = be.path_sequences
        assert is_locally_balanced(ps, self.qp, self.cycle)
        extra = set(ps.items()) - set(m0.arcs)
        assert len(extra) == 1
        ((u, v),) = extra
        assert self.qp.cluster_index(u) == 0 and self.qp.cluster_index(v) == 2

    def test_empty_input(self):
        be, order = balance_extend_cliques(
            {}, self.qp, self.cycle, self.h, self.eps, self.n)
        assert len(be.path_sequences) == 0

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
        # one case per malformed-pool kind, on the pair stored as (0, 2)
        # and on the pair stored against the orientation V_3 -> V_0
        for key in ((0, 2), (0, 3)):
            for kind, message in MALFORMED_POOLS.items():
                bad = malformed(self.h, key, kind)
                with pytest.raises(InvalidParameter, match=message):
                    balance_extend_cliques({}, self.qp, self.cycle, bad,
                                           self.eps, self.n)
        del self.h[0, 3]
        with pytest.raises(InvalidParameter, match="exactly 2"):
            balance_extend_cliques({}, self.qp, self.cycle, self.h,
                                   self.eps, self.n)

    def test_pool_orientation(self):
        # H[V_3, V_0] is stored as (0, 3), position x of V_0 matched to
        # x - 1 and to x - 2 of V_3; the extension of a matching in V_4
        # runs V_3 -> V_0, along the first of them read backwards
        self.h[0, 3] = (np.arange(self.m) - np.array([[1], [2]])) % self.m
        m0 = OrderedDirectedMatching(((48, 49),))
        be, _ = balance_extend_cliques(
            {4: [m0]}, self.qp, self.cycle, self.h, self.eps, self.n)
        (ps,) = be.path_sequences
        assert set(ps.items()) - set(m0.arcs) == {(36, 1)}

    def test_many_seeded_inputs(self):
        # 20 seeds x several matchings; validator with parameters (2eps, 3)
        for seed in range(20):
            rng = random.Random(seed)
            eps = 2 / self.m
            h = reservoir_graph(self.qp, self.cycle, 4)
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
        ps = PathSequence.from_arcs(12, [(0, 1)])  # inside V_0, not balanced
        be = BalancedExtension([ps], [OrderedDirectedMatching(((0, 1),))],
                               [0], eps=0.9, ell=3)
        with pytest.raises(MalformedInput):
            validate_balanced_extension(be, qp, cycle)

    def test_rejects_shared_extra_arcs(self):
        qp = equipartition(3, 4)
        cycle = ClusterCycle((0, 1, 2))
        ps1 = PathSequence.from_arcs(12, [(0, 1), (8, 4)])
        ps2 = PathSequence.from_arcs(12, [(2, 3), (8, 4)])
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
        ps = PathSequence.from_arcs(12, [(0, 1), (8, 4)])
        be = BalancedExtension([ps], [OrderedDirectedMatching(((0, 1),))],
                               [2], eps=0.9, ell=3)
        with pytest.raises(MalformedInput):
            validate_balanced_extension(be, qp, cycle)


class TestFinalVertices:
    def test_ends_in_matching_order(self):
        ps = PathSequence.from_arcs(9, [(5, 6), (0, 1), (1, 2), (6, 7)])
        matching = OrderedDirectedMatching(((5, 6), (0, 1)))
        assert final_vertices(ps, matching) == [7, 2]

    def test_missing_matching_arc(self):
        ps = PathSequence.from_arcs(6, [(0, 1), (1, 2)])
        with pytest.raises(MalformedInput,
                           match=r"matching arc \(3, 4\) missing"):
            final_vertices(ps, OrderedDirectedMatching(((3, 4),)))
        with pytest.raises(MalformedInput,
                           match=r"matching arc \(0, 2\) missing"):
            final_vertices(ps, OrderedDirectedMatching(((0, 2),)))

    def test_arc_on_a_cycle(self):
        # a path beside a cycle: the arc on the path has an end, the arc
        # on the cycle none
        ps = PathSequence.from_arcs(6, [(4, 5), (0, 1), (1, 2), (2, 0)])
        assert final_vertices(ps, OrderedDirectedMatching(((4, 5),))) == [5]
        with pytest.raises(MalformedInput,
                           match=r"matching arc \(1, 2\) lies on a cycle"):
            final_vertices(ps, OrderedDirectedMatching(((1, 2),)))


@pytest.fixture(scope="module")
def built():
    cfg = InstanceConfig.bipartite_default(seed=31)
    host, P, systems = generate_instance(cfg)
    reductions = [build_fictive_bipartite(es) for es in systems]
    slices, quotas = sysdecombip(host, P, systems, reductions,
                                 mu=cfg.mu, rho=cfg.rho, seed=31)
    slc = slices[0]
    be = balance_extend_bipartite(
        [slot.matching for slot in slc.slots],
        [slot.cluster_index for slot in slc.slots], slc.q, slc.cycle,
        slc.reserve, P.eps0, quotas.reserve_inner, quotas.reserve_outer)
    reds = [reductions[slot.es_index] for slot in slc.slots]
    return P, slc, reds, be, systems, quotas


class TestBipartiteBuilder:
    def test_validator_passes(self, built):
        P, slc, reds, be, *_ = built
        validate_balanced_extension(be, P.ab_equipartition(), slc.cycle)
        assert be.eps == 12 * P.eps0 * P.K and be.ell == 12

    def test_sequence_size_identity(self, built):
        P, slc, reds, be, *_ = built
        for ps, red in zip(be.path_sequences, reds):
            assert len(ps) == 4 * len(red.jstar_dir)

    def test_locality_on_canonical_cycle(self, built):
        # on the canonical cycle A1 B1 A2 B2 ..., a sequence localized at
        # (i1,i2,i3,i4) touches A-clusters only in {i1,i2,i3,i4,i3+1,i4+1}
        # and B-clusters only in {i1-1,i1,i2,i3,i4}
        P, slc, reds, be, *_ = built
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
            touched = {q.cluster_index(x) for (u, v) in ps.items()
                       for x in (u, v)}
            for ci in touched:
                if ci < K:
                    assert ci in a_ok, (ci, (i1, i2, i3, i4))
                else:
                    assert ci - K in b_ok, (ci - K, (i1, i2, i3, i4))

    def test_extension_into_a_i1(self, built):
        P, slc, reds, be, *_ = built
        q = P.ab_equipartition()
        for ps, matching, i_s in zip(be.path_sequences, be.matchings,
                                     be.extension_cluster):
            paths = ps.paths()
            ends_of_matching_paths = []
            for path in paths:
                arcs = {(path[t], path[t + 1]) for t in range(len(path) - 1)}
                if arcs & set(matching.arcs):
                    ends_of_matching_paths.append(path[-1])
            target = set(q.cluster(i_s))
            assert all(v in target for v in ends_of_matching_paths)

    def test_malformed_pool_rejected(self, built):
        P, slc, reds, be, systems, quotas = built
        for kind, message in MALFORMED_POOLS.items():
            bad = malformed(slc.reserve, (1, P.K + 2), kind)
            with pytest.raises(InvalidParameter, match=message):
                balance_extend_bipartite(
                    [slot.matching for slot in slc.slots],
                    [slot.cluster_index for slot in slc.slots], slc.q,
                    slc.cycle, bad, P.eps0, quotas.reserve_inner,
                    quotas.reserve_outer)


MATCHING_KERNELS = ("take_matching", "hopcroft_karp",
                    "regular_bipartite_to_matchings", "pair_matrix")


@pytest.mark.parametrize("mode", ["two-cliques", "bipartite"])
def test_extensions_compute_no_matching(mode, monkeypatch):
    # the builders read the reserve's matchings as sysdecom drew them:
    # with every matching kernel raising, both extensions still run
    if mode == "two-cliques":
        cfg = InstanceConfig.two_cliques_default(seed=12)
        fictive, decompose = build_fictive_two_cliques, sysdecom
        extend = pipeline._extend_cliques
    else:
        cfg = InstanceConfig.bipartite_default(seed=31)
        fictive, decompose = build_fictive_bipartite, sysdecombip
        extend = pipeline._extend_bipartite
    host, P, systems = generate_instance(cfg)
    reductions = [fictive(es) for es in systems]
    *slice_lists, quotas = decompose(host, P, systems, reductions,
                                     mu=cfg.mu, rho=cfg.rho, seed=cfg.seed)

    def boom(*args, **kwargs):
        raise AssertionError("a balanced extension computed a matching")

    for module in (classic, cyclic, extension, pipeline):
        for name in MATCHING_KERNELS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    extended = 0
    for slc in (slc for slices in slice_lists for slc in slices):
        if slc.slots:
            be, _ = extend(slc, P.eps0, quotas)
            extended += len(be.path_sequences)
    assert extended == len(systems) * len(slice_lists)
