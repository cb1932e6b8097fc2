import random

import numpy as np
import pytest

from hamdec import assembly
from hamdec.assembly import (PairSpec, ReservoirLedger, assemble_slice,
                             extend_to_one_factors, find_ordered_hamilton,
                             merge_to_hamilton, reorder_for_consistency)
from hamdec.core import (ClusterCycle, ClusterPartition, Digraph,
                         OrderedDirectedMatching, is_consistent_with,
                         verify_hamilton_cycle)
from hamdec.cyclic import CyclicSystem, reserve_regular
from hamdec.errors import (AssemblyVerificationFailed,
                           HamiltonSearchExhausted, MalformedInput)
from hamdec.extension import BalancedExtension


def blowup_system(k, m):
    """The complete winding blow-up of a k-cycle, with clusters of size
    m, as (cyclic system, clusters)."""
    clusters = [tuple(range(i * m, (i + 1) * m)) for i in range(k)]
    qp = ClusterPartition.equipartition(clusters)
    cyc = ClusterCycle(tuple(range(k)))
    pairs = [(clusters[ci], clusters[cj], np.ones((m, m), dtype=np.int64))
             for (ci, cj) in cyc.edges()]
    return CyclicSystem(k * m, pairs, qp, cyc, mu=0.0, eps=0.5), clusters


def succ_of(n, arcs):
    """The successor array of a set of arcs with distinct tails."""
    succ = [-1] * n
    for (u, v) in arcs:
        succ[u] = v
    return succ


def ledger_of(system, arcs):
    """A reservoir ledger of ``system`` holding exactly ``arcs``."""
    ledger = ReservoirLedger(system, [np.zeros(mat.shape, dtype=bool)
                                      for (_t, _h, mat) in system.pairs])
    ledger.mark(arcs, True)
    return ledger


def arcs_of(ledger, system):
    """The arcs a ledger of ``system`` still holds."""
    return {(tails[a], heads[b])
            for (ci, _cj), (tails, heads, _mat) in zip(system.cycle.edges(),
                                                      system.pairs)
            for a, b in zip(*np.nonzero(ledger.block(ci)))}


def cycle_succ(verts, n):
    return succ_of(n, [(verts[i], verts[(i + 1) % len(verts)])
                       for i in range(len(verts))])


def as_digraph(succ):
    return Digraph(len(succ), [(u, v) for u, v in enumerate(succ) if v >= 0])


def is_permutation(succ):
    """Every vertex has out- and in-degree exactly 1."""
    return sorted(succ) == list(range(len(succ)))


class TestCyclicSystemMatrices:
    def test_validate_rejects_a_doubled_arc(self):
        system, _ = blowup_system(4, 6)
        system.validate()
        system.pairs[1][2][0, 0] = 2
        with pytest.raises(MalformedInput):
            system.validate()


class TestExtendToOneFactors:
    def test_empty_sequences_give_winding_factors(self):
        system, clusters = blowup_system(4, 6)
        q = 5
        ps_list = [Digraph(24, []) for _ in range(q)]
        factors = extend_to_one_factors(system, ps_list)
        assert len(factors) == q
        used = set()
        for f in factors:
            assert is_permutation(f)
            assert not (set(f.arcs()) & used)
            used |= set(f.arcs())

    def test_path_containment(self):
        system, clusters = blowup_system(4, 6)
        # a path u -> v crossing from V_0 to V_1
        u, v = clusters[0][0], clusters[1][0]
        ps = Digraph(24, [(u, v)])
        (f,) = extend_to_one_factors(system, [ps])
        assert f[u] == v
        assert is_permutation(f)


class TestFindOrderedHamilton:
    def test_complete_digraph_with_waypoints(self):
        n = 8
        arcs = {(u, v) for u in range(n) for v in range(n) if u != v}
        seq = find_ordered_hamilton(arcs, [3, 5, 1], range(n),
                                    rng=random.Random(0))
        cyc = cycle_succ(seq, n)
        assert verify_hamilton_cycle(as_digraph(cyc), set(range(n)))
        order = []
        cur = 3
        for _ in range(n):
            order.append(cur)
            cur = cyc[cur]
        assert order.index(5) < order.index(1)

    def test_dense_random_no_waypoints(self):
        n = 30
        rng = random.Random(2)
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.75}
        seq = find_ordered_hamilton(arcs, [], range(n), rng=random.Random(3))
        assert verify_hamilton_cycle(as_digraph(cycle_succ(seq, n)),
                                     set(range(n)))
        assert all((seq[i - 1], seq[i]) in arcs for i in range(n))

    def test_path_has_no_hamilton_cycle(self):
        arcs = {(0, 1), (1, 2), (2, 3), (3, 4)}
        with pytest.raises(HamiltonSearchExhausted) as exc:
            find_ordered_hamilton(arcs, [], range(5), restarts=5,
                                  rng=random.Random(0))
        assert exc.value.restarts == 5

    def test_output_arcs_are_checked(self, monkeypatch):
        # with a search that returns its greedy start unchanged, two
        # disjoint triangles give sequences with non-arcs; none may pass
        monkeypatch.setattr(assembly, "_local_search",
                            lambda arcset, seq, wps, budget, rng: seq)
        arcs = {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)}
        with pytest.raises(HamiltonSearchExhausted):
            find_ordered_hamilton(arcs, [], range(6), restarts=5,
                                  rng=random.Random(0))

    def test_waypoint_fraction_guard(self):
        n = 10
        arcs = {(u, v) for u in range(n) for v in range(n) if u != v}
        with pytest.raises(MalformedInput):
            find_ordered_hamilton(arcs, [0, 1, 2, 3, 4, 5], range(n),
                                  rng=random.Random(0))


class TestMergeAndReorder:
    # the two clusters V_0 = 0..5 and V_1 = 6..11 of a 2-cluster cycle
    system, _clusters = blowup_system(2, 6)
    v1, v2 = tuple(range(6)), tuple(range(6, 12))
    spec = PairSpec(cluster_index=0, v1=v1, v2=v2)

    def build_two_cycle_factor(self):
        """Two disjoint 6-cycles winding around V_0 and V_1."""
        f = succ_of(12, [(0, 6), (6, 1), (1, 7), (7, 2), (2, 8), (8, 0),
                         (3, 9), (9, 4), (4, 10), (10, 5), (5, 11), (11, 3)])
        return f

    def test_merge_two_cycles(self):
        f = self.build_two_cycle_factor()
        reservoir = {(u, v) for u in self.v1 for v in self.v2}
        unused = ledger_of(self.system, reservoir)
        merged, used = merge_to_hamilton(f, unused, [self.spec],
                                         rng=random.Random(1))
        assert verify_hamilton_cycle(as_digraph(merged), set(range(12)))
        # one 2-switch joins the two cycles
        assert len(used) == 2 and all(a in reservoir for a in used)
        assert arcs_of(unused, self.system) == reservoir - set(used)

    @pytest.mark.parametrize("c", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_joins_c_cycles_with_2_arcs_per_switch(self, c, seed,
                                                          monkeypatch):
        # c disjoint 6-cycles winding around two clusters of size 3c
        m = 3 * c
        system, clusters = blowup_system(2, m)
        arcs = []
        for t in range(c):
            xs, ys = clusters[0][3 * t:3 * t + 3], clusters[1][3 * t:3 * t + 3]
            arcs += [(xs[i], ys[i]) for i in range(3)]
            arcs += [(ys[i], xs[(i + 1) % 3]) for i in range(3)]
        f = succ_of(2 * m, arcs)
        reservoir = {(u, v) for u in clusters[0] for v in clusters[1]
                     if f[u] != v}
        switches = []
        switch = assembly._switch
        monkeypatch.setattr(assembly, "_switch", lambda succ, x1, x2: (
            switches.append((x1, x2)), switch(succ, x1, x2)))
        unused = ledger_of(system, reservoir)
        spec = PairSpec(cluster_index=0, v1=clusters[0], v2=clusters[1])
        merged, used = merge_to_hamilton(f, unused, [spec],
                                         rng=random.Random(seed))
        assert verify_hamilton_cycle(as_digraph(merged), set(range(2 * m)))
        # c - 1 switches take 2(c - 1) arcs; an arc a later switch drops
        # goes back, so the cycle keeps at most that many
        assert len(switches) == c - 1
        assert len(used) <= 2 * (c - 1)
        assert sorted(used) == [(u, merged[u]) for u in range(2 * m)
                                if merged[u] != f[u]]
        assert arcs_of(unused, system) == reservoir - set(used)

    def test_fallback_without_a_switch(self, monkeypatch):
        # the reservoir is one replacement matching of F[V^1, V^2] that
        # closes a single cycle but holds no 2-switch: each of its arcs
        # x1 -> succ(x2) from one cycle lacks the partner x2 -> succ(x1)
        f = self.build_two_cycle_factor()
        reservoir = {(0, 10), (1, 8), (2, 9), (3, 6), (4, 11), (5, 7)}
        replacements = []
        replace = assembly._replace_pair_matching
        monkeypatch.setattr(assembly, "_replace_pair_matching",
                            lambda *args: replacements.append(args[1])
                            or replace(*args))
        unused = ledger_of(self.system, reservoir)
        merged, used = merge_to_hamilton(f, unused, [self.spec],
                                         rng=random.Random(1))
        assert verify_hamilton_cycle(as_digraph(merged), set(range(12)))
        assert replacements == [self.spec]
        assert set(used) == reservoir
        assert arcs_of(unused, self.system) == set()

    def test_no_switch_and_no_replacement_is_retryable(self):
        f = self.build_two_cycle_factor()
        with pytest.raises(HamiltonSearchExhausted) as exc:
            merge_to_hamilton(f, ledger_of(self.system, set()), [self.spec],
                              rng=random.Random(1))
        assert "2 cycles left at pair (0,1), 0 unused reservoir arcs" in \
            str(exc.value)

    def test_non_factor_replacement_fails_verification(self, monkeypatch):
        # a switch that gives x1 the head of x2 without moving x2's
        def doubled_head(succ, x1, x2):
            succ[x1] = succ[x2]

        monkeypatch.setattr(assembly, "_switch", doubled_head)
        reservoir = {(u, v) for u in self.v1 for v in self.v2}
        with pytest.raises(AssemblyVerificationFailed):
            merge_to_hamilton(self.build_two_cycle_factor(),
                              ledger_of(self.system, reservoir), [self.spec],
                              rng=random.Random(1))

    def test_identity_when_single_cycle(self):
        verts = list(range(8))
        f = cycle_succ(verts, 8)
        system, _ = blowup_system(2, 4)
        merged, used = merge_to_hamilton(f, ledger_of(system, set()), [],
                                         rng=random.Random(1))
        assert merged == f and used == []

    def test_unreachable_cycle_reported(self):
        f = self.build_two_cycle_factor()
        # pair whose V^1 misses the second cycle entirely
        spec = PairSpec(cluster_index=0, v1=(0, 1, 2), v2=(6, 7, 8))
        reservoir = {(u, v) for u in (0, 1, 2) for v in (6, 7, 8)}
        with pytest.raises(MalformedInput):
            merge_to_hamilton(f, ledger_of(self.system, reservoir), [spec],
                              rng=random.Random(1))

    def test_reorder_square_blowup(self):
        # 12-vertex blow-up of a 2-cluster cycle; 3 waypoints forced
        verts = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        cyc = cycle_succ(verts, 12)
        reservoir = {(u, v) for u in self.v1 for v in self.v2}
        out, used = reorder_for_consistency(
            cyc, ledger_of(self.system, reservoir), self.spec, [0, 3, 1],
            rng=random.Random(4))
        assert verify_hamilton_cycle(as_digraph(out), set(range(12)))
        order = []
        cur = 0
        for _ in range(12):
            order.append(cur)
            cur = out[cur]
        assert order.index(3) < order.index(1)

    def test_reorder_empty_waypoints_identity(self):
        verts = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        cyc = cycle_succ(verts, 12)
        out, used = reorder_for_consistency(
            cyc, ledger_of(self.system, set()), self.spec, [],
            rng=random.Random(4))
        assert out == cyc and used == []

    def test_reorder_waypoints_outside_v1(self):
        verts = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        cyc = cycle_succ(verts, 12)
        with pytest.raises(MalformedInput):
            reorder_for_consistency(
                cyc, ledger_of(self.system, set()), self.spec, [6, 0, 1],
                rng=random.Random(4))


class TestAssembleSlice:
    def slice_inputs(self, degree=6):
        """A 5 x 12 blow-up less a reservoir of the given degree per pair,
        the reservoir's blocks, and a balanced extension of three slots."""
        k, m = 5, 12
        n = k * m
        system, clusters = blowup_system(k, m)
        # carve a reservoir out of the system
        blocks = []
        kept = []
        for (tails, heads, mat) in system.pairs:
            rest = mat.copy()
            reserve_regular(rest, degree, 0.5, rng_seed=17)
            blocks.append(mat > rest)
            kept.append((tails, heads, rest))
        sys2 = CyclicSystem(n, kept, system.q, system.cycle, mu=0.4, eps=0.5)
        m0 = OrderedDirectedMatching(((0, 1), (2, 3)))
        ps0 = Digraph(n, [(0, 1), (2, 3), (48, 12), (49, 13)])
        m1 = OrderedDirectedMatching(())
        ps1 = Digraph(n, [])
        m2 = OrderedDirectedMatching(((24, 25), (26, 27), (28, 29)))
        ps2 = Digraph(n, [(24, 25), (26, 27), (28, 29),
                          (12, 36), (14, 37), (16, 38)])
        be = BalancedExtension([ps0, ps1, ps2], [m0, m1, m2], [0, 1, 2],
                               eps=0.5, ell=3)
        return sys2, blocks, be

    def test_full_slice(self):
        sys2, blocks, be = self.slice_inputs()
        n = sys2.n
        reservoir = arcs_of(ReservoirLedger(sys2, blocks), sys2)
        asm = assemble_slice(sys2, be, blocks, seed=5)
        assert reservoir.isdisjoint(
            (tails[a], heads[b]) for (tails, heads, mat) in sys2.pairs
            for a, b in zip(*np.nonzero(mat)))
        # the caller's blocks are copied, not depleted
        assert arcs_of(ReservoirLedger(sys2, blocks), sys2) == reservoir
        used_flat = set()
        for s, cyc in enumerate(asm.cycles):
            assert verify_hamilton_cycle(cyc, set(range(n)))
            assert is_consistent_with(cyc, be.matchings[s])
            assert set(be.path_sequences[s]._arcs) <= set(cyc._arcs)
            # a slot is charged exactly the reservoir arcs of its cycle
            assert set(asm.reservoir_usage[s]) == \
                set(cyc._arcs) & reservoir
            for a in asm.reservoir_usage[s]:
                assert a not in used_flat
                used_flat.add(a)
                assert a in reservoir

    def test_empty_reservoir_names_the_slot(self):
        sys2, blocks, be = self.slice_inputs()
        empty = [np.zeros_like(block) for block in blocks]
        with pytest.raises(HamiltonSearchExhausted,
                           match=r"^slot \d+: \d+ cycles left at pair "
                                 r"\(\d+,\d+\), 0 unused reservoir arcs"):
            assemble_slice(sys2, be, empty, seed=5)

    def test_misaligned_reservoir_rejected(self):
        sys2, blocks, be = self.slice_inputs()
        for bad in (blocks[:-1], [block[:, :-1] for block in blocks]):
            with pytest.raises(MalformedInput):
                assemble_slice(sys2, be, bad, seed=5)
