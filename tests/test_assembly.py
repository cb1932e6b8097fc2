import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamdec import assembly
from hamdec.assembly import (PairSpec, ReservoirLedger, assemble_slice,
                             extend_to_one_factors, merge_to_hamilton,
                             reorder_for_consistency)
from hamdec.core import (ClusterCycle, ClusterPartition, Digraph,
                         OrderedDirectedMatching, PathSequence,
                         is_consistent_with, verify_hamilton_cycle,
                         visits_in_order)
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
    return ReservoirLedger(system, [
        np.array([[(u, v) in arcs for v in heads] for u in tails], dtype=bool)
        for (tails, heads, _mat) in system.pairs])


def arcs_of(ledger, system):
    """The arcs a ledger of ``system`` still holds."""
    return {(tails[a], heads[b])
            for (ci, _cj), (tails, heads, _mat) in zip(system.cycle.edges(),
                                                      system.pairs)
            for a, b in zip(*np.nonzero(ledger.block(ci)))}


def charge(before, after):
    """The arcs of ``after`` that ``before`` lacks, C - F, by tail."""
    return [(u, v) for u, v in enumerate(after) if v != before[u]]


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
        ps_list = [PathSequence.from_arcs(24, []) for _ in range(q)]
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
        ps = PathSequence.from_arcs(24, [(u, v)])
        (f,) = extend_to_one_factors(system, [ps])
        assert f[u] == v
        assert is_permutation(f)


class TestReservoirLedger:
    def test_take_clears_every_arc_or_none(self):
        # clusters 0..3, 4..7 and 8..11 on the cycle 0 -> 1 -> 2 -> 0
        system, _ = blowup_system(3, 4)
        arcs = {(0, 4), (1, 5), (4, 8), (9, 2)}
        ledger = ledger_of(system, arcs)
        # (0, 8) skips a cluster of the cycle; (2, 6) is not held
        for bad in ((0, 8), (2, 6)):
            assert ledger.take([(4, 8), bad]) == bad
            assert arcs_of(ledger, system) == arcs
        assert ledger.take([(0, 4), (9, 2)]) is None
        assert arcs_of(ledger, system) == {(1, 5), (4, 8)}
        assert ledger.take([(0, 4)]) == (0, 4)
        assert ledger.take([]) is None


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
        merged = merge_to_hamilton(f, unused, [self.spec],
                                   rng=random.Random(1))
        assert verify_hamilton_cycle(as_digraph(merged), set(range(12)))
        # one 2-switch joins the two cycles; the merge only reads the ledger
        used = charge(f, merged)
        assert len(used) == 2 and set(used) <= reservoir
        assert arcs_of(unused, self.system) == reservoir

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
        moves = []
        rotate = assembly._rotate
        monkeypatch.setattr(assembly, "_rotate", lambda succ, xs: (
            moves.append(xs), rotate(succ, xs)))
        unused = ledger_of(system, reservoir)
        spec = PairSpec(cluster_index=0, v1=clusters[0], v2=clusters[1])
        merged = merge_to_hamilton(f, unused, [spec], rng=random.Random(seed))
        assert verify_hamilton_cycle(as_digraph(merged), set(range(2 * m)))
        # c - 1 switches take 2(c - 1) arcs; an arc a later switch drops
        # is off the cycle, so the cycle keeps at most that many
        assert [len(xs) for xs in moves] == [2] * (c - 1)
        used = charge(f, merged)
        assert len(used) <= 2 * (c - 1) and set(used) <= reservoir
        assert arcs_of(unused, system) == reservoir

    def test_four_arc_join_without_a_switch(self):
        # no reservoir arc x1 -> succ(x2) from one cycle has its partner
        # x2 -> succ(x1), but x1 = 0 and x2, b, q = 3, 4, 5 on the other
        # cycle have x2 -> succ(x1), x1 -> succ(b), q -> succ(x2) and
        # b -> succ(q)
        f = self.build_two_cycle_factor()
        reservoir = {(3, 6), (0, 10), (5, 9), (4, 11)}
        unused = ledger_of(self.system, reservoir)
        merged = merge_to_hamilton(f, unused, [self.spec],
                                   rng=random.Random(1))
        assert verify_hamilton_cycle(as_digraph(merged), set(range(12)))
        assert charge(f, merged) == sorted(reservoir)
        assert arcs_of(unused, self.system) == reservoir

    def test_no_switch_and_no_replacement_is_retryable(self):
        f = self.build_two_cycle_factor()
        with pytest.raises(HamiltonSearchExhausted) as exc:
            merge_to_hamilton(f, ledger_of(self.system, set()), [self.spec],
                              rng=random.Random(1))
        assert "2 cycles left at pair (0,1), 0 unused reservoir arcs" in \
            str(exc.value)

    def test_exhausted_count_leaves_out_the_arcs_on_the_cycle(self):
        # three 6-cycles and a reservoir of one 2-switch between the first
        # two: after it, 2 cycles are left, and the ledger's two arcs are
        # on the merged cycle, so none is unused
        system, clusters = blowup_system(2, 9)
        arcs = []
        for t in range(3):
            xs, ys = clusters[0][3 * t:3 * t + 3], clusters[1][3 * t:3 * t + 3]
            arcs += [(xs[i], ys[i]) for i in range(3)]
            arcs += [(ys[i], xs[(i + 1) % 3]) for i in range(3)]
        f = succ_of(18, arcs)
        spec = PairSpec(cluster_index=0, v1=clusters[0], v2=clusters[1])
        with pytest.raises(HamiltonSearchExhausted,
                           match=r"^2 cycles left at pair \(0,1\), 0 unused "
                                 r"reservoir arcs in its block"):
            merge_to_hamilton(f, ledger_of(system, {(0, f[3]), (3, f[0])}),
                              [spec], rng=random.Random(1))

    def test_non_factor_replacement_fails_verification(self, monkeypatch):
        # a switch that gives x1 the head of x2 without moving x2's
        def doubled_head(succ, xs):
            x1, x2 = xs[:2]
            succ[x1] = succ[x2]

        monkeypatch.setattr(assembly, "_rotate", doubled_head)
        reservoir = {(u, v) for u in self.v1 for v in self.v2}
        with pytest.raises(AssemblyVerificationFailed):
            merge_to_hamilton(self.build_two_cycle_factor(),
                              ledger_of(self.system, reservoir), [self.spec],
                              rng=random.Random(1))

    def test_identity_when_single_cycle(self):
        verts = list(range(8))
        f = cycle_succ(verts, 8)
        system, _ = blowup_system(2, 4)
        merged = merge_to_hamilton(f, ledger_of(system, set()), [],
                                   rng=random.Random(1))
        assert merged == f

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
        reservoir = {(u, v) for u in self.v1 for v in self.v2
                     if cyc[u] != v}
        unused = ledger_of(self.system, reservoir)
        out = reorder_for_consistency(cyc, unused, self.spec, [0, 3, 1],
                                      rng=random.Random(4))
        assert verify_hamilton_cycle(as_digraph(out), set(range(12)))
        assert set(charge(cyc, out)) <= reservoir
        assert arcs_of(unused, self.system) == reservoir
        order = []
        cur = 0
        for _ in range(12):
            order.append(cur)
            cur = out[cur]
        assert order.index(3) < order.index(1)

    def test_reorder_empty_waypoints_identity(self):
        verts = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        cyc = cycle_succ(verts, 12)
        out = reorder_for_consistency(
            cyc, ledger_of(self.system, set()), self.spec, [],
            rng=random.Random(4))
        assert out is cyc

    def test_reorder_waypoints_outside_v1(self):
        verts = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        cyc = cycle_succ(verts, 12)
        with pytest.raises(MalformedInput):
            reorder_for_consistency(
                cyc, ledger_of(self.system, set()), self.spec, [6, 0, 1],
                rng=random.Random(4))


@st.composite
def reorder_cases(draw):
    """A random winding Hamilton cycle of the 2-cluster blow-up with
    clusters of size m, a random V^1 inside V_0 with V^2 its successors,
    3 to 5 waypoints of V^1 in random order, random ledger blocks that
    hold no arc of the cycle, and a seed for the moves."""
    m = draw(st.integers(5, 12))
    system, (c0, c1) = blowup_system(2, m)
    xs, ys = draw(st.permutations(c0)), draw(st.permutations(c1))
    succ = cycle_succ([v for pair in zip(xs, ys) for v in pair], 2 * m)
    v1 = tuple(sorted(draw(st.permutations(c0))[:draw(st.integers(3, m))]))
    k = draw(st.integers(3, min(5, len(v1))))
    waypoints = list(draw(st.permutations(v1))[:k])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.floats(0.2, 1.0))
    on_cycle = np.array([[succ[u] == v for v in heads]
                         for (tails, heads, _mat) in system.pairs
                         for u in tails]).reshape(2, m, m)
    ledger = ReservoirLedger(system, list((rng.random((2, m, m)) < density)
                                          & ~on_cycle))
    spec = PairSpec(cluster_index=0, v1=v1,
                    v2=tuple(sorted(succ[x] for x in v1)))
    return system, succ, ledger, spec, waypoints, draw(st.integers(0, 99))


class TestReorderByBlockMoves:
    @given(reorder_cases())
    @settings(max_examples=150, deadline=None)
    def test_in_order_and_charged_exactly_or_exhausted(self, case):
        system, succ, ledger, spec, waypoints, seed = case
        before = arcs_of(ledger, system)
        try:
            out = reorder_for_consistency(succ, ledger, spec, waypoints,
                                          rng=random.Random(seed))
        except HamiltonSearchExhausted:
            assert arcs_of(ledger, system) == before
            return
        n = len(succ)
        assert verify_hamilton_cycle(as_digraph(out), set(range(n)))
        order, cur = [], waypoints[0]
        for _ in range(n):
            order.append(cur)
            cur = out[cur]
        assert visits_in_order(order, waypoints)
        changed = charge(succ, out)
        assert all(u in spec.v1 for (u, _v) in changed)
        assert set(changed) <= before
        assert arcs_of(ledger, system) == before


    def test_an_arc_a_move_drops_is_free_for_the_next(self, monkeypatch):
        # every arc off the cycle is in the ledger; the block moves drop
        # the reservoir arc (1, 6) that an earlier one took, and a later
        # move takes it again.  With the arcs a move drops kept out of
        # reach until the reorder ends, no move is left after the second
        system, _ = blowup_system(2, 5)
        succ = cycle_succ([0, 5, 4, 8, 2, 7, 1, 9, 3, 6], 10)
        reservoir = {(u, v) for u in range(5) for v in range(5, 10)
                     if succ[u] != v}
        ledger = ledger_of(system, reservoir)
        spec = PairSpec(cluster_index=0, v1=tuple(range(5)),
                        v2=tuple(range(5, 10)))
        dropped = []
        rotate = assembly._rotate
        monkeypatch.setattr(assembly, "_rotate", lambda succ, xs: (
            dropped.append([(x, succ[x]) for x in xs]), rotate(succ, xs)))
        waypoints = [0, 3, 2, 4, 1]
        out = reorder_for_consistency(succ, ledger, spec, waypoints,
                                      rng=random.Random(79))
        order, cur = [], 0
        for _ in range(10):
            order.append(cur)
            cur = out[cur]
        assert visits_in_order(order, waypoints)
        assert (1, 6) in charge(succ, out)
        assert any((1, 6) in arcs for arcs in dropped[1:-1])
        assert arcs_of(ledger, system) == reservoir


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
        ps0 = PathSequence.from_arcs(n, [(0, 1), (2, 3), (48, 12),
                                         (49, 13)])
        m1 = OrderedDirectedMatching(())
        ps1 = PathSequence.from_arcs(n, [])
        m2 = OrderedDirectedMatching(((24, 25), (26, 27), (28, 29)))
        ps2 = PathSequence.from_arcs(n, [(24, 25), (26, 27), (28, 29),
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
        for s, order in enumerate(asm.cycles):
            # each cycle comes as a plain vertex order
            assert type(order) is list
            assert all(type(v) is int for v in order)
            cyc = Digraph(n, zip(order, order[1:] + order[:1]))
            assert verify_hamilton_cycle(cyc, set(range(n)))
            assert is_consistent_with(cyc, be.matchings[s])
            assert set(be.path_sequences[s].items()) <= set(cyc._arcs)
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

    def test_no_move_left_names_the_slot_and_pair_fast(self):
        # a reservoir of arcs x -> succ(y) with x and y on the same cycle
        # of slot 0's 1-factor holds neither a 2-switch nor a 4-arc join
        sys2, blocks, be = self.slice_inputs()
        f = extend_to_one_factors(sys2, be.path_sequences)[0]
        cycle_of = {v: k for k, cyc in enumerate(assembly._cycles(
            f, assembly._support(f))) for v in cyc}
        ps = be.path_sequences[0]
        blocks = [np.zeros_like(block) for block in blocks]
        for block, (tails, heads, _mat) in zip(blocks, sys2.pairs):
            for a, x in enumerate(tails):
                for y in tails:
                    if (cycle_of[x] == cycle_of[y] and x != y
                            and y not in ps):
                        block[a, heads.index(f[y])] = True
        t0 = time.perf_counter()
        with pytest.raises(HamiltonSearchExhausted,
                           match=r"^slot 0: 5 cycles left at pair "
                                 r"\(\d+,\d+\), [1-9]\d* unused reservoir "
                                 r"arcs in its block: no 2-switch or 4-arc "
                                 r"join left$"):
            assemble_slice(sys2, be, blocks, seed=5)
        assert time.perf_counter() - t0 < 1.0

    def test_a_charge_off_the_ledger_fails_verification(self, monkeypatch):
        # moves that take any arc of the pair, held by the ledger or not
        sys2, blocks, be = self.slice_inputs()
        monkeypatch.setattr(assembly, "_arc_matrix", lambda succ, xs, ledger,
                            ci: ~np.eye(len(xs), dtype=bool))
        with pytest.raises(AssemblyVerificationFailed,
                           match=r"^slot \d+: replacement arc \(\d+, \d+\) "
                                 r"is not an unused reservoir arc$"):
            assemble_slice(sys2, be, [np.zeros_like(b) for b in blocks],
                           seed=5)

    def test_misaligned_reservoir_rejected(self):
        sys2, blocks, be = self.slice_inputs()
        for bad in (blocks[:-1], [block[:, :-1] for block in blocks]):
            with pytest.raises(MalformedInput):
                assemble_slice(sys2, be, bad, seed=5)
