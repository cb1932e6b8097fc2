import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamdec import cyclic
from hamdec.classic import pack_rows, pair_matrix
from hamdec.core import Digraph, Multigraph, winds_around
from hamdec.cyclic import (_extract_regular_parts, _superregular_report,
                           check_robust_outexpander, check_superregular,
                           reserve_regular, reserve_sparse, sysdecom,
                           sysdecombip, two_cliques_reserve_degree,
                           bipartite_reserve_degree)
from hamdec.errors import InvalidParameter, SamplingFailed
from hamdec.exceptional import (build_fictive_bipartite,
                                build_fictive_two_cliques)
from hamdec.pipeline import InstanceConfig, generate_instance


def complete_pair(m, thin=0, seed=0):
    left = list(range(m))
    right = list(range(m, 2 * m))
    rng = random.Random(seed)
    skips = set(rng.sample(range(m), thin)) if thin else set()
    edges = [(u, m + (u + s) % m) for u in range(m) for s in range(m)
             if s not in skips]
    return Multigraph(2 * m, edges), left, right


class TestSuperregular:
    def test_complete_k88_exhaustive(self):
        g, left, right = complete_pair(8)
        rep = check_superregular(g, left, right, eps=0.5, d=1.0, d_star=1.0,
                                 c=1.0)
        assert rep.all_ok and rep.reg1_mode == "exhaustive"

    def test_empty_fails_reg4(self):
        g = Multigraph(16)
        rep = check_superregular(g, list(range(8)), list(range(8, 16)),
                                 eps=0.5, d=0.0, d_star=0.1, c=1.0)
        assert not rep.reg4_ok

    def test_codegree_exact(self):
        # two left vertices sharing 3 neighbours
        g = Multigraph(8, [(0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6)])
        rep = check_superregular(g, [0, 1, 2, 3], [4, 5, 6, 7], eps=0.5,
                                 d=0.2, d_star=0.0, c=0.5)
        assert rep.max_codegree == 3
        assert not rep.reg2_ok  # c^2 m = 1 < 3

    def test_sampled_mode_on_larger_pair(self):
        g, left, right = complete_pair(40)
        rep = check_superregular(g, left, right, eps=0.2, d=1.0, d_star=0.9,
                                 c=1.1, mode="sampled", trials=50,
                                 rng=random.Random(1))
        assert rep.all_ok and rep.reg1_mode == "sampled"

    def test_restriction_stability(self):
        # removing few edges per vertex keeps the relaxed verdicts
        # (instance check of the slicing observation)
        m = 60
        g, left, right = complete_pair(m)
        h, _, rep = reserve_sparse(g, left, right, mu=0.0, gamma=0.15,
                                   eps=0.5, rng_seed=5)
        eps, d, d_star, c = 0.5, 0.3, 0.15, 0.45
        assert rep.all_ok
        # remove up to eps^2*d*m edges at each vertex (here: one matching)
        drop = []
        used = set()
        for (u, v) in h.support():
            if u not in used and v not in used:
                drop.append((u, v))
                used.update((u, v))
        h2 = h - Multigraph(h.n, drop)
        rep2 = check_superregular(h2, left, right, 2 * eps, d,
                                  d_star - eps ** 2 * d, c,
                                  mode="sampled", trials=100,
                                  rng=random.Random(7))
        assert rep2.reg2_ok and rep2.reg3_ok and rep2.reg4_ok

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_reg1_catches_block_diagonal(self, seed):
        # two complete 20 x 20 blocks: every degree is 20, so d = 0.5 and
        # only sets leaning to one block give it away.  Uniform random sets
        # lean little: at eps = 0.2, 200 trials miss it for 3 seeds in 4,
        # at eps = 0.1 they caught it for each of 100 seeds tried
        m = 40
        g = Multigraph(2 * m, [(u, m + v) for u in range(m) for v in range(m)
                               if u // 20 == v // 20])
        rep = check_superregular(g, list(range(m)), list(range(m, 2 * m)),
                                 eps=0.1, d=0.5, d_star=0.5, c=0.5,
                                 mode="sampled", rng=random.Random(seed))
        assert rep.reg3_ok and rep.reg4_ok
        assert not rep.reg1_ok
        assert rep.worst_density_ratio > 1.1

    def test_sampled_complete_pair_ratio_is_one(self):
        g, left, right = complete_pair(40)
        rep = check_superregular(g, left, right, eps=0.2, d=1.0, d_star=0.9,
                                 c=1.1, mode="sampled", trials=120,
                                 rng=random.Random(2))
        assert rep.reg1_ok and rep.worst_density_ratio == 1.0
        assert rep.pairs_tested == 120

    def test_sampled_same_seed_same_report(self):
        g, left, right = complete_pair(40, thin=10, seed=3)
        reps = [check_superregular(g, left, right, eps=0.2, d=0.75,
                                   d_star=0.5, c=1.0, mode="sampled",
                                   rng=random.Random(9)).to_json_obj()
                for _ in range(2)]
        assert reps[0] == reps[1]
        assert reps[0]["worst_density_ratio"] > 1.0

    def test_sampled_matches_loop_reference(self):
        # the same draws, with e(A, B) and the gate worked out set by set
        m, trials, eps = 30, 60, 0.2
        g, left, right = complete_pair(m, thin=9, seed=4)
        mat = pair_matrix(g, left, right)
        mat[0, 0] += 1  # one doubled edge
        d = 21 / m
        rep = _superregular_report(mat, eps, d, d / 2, 1.0, "sampled",
                                   trials, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        size_a = rng.integers(math.ceil(eps * m), m, size=trials,
                              endpoint=True)
        size_b = rng.integers(math.ceil(eps * m), m, size=trials,
                              endpoint=True)
        ranks = rng.permuted(np.tile(np.arange(m), (2 * trials, 1)), axis=1)
        worst, ok = 1.0, True
        for t in range(trials):
            a = [i for i in range(m) if ranks[t, i] < size_a[t]]
            b = [j for j in range(m) if ranks[trials + t, j] < size_b[t]]
            assert (len(a), len(b)) == (size_a[t], size_b[t])
            dens = sum(int(mat[i, j]) for i in a for j in b) / (len(a) * len(b))
            worst = max(worst, dens / d, d / dens)
            ok = ok and (1 - eps) * d - 1e-12 <= dens <= (1 + eps) * d + 1e-12
        assert rep.worst_density_ratio == pytest.approx(worst, rel=1e-12)
        assert rep.reg1_ok == ok and rep.pairs_tested == trials

    def test_sampled_zero_trials(self):
        g, left, right = complete_pair(20)
        rep = check_superregular(g, left, right, eps=0.2, d=1.0, d_star=0.9,
                                 c=1.1, mode="sampled", trials=0)
        assert rep.reg1_ok and rep.pairs_tested == 0

    def test_unknown_mode_rejected(self):
        g, left, right = complete_pair(8)
        with pytest.raises(InvalidParameter):
            check_superregular(g, left, right, eps=0.5, d=1.0, d_star=1.0,
                               c=1.0, mode="exhaustiv")

    def test_exhaustive_above_limit_rejected(self):
        # m = 13 is one above EXHAUSTIVE_REG1_LIMIT
        g, left, right = complete_pair(13)
        with pytest.raises(InvalidParameter):
            check_superregular(g, left, right, eps=0.5, d=1.0, d_star=1.0,
                               c=1.0, mode="exhaustive")



# one word, a partial word, exactly one and two words, and several
WORD_SIZES = [1, 40, 63, 64, 65, 80, 130]


def multiplicity_matrix(gen, m, top):
    """An m x m matrix whose nonzero entries, about half, lie in 1..top."""
    return (gen.random((m, m)) < gen.random()) * gen.integers(1, top + 1,
                                                              (m, m))


class TestPackedKernels:
    """The popcount kernels of _superregular_report against the int64
    products they replaced."""

    @given(st.sampled_from(WORD_SIZES), st.sampled_from([1, 2, 3, 7, 255]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_codegrees_equal_the_int64_product(self, m, top, seed):
        mat = multiplicity_matrix(np.random.default_rng(seed), m, top)
        amat = (mat > 0).astype(np.int64)
        for side, prod in ((mat > 0, amat @ amat.T),
                           ((mat > 0).T, amat.T @ amat)):
            np.fill_diagonal(prod, 0)
            co = cyclic._codegrees(pack_rows(side))
            assert co.dtype == np.int64 and (co == prod).all()

    @given(st.sampled_from(WORD_SIZES), st.sampled_from([1, 2, 3, 7, 255]),
           st.integers(0, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_edge_counts_equal_the_int64_product(self, m, top, trials, seed):
        gen = np.random.default_rng(seed)
        mat = multiplicity_matrix(gen, m, top)
        ind_a = gen.random((trials, m)) < gen.random((trials, 1))
        ind_b = gen.random((trials, m)) < gen.random((trials, 1))
        expected = ((ind_a.astype(np.int64) @ mat) * ind_b).sum(axis=1)
        for dtype in (np.int64, np.uint8):
            e_ab = cyclic._edge_counts(mat.astype(dtype), ind_a, ind_b)
            assert e_ab.dtype == np.int64 and (e_ab == expected).all()

    def test_uint8_pair_gives_the_int64_report(self):
        # the slices' pair matrices are uint8; reports must not notice
        mat = (np.random.default_rng(3).random((80, 80)) < 0.6).astype(
            np.int64)
        reports = [_superregular_report(mat.astype(dtype), 0.2, 0.6, 0.3,
                                        0.9, "sampled", 200,
                                        np.random.default_rng(8)).to_json_obj()
                   for dtype in (np.int64, np.uint8)]
        assert reports[0] == reports[1]
        co_l, co_r = mat @ mat.T, mat.T @ mat
        np.fill_diagonal(co_l, 0)
        np.fill_diagonal(co_r, 0)
        assert reports[0]["max_codegree"] == max(co_l.max(), co_r.max())


class TestRobustOutexpander:
    def test_complete_digraph(self):
        n = 10
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        verdict = check_robust_outexpander(d, nu=0.05, tau=0.2)
        assert verdict.ok and verdict.mode == "exhaustive"

    def test_directed_cycle_fails(self):
        n = 10
        d = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
        verdict = check_robust_outexpander(d, nu=0.2, tau=0.2)
        assert not verdict.ok
        assert verdict.violating_set is not None

    def test_sampled_mode(self):
        n = 30
        rng = random.Random(3)
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.7}
        d = Digraph(n, arcs)
        verdict = check_robust_outexpander(d, nu=0.1, tau=0.25,
                                           mode="sampled", trials=300,
                                           rng=random.Random(4))
        assert verdict.ok and verdict.sets_tested == 300

    def test_unknown_mode_rejected(self):
        d = Digraph(4, [(i, (i + 1) % 4) for i in range(4)])
        with pytest.raises(InvalidParameter):
            check_robust_outexpander(d, nu=0.1, tau=0.25, mode="sample")


class TestReserveSparse:
    def test_k200_spec_example(self):
        # the stated outcome bounds on a complete pair: degree window and
        # a loose codegree cap, checked on a direct sample
        m = 200
        g, left, right = complete_pair(m)
        rng = random.Random(99)
        h_edges = [e for e in g.support() if rng.random() < 0.2]
        h = Multigraph(g.n, h_edges)
        rep = check_superregular(h, left, right, eps=0.5, d=0.2, d_star=0.1,
                                 c=0.3, mode="sampled", trials=50,
                                 rng=random.Random(1))
        assert rep.max_degree <= 60
        assert rep.min_degree >= 20
        assert rep.max_codegree <= 900
        g2 = g - h
        assert all((1 - 0.4) * m <= g2.degree(v) <= (1 + 0.4) * m
                   for v in left + right)

    def test_degenerate_gamma_fails_fast(self):
        g, left, right = complete_pair(10)
        with pytest.raises(SamplingFailed):
            reserve_sparse(g, left, right, mu=0.0, gamma=0.03, eps=0.5,
                           rng_seed=1)

    def test_near_regular_host(self):
        m = 100
        g, left, right = complete_pair(m, thin=15, seed=2)  # 85-regular
        h, g2, rep = reserve_sparse(g, left, right, mu=0.15, gamma=0.15,
                                    eps=0.5, rng_seed=3)
        assert rep.all_ok
        assert h + g2 == g
        lo, hi = (1 - 0.15 - 0.6) * m, (1 - 0.15 + 0.6) * m
        assert all(lo <= g2.degree(v) <= hi for v in left + right)

    def test_reserve_regular_exact_degrees(self):
        m = 40
        g, left, right = complete_pair(m, thin=4, seed=5)
        mat = pair_matrix(g, left, right)
        before = mat.copy()
        chosen, rep = reserve_regular(mat, degree=10, eps=0.5, rng_seed=6)
        taken = before - mat
        assert (taken.sum(axis=0) == 10).all()
        assert (taken.sum(axis=1) == 10).all()
        assert rep.reg3_ok and rep.reg4_ok
        assert (mat >= 0).all()

    def test_reserve_regular_keeps_the_rest(self):
        # exactly the chosen entries leave the matrix; the rest stays
        m = 40
        g, left, right = complete_pair(m, thin=4, seed=5)
        mat = pair_matrix(g, left, right)
        before = mat.copy()
        chosen, rep = reserve_regular(mat, degree=10, eps=0.5, rng_seed=6)
        assert chosen.shape == (10, m)
        assert (before - mat == matchings_matrix(chosen)).all()

    def test_reserve_regular_multiplicity_two(self):
        # a doubled pair edge can be taken by two matchings, not by three
        m = 40
        g, left, right = complete_pair(m, thin=4, seed=5)
        g = g + Multigraph(2 * m, [(left[0], right[0])])
        mat = pair_matrix(g, left, right)
        assert mat[0, 0] == 2
        chosen, rep = reserve_regular(mat, degree=10, eps=0.5, rng_seed=6)
        taken = int((chosen[:, 0] == 0).sum())
        assert taken <= 2
        assert mat[0, 0] == 2 - taken

    @pytest.mark.parametrize("case", ["no-matching", "gate"])
    def test_reserve_regular_failure_leaves_matrix(self, case):
        g, left, right = complete_pair(40, thin=4, seed=5)
        mat = pair_matrix(g, left, right)
        if case == "no-matching":
            # left 0 keeps one edge, so two perfect matchings cannot exist
            mat[0, 1:] = 0
            kwargs = dict(degree=2, eps=0.5)
        else:
            # eps = 0 asks every sampled density to be exactly d: Reg1 fails
            kwargs = dict(degree=10, eps=0.0)
        before = mat.copy()
        with pytest.raises(SamplingFailed) as exc:
            reserve_regular(mat, rng_seed=1, **kwargs)
        assert (mat == before).all()
        check = "matching" if case == "no-matching" else "Reg1"
        assert exc.value.failures == {check: 1}


class TestReserveDegrees:
    def test_formula_values(self):
        f, used, notes = two_cliques_reserve_degree(
            K=3, m=2000, eps0=1e-4, mu=0.0, rho=0.1, max_matching=3)
        assert f == math.floor(10 * 3 * 0.01 * 2000) == 600
        assert used == f and not notes  # fits the budget share

    def test_clamping(self):
        f, used, notes = two_cliques_reserve_degree(
            K=5, m=40, eps0=0.005, mu=0.0125, rho=0.1, max_matching=2)
        assert f == math.floor(10 * 5 * math.sqrt(0.005) * 40)
        assert used == 4 and notes

    def test_bipartite_formula(self):
        f, used, notes = bipartite_reserve_degree(
            K=4, m=4000, eps0=1e-4, mu=0.0, rho=0.1, need=8)
        assert f == math.floor((44 + 62) * 1e-4 * 4000)
        assert used == f and not notes


class TestRandomRegularSubgraph:
    @given(st.integers(1, 70), st.integers(0, 6), st.floats(0.2, 1.0),
           st.integers(0, 2**32 - 1), st.sampled_from([np.int64, np.uint8]))
    @settings(max_examples=80, deadline=None)
    def test_draw_on_small_multiplicities(self, m, degree, density, seed,
                                          dtype):
        # a residual of 0/1/2 entries: the draw takes ``degree`` perfect
        # matchings out of it, or starves and leaves it as it was
        gen = np.random.default_rng(seed)
        before = ((gen.random((m, m)) < density)
                  * gen.integers(1, 3, (m, m))).astype(dtype)
        res = before.copy()
        cols = cyclic._random_regular_subgraph(res, degree,
                                               np.random.default_rng(seed))
        assert res.dtype == dtype
        if cols is None:
            assert (res == before).all()
            return
        assert cols.shape == (degree, m)
        taken = matchings_matrix(cols)
        assert (taken <= before).all()
        assert (taken == before.astype(np.int64) - res).all()


class TestExtractRegularParts:
    def test_starved_fallback(self, monkeypatch):
        # random perfect-matching extraction starves on this pair at
        # rng seed 4, so the flow + 1-factorization fallback runs
        left, right = list(range(6)), list(range(6, 12))
        g = Multigraph(12, [(0, 7), (0, 8), (0, 10), (1, 6), (1, 9),
                            (2, 7), (2, 9), (3, 10), (3, 11), (4, 8),
                            (4, 11), (5, 6), (5, 7), (5, 11)])
        flows = []
        flow = cyclic.regular_spanning_subgraph
        monkeypatch.setattr(cyclic, "regular_spanning_subgraph",
                            lambda *args, **kwargs: flows.append(args)
                            or flow(*args, **kwargs))
        res = pair_matrix(g, left, right)
        parts = _extract_regular_parts(res, left, right, 2, 1,
                                       np.random.default_rng(4))
        assert len(flows) == 1
        assert [part.shape for part in parts] == [(1, 6), (1, 6)]
        total = sum(matchings_matrix(part) for part in parts)
        assert (total <= 1).all()
        assert (total + res == pair_matrix(g, left, right)).all()

    def test_multiplicity_two_edge(self):
        # left 0 reaches right 4 only, by a doubled edge, so both
        # 1-regular parts use it; the rest is K_{3,3}
        left, right = list(range(4)), list(range(4, 8))
        g = Multigraph(8, [(0, 4, 2)] + [(u, v) for u in (1, 2, 3)
                                        for v in (5, 6, 7)])
        res = pair_matrix(g, left, right)
        parts = _extract_regular_parts(res, left, right, 2, 1,
                                       np.random.default_rng(0))
        assert [part.shape for part in parts] == [(1, 4), (1, 4)]
        total = sum(matchings_matrix(part) for part in parts)
        assert total[0, 0] == 2
        assert (res == pair_matrix(g, left, right) - total).all()


def system_arcs(slc):
    """The arcs of a slice's cyclic system, read from its arc matrices."""
    return [(tails[a], heads[b]) for (tails, heads, mat) in slc.pairs
            for a, b in zip(*np.nonzero(mat))]


def matchings_matrix(cols):
    """The multiplicity matrix of the perfect matchings ``cols`` (entry
    [k, p] the column matched to row p by the k-th), after checking that
    each is a perfect matching."""
    k, m = cols.shape
    assert (np.sort(cols, axis=1) == np.arange(m)).all()
    mat = np.zeros((m, m), dtype=np.int64)
    np.add.at(mat, (np.broadcast_to(np.arange(m), cols.shape), cols), 1)
    return mat


def reserve_matrix(slc, ci, cj, r):
    """The slice's reserve between clusters ci and cj, after checking that
    it holds exactly r perfect matchings."""
    assert slc.reserve[ci, cj].shape == (r, slc.q.m)
    return matchings_matrix(slc.reserve[ci, cj])


def assert_pairs_sum_to_host(slices, host, pairs, r):
    """For each cluster pair (ci, cj), every slice's reserve holds r
    perfect matchings, and the reserves of all slices plus the residual
    that one slice keeps as a cycle edge sum to the host's pair matrix."""
    q = slices[0].q
    for (ci, cj) in pairs:
        total = sum(reserve_matrix(slc, ci, cj, r) for slc in slices)
        kept = [mat if edge == (ci, cj) else mat.T
                for slc in slices
                for edge, (_t, _h, mat) in zip(slc.cycle.edges(), slc.pairs)
                if set(edge) == {ci, cj}]
        assert len(kept) == 1
        assert (total + kept[0]
                == pair_matrix(host, q.cluster(ci), q.cluster(cj))).all()


@pytest.fixture(scope="module")
def two_cliques_decomposed():
    cfg = InstanceConfig.two_cliques_default(seed=12)
    host, partition, systems = generate_instance(cfg)
    reductions = [build_fictive_two_cliques(es) for es in systems]
    a_slices, b_slices, quotas = sysdecom(host, partition, systems,
                                          reductions, mu=cfg.mu,
                                          rho=cfg.rho, seed=12)
    return cfg, host, partition, systems, a_slices, b_slices, quotas


class TestSysdecom:
    def test_cluster_cycles_cover(self, two_cliques_decomposed):
        cfg, host, P, systems, a_slices, b_slices, quotas = \
            two_cliques_decomposed
        assert len(a_slices) == (cfg.K - 1) // 2
        seen = set()
        for slc in a_slices:
            seen |= slc.cycle.undirected_edge_set()
        assert len(seen) == cfg.K * (cfg.K - 1) // 2

    def test_slot_partition(self, two_cliques_decomposed):
        cfg, host, P, systems, a_slices, b_slices, quotas = \
            two_cliques_decomposed
        a_idx = [slot.es_index for slc in a_slices for slot in slc.slots]
        assert sorted(a_idx) == list(range(len(systems)))
        b_idx = [slot.es_index for slc in b_slices for slot in slc.slots]
        assert sorted(b_idx) == list(range(len(systems)))

    def test_reserve_regularity_exact(self, two_cliques_decomposed):
        cfg, host, P, systems, a_slices, b_slices, quotas = \
            two_cliques_decomposed
        r = quotas.reserve_degree_used
        for slc in a_slices:
            for i in range(cfg.K):
                for ip in range(i + 1, cfg.K):
                    mat = reserve_matrix(slc, i, ip, r)
                    assert (mat.sum(axis=0) == r).all()
                    assert (mat.sum(axis=1) == r).all()

    def test_edge_disjointness_ledger(self, two_cliques_decomposed):
        cfg, host, P, systems, a_slices, b_slices, quotas = \
            two_cliques_decomposed
        for slices in (a_slices, b_slices):
            assert_pairs_sum_to_host(
                slices, host, [(i, ip) for i in range(cfg.K)
                               for ip in range(i + 1, cfg.K)],
                quotas.reserve_degree_used)

    def test_winding_and_slot_bounds(self, two_cliques_decomposed):
        cfg, host, P, systems, a_slices, b_slices, quotas = \
            two_cliques_decomposed
        for slc in a_slices:
            assert winds_around(Digraph(slc.n, system_arcs(slc)), slc.q,
                                slc.cycle)
            for slot in slc.slots:
                assert len(slot.matching) <= quotas.matching_size_bound
                verts = slot.matching.vertices()
                assert verts <= set(slc.q.cluster(slot.cluster_index))

    def test_cyclic_system_window(self, two_cliques_decomposed):
        cfg, host, P, systems, a_slices, b_slices, quotas = \
            two_cliques_decomposed
        for slc in a_slices + b_slices:
            slc.validate()


class TestSysdecomUnclamped:
    def test_reserve_matches_formula_when_feasible(self):
        # with no exceptional vertices eps0 can sit below the feasibility
        # threshold, so the reserve degree equals its formula value and
        # every pair is exactly that regular
        cfg = InstanceConfig(mode="two-cliques", K=3, m=60, a0_size=0,
                             b0_size=0, eps0=7.9e-4, mu=0.0, rho=0.1,
                             gamma=0.15, hes_count=6, mes_count=0, seed=41)
        host, P, systems = generate_instance(cfg)
        reductions = [build_fictive_two_cliques(es) for es in systems]
        a_slices, b_slices, quotas = sysdecom(host, P, systems, reductions,
                                              mu=cfg.mu, rho=cfg.rho,
                                              seed=41)
        formula = math.floor(10 * cfg.K * math.sqrt(cfg.eps0) * cfg.m)
        assert quotas.reserve_degree_used == formula == 50
        assert not quotas.notes
        for slc in a_slices:
            reserve_matrix(slc, 0, 1, formula)


class TestSysdecombip:
    def test_invariants(self):
        cfg = InstanceConfig.bipartite_default(seed=21)
        host, P, systems = generate_instance(cfg)
        reductions = [build_fictive_bipartite(es) for es in systems]
        slices, quotas = sysdecombip(host, P, systems, reductions,
                                     mu=cfg.mu, rho=cfg.rho, seed=21)
        assert len(slices) == cfg.K // 2
        idx = [slot.es_index for slc in slices for slot in slc.slots]
        assert sorted(idx) == list(range(len(systems)))
        r = quotas.reserve_degree_used
        assert quotas.reserve_inner + quotas.reserve_outer == r
        a_side = set(P.A)
        for slc in slices:
            assert winds_around(Digraph(slc.n, system_arcs(slc)), slc.q,
                                slc.cycle)
            slc.validate()
            assert all((u in a_side) != (v in a_side)
                       for (u, v) in system_arcs(slc))
            # reserves only between an A-cluster and a B-cluster
            assert sorted(slc.reserve) == [(i, cfg.K + ip)
                                           for i in range(cfg.K)
                                           for ip in range(cfg.K)]
        assert_pairs_sum_to_host(
            slices, host, [(i, cfg.K + ip) for i in range(cfg.K)
                           for ip in range(cfg.K)], r)



def small_instance(mode):
    """A small instance of the mode, with both system kinds when it has
    them."""
    if mode == "two-cliques":
        cfg = InstanceConfig(mode=mode, K=3, m=24, a0_size=2, b0_size=2,
                             eps0=0.06, mu=0.0, gamma=0.18, hes_count=3,
                             mes_count=2, seed=1)
    else:
        cfg = InstanceConfig(mode=mode, K=2, m=20, eps0=0.05, mu=0.0,
                             gamma=0.15, hes_count=0, bes_count=2, seed=1)
    return generate_instance(cfg)


class TestWrongKindReductions:
    # each decomposer names the reductions it needs before it reads them
    def test_sysdecom_rejects_bipartite_reductions(self):
        host, P, systems = small_instance("two-cliques")
        wrong = [build_fictive_bipartite(es)
                 for es in small_instance("bipartite")[2]]
        with pytest.raises(InvalidParameter,
                           match="two-cliques reductions required"):
            sysdecom(host, P, systems, wrong)

    def test_sysdecombip_rejects_two_cliques_reductions(self):
        host, P, systems = small_instance("bipartite")
        wrong = [build_fictive_two_cliques(es)
                 for es in small_instance("two-cliques")[2]]
        with pytest.raises(InvalidParameter,
                           match="bipartite reductions required"):
            sysdecombip(host, P, systems, wrong)
