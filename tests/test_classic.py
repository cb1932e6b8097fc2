import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamdec import classic
from hamdec.classic import (bipartite_hamilton_decompose, hopcroft_karp,
                            pair_matrix, regular_bipartite_to_matchings,
                            regular_spanning_subgraph, take_matching,
                            walecki_decompose)
from hamdec.core import Multigraph
from hamdec.errors import (DegreeHypothesisViolated, InvalidParameter,
                           MatchingInfeasible)
from test_reference import RefMultigraph


def cycle_edges(cluster_cycle):
    return cluster_cycle.undirected_edge_set()


class TestWalecki:
    @pytest.mark.parametrize("K", [3, 5, 7, 9, 11])
    def test_exact_decomposition(self, K):
        cycles = walecki_decompose(K)
        assert len(cycles) == (K - 1) // 2
        seen = set()
        for c in cycles:
            assert sorted(c.order) == list(range(K))
            edges = cycle_edges(c)
            assert len(edges) == K
            assert not (edges & seen)
            seen |= edges
        assert len(seen) == K * (K - 1) // 2

    def test_k3_is_triangle(self):
        (c,) = walecki_decompose(3)
        assert sorted(c.order) == [0, 1, 2]

    @pytest.mark.parametrize("K", [2, 4, 1])
    def test_invalid(self, K):
        with pytest.raises(InvalidParameter):
            walecki_decompose(K)


class TestBipartiteDecompose:
    @pytest.mark.parametrize("K", [2, 4, 6, 8])
    def test_exact_decomposition(self, K):
        cycles = bipartite_hamilton_decompose(K)
        assert len(cycles) == K // 2
        seen = set()
        for c in cycles:
            assert sorted(c.order) == list(range(2 * K))
            for t, ci in enumerate(c.order):
                nxt = c.order[(t + 1) % (2 * K)]
                assert (ci < K) != (nxt < K), "must alternate sides"
            edges = cycle_edges(c)
            assert not (edges & seen)
            seen |= edges
        assert len(seen) == K * K

    def test_k2(self):
        (c,) = bipartite_hamilton_decompose(2)
        assert len(c.order) == 4

    @pytest.mark.parametrize("K", [3, 1, 0])
    def test_invalid(self, K):
        with pytest.raises(InvalidParameter):
            bipartite_hamilton_decompose(K)


def complete_bipartite(m):
    left = list(range(m))
    right = list(range(m, 2 * m))
    return Multigraph(2 * m, [(u, v) for u in left for v in right]), left, right


def shifted_regular(m, shifts, n_offset=0):
    left = list(range(n_offset, n_offset + m))
    right = list(range(n_offset + m, n_offset + 2 * m))
    edges = [(left[x], right[(x + s) % m]) for x in range(m) for s in shifts]
    return Multigraph(n_offset + 2 * m, edges), left, right


def sub_graph(n, sub, left, right):
    """The Multigraph of the multiplicity matrix ``sub`` on left x right."""
    return Multigraph(n, [(left[i], right[j], int(sub[i, j]))
                          for i, j in zip(*np.nonzero(sub))])


def reference_pair_matrix(graph, left, right):
    """pair_matrix as it was when it read the adjacency rows of ``left``,
    kept frozen here so that the dense cache must give the same matrix;
    it reads the graph as the frozen dict multigraph."""
    graph = RefMultigraph(graph.n, graph.edges())
    col = np.full(graph.n, -1, dtype=np.intp)
    col[list(right)] = np.arange(len(right))
    adj = graph._adjacency()
    mat = np.zeros((len(left), len(right)), dtype=np.int64)
    for i, u in enumerate(left):
        row = adj.get(u)
        if row:
            js = col[np.fromiter(row, dtype=np.intp, count=len(row))]
            ks = np.fromiter(row.values(), dtype=np.int64, count=len(row))
            mat[i, js[js >= 0]] = ks[js >= 0]
    return mat


@st.composite
def multigraphs(draw, n):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(1, 3)).filter(lambda e: e[0] != e[1])
    return Multigraph(n, draw(st.lists(pairs, max_size=3 * n)))


@st.composite
def pair_matrix_cases(draw):
    """A multigraph, possibly the result of ``+``, ``-`` or ``restrict``,
    and two lists of distinct vertices in random order."""
    n = draw(st.integers(2, 14))
    left = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    right = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    g = draw(multigraphs(n))
    # fill the operand's cache first: a result of +, - or restrict must
    # build its own
    pair_matrix(g, left, right)
    op = draw(st.sampled_from(["plain", "add", "sub", "restrict"]))
    if op == "add":
        g = g + draw(multigraphs(n))
    elif op == "sub":
        g = g - draw(multigraphs(n))
    elif op == "restrict":
        g = g.restrict(draw(st.sets(st.integers(0, n - 1))))
    return g, left, right


class TestPairMatrix:
    @given(pair_matrix_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_frozen_per_row_version(self, drawn):
        g, left, right = drawn
        got = pair_matrix(g, left, right)
        assert got.dtype == np.int64
        assert got.shape == (len(left), len(right))
        assert (got == reference_pair_matrix(g, left, right)).all()

    def test_in_place_decrement_leaves_the_graph(self):
        g, left, right = complete_bipartite(6)
        res = pair_matrix(g, left, right)
        take_matching(res, range(6), range(6))
        res -= 1
        assert (pair_matrix(g, left, right) == 1).all()


class TestRegularSpanningSubgraph:
    def test_complete_case(self):
        g, left, right = complete_bipartite(10)
        mat = pair_matrix(g, left, right)
        sub = regular_spanning_subgraph(mat, left, right, 0.0, 0.2)
        assert (sub.sum(axis=0) == 8).all() and (sub.sum(axis=1) == 8).all()
        assert (sub_graph(g.n, sub, left, right) - g).edge_count() == 0

    def test_complete_minus_matching(self):
        m = 10
        g, left, right = shifted_regular(m, [s for s in range(m) if s != 3])
        mat = pair_matrix(g, left, right)
        sub = regular_spanning_subgraph(mat, left, right, 0.1, 0.2)
        assert (sub.sum(axis=0) == 7).all() and (sub.sum(axis=1) == 7).all()
        assert (sub_graph(g.n, sub, left, right) - g).edge_count() == 0

    def test_star_heavy_witness(self):
        m = 10
        left = list(range(m))
        right = list(range(m, 2 * m))
        edges = [(0, v) for v in right] + [(u, m) for u in left[1:]]
        g = Multigraph(2 * m, edges)
        with pytest.raises(DegreeHypothesisViolated) as exc:
            regular_spanning_subgraph(pair_matrix(g, left, right), left,
                                      right, 0.1, 0.2)
        w = exc.value.witness
        s1, s2, r = w["S1"], w["S2"], w["r"]
        rbar = [v for v in right if v not in set(s2)]
        e_val = int(pair_matrix(g, s1, rbar).sum())
        assert e_val == w["e(S1,~S2)"]
        assert e_val < r * (len(s1) - len(s2))

    def test_explicit_degree(self):
        g, left, right = complete_bipartite(6)
        sub = regular_spanning_subgraph(pair_matrix(g, left, right), left,
                                        right, 0.0, 0.0, degree=3)
        assert (sub.sum(axis=0) == 3).all() and (sub.sum(axis=1) == 3).all()


def as_pairs(parts, left, right):
    """The matchings ``parts`` (entry [k, p] the column matched to row p
    by the k-th) as lists of (left vertex, right vertex) pairs ordered by
    (smaller id, larger id)."""
    return [sorted(zip(left, [right[c] for c in cols.tolist()]),
                   key=lambda e: (min(e), max(e))) for cols in parts]


def factorize(g, left, right):
    """regular_bipartite_to_matchings on g's pair matrix; each matching
    is checked to be a list of (left, right) pairs and returned as a
    Multigraph."""
    ms = as_pairs(regular_bipartite_to_matchings(
        pair_matrix(g, left, right)), left, right)
    for pm in ms:
        assert all(u in left and v in right for (u, v) in pm)
    return [Multigraph(g.n, pm) for pm in ms]


class TestFactorization:
    def test_one_regular_identity(self):
        g, left, right = shifted_regular(5, [2])
        (pm,) = factorize(g, left, right)
        assert pm == g

    def test_c8_two_matchings(self):
        # C8 as a 2-regular bipartite graph
        g = Multigraph(8, [(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3),
                           (3, 7), (7, 0)])
        ms = factorize(g, [0, 1, 2, 3], [4, 5, 6, 7])
        assert len(ms) == 2
        assert all(m.is_matching() and m.edge_count() == 4 for m in ms)
        assert ms[0] + ms[1] == g

    def test_random_5_regular_m50(self):
        rng = random.Random(11)
        shifts = rng.sample(range(50), 5)
        g, left, right = shifted_regular(50, shifts)
        ms = factorize(g, left, right)
        assert len(ms) == 5
        total = Multigraph(g.n)
        for m in ms:
            assert m.is_matching() and m.edge_count() == 50
            total = total + m
        assert total == g

    def test_multigraph_multiplicities(self):
        # doubled perfect matching: 2-regular with parallel edges
        g = Multigraph(4, [(0, 2, 2), (1, 3, 2)])
        ms = factorize(g, [0, 1], [2, 3])
        assert len(ms) == 2
        assert ms[0] + ms[1] == g

    # sha256 of the int64 output bytes on seeded r-regular matrices: sums
    # of r random permutation matrices (max entry 2-5) and 0/1 shifted
    # ones (rows of 2 words at m = 96); the matchings must not move
    # however the peel loop is shared
    PEEL_PINS = [
        (6, 4, 1, False, 2, "6e4c3f30a3d8c3786dc187ded57602c8"
                            "054067721a7d281d5d27ad97851278af"),
        (12, 5, 2, False, 3, "9b6788cedfd48b1c746497b112ffbd01"
                             "3a5371daebb7e4960a3f5d8ff1fdeb89"),
        (70, 9, 4, False, 3, "51f4dca7ec163c63d83b9108465b0087"
                             "5b29681c41879d3c8be1e83004e84b26"),
        (130, 20, 5, False, 5, "aaa36676d65460d63f5d76969a292b82"
                               "42068225be7eaf3983c9fad7ab38ccbd"),
        (96, 30, 7, True, 1, "014588461a5e101a24a0932f59907f8a"
                             "0d38abdcf9755d5ea20e87ed7d44c368"),
        (33, 10, 8, True, 1, "1a80d39eb4c31b5b50cdb1f290928b4f"
                             "ecc922013d6051fbb785c58186184137"),
    ]

    @pytest.mark.parametrize("m,r,seed,simple,top,digest", PEEL_PINS)
    def test_output_bytes_pinned(self, m, r, seed, simple, top, digest):
        gen = np.random.default_rng(seed)
        mat = np.zeros((m, m), dtype=np.int64)
        idx = np.arange(m)
        if simple:
            perm = gen.permutation(m)
            for s in gen.choice(m, r, replace=False):
                mat[idx, perm[(idx + s) % m]] += 1
        else:
            for _ in range(r):
                mat[idx, gen.permutation(m)] += 1
        assert mat.max() == top
        parts = regular_bipartite_to_matchings(mat)
        assert parts.shape == (r, m)
        assert hashlib.sha256(parts.astype("<i8").tobytes()).hexdigest() \
            == digest

    def test_peel_needs_a_contiguous_residual(self):
        # the decrement writes through a flat view, of which a strided
        # residual would only get a copy
        res = np.ones((8, 4), dtype=np.int64)[::2]
        idx = np.arange(4)
        with pytest.raises(InvalidParameter, match="C-contiguous"):
            classic.peel_matchings(res, idx, idx[None])
        assert (res == 1).all()
        res = res.copy()
        assert (classic.peel_matchings(res, idx, idx[None]) == idx).all()
        assert (res == 1 - np.eye(4, dtype=np.int64)).all()

    def test_not_regular_rejected(self):
        g = Multigraph(4, [(0, 2), (0, 3)])
        with pytest.raises(InvalidParameter):
            factorize(g, [0, 1], [2, 3])

    @given(st.integers(2, 12), st.integers(1, 6), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_random_regular_exact(self, m, r, pyrng):
        r = min(r, m)
        shifts = pyrng.sample(range(m), r)
        g, left, right = shifted_regular(m, shifts)
        ms = factorize(g, left, right)
        assert len(ms) == r
        total = Multigraph(g.n)
        for pm in ms:
            assert pm.is_matching() and pm.edge_count() == m
            total = total + pm
        assert total == g

    @given(st.integers(1, 12).flatmap(lambda m: st.tuples(
        st.integers(1, 7), st.permutations(range(3 * m)), st.randoms())))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_frozen_multigraph_factorization(self, drawn):
        r, perm, pyrng = drawn
        m = len(perm) // 3
        # vertex ids drawn at random, so right ids may sit below left ids
        # or interleave with them
        left, right = perm[:m], perm[m:2 * m]
        edges = []
        for _ in range(r):
            cols = list(range(m))
            pyrng.shuffle(cols)
            edges.extend((left[i], right[j]) for i, j in enumerate(cols))
        g = Multigraph(3 * m, edges)
        expected = [[(u, v) if u in set(left) else (v, u)
                     for (u, v) in sorted(pm.support())]
                    for pm in reference_factorization(g, left, right)]
        got = as_pairs(regular_bipartite_to_matchings(
            pair_matrix(g, left, right)), left, right)
        assert got == expected

    @given(st.integers(1, 12).flatmap(lambda m: st.tuples(
        st.lists(st.permutations(range(m)), min_size=1, max_size=3),
        st.lists(st.integers(0, 2), max_size=7), st.permutations(range(m)),
        st.booleans())))
    @settings(max_examples=150, deadline=None)
    def test_peels_exactly_r_perfect_matchings(self, drawn):
        # r permutations drawn from a pool of at most three, so a cell's
        # multiplicity reaches r when every pick is the same permutation
        pool, picks, order, flip = drawn
        m, r = len(order), len(picks)
        mat = np.zeros((m, m), dtype=np.int64)
        for k in picks:
            mat[np.arange(m), pool[k % len(pool)]] += 1
        # left and right ids interleaved, in a drawn order
        left = [2 * i + flip for i in order]
        right = [2 * i + 1 - flip for i in range(m)]
        got = as_pairs(regular_bipartite_to_matchings(mat), left, right)
        assert len(got) == r
        total = np.zeros_like(mat)
        for pm in got:
            assert sorted(u for u, _ in pm) == sorted(left)
            assert sorted(v for _, v in pm) == sorted(right)
            for u, v in pm:
                total[left.index(u), right.index(v)] += 1
        assert (total == mat).all()


def reference_factorization(graph, left, right):
    """The 1-factorization as a frozen peeling on Multigraphs: take a
    perfect matching of the pair, rows and columns in index order, subtract
    it from the graph, and repeat once per unit of degree."""
    factors = []
    for _ in range(graph.degree(left[0])):
        match = take_matching(pair_matrix(graph, left, right),
                              range(len(left)), range(len(right)))
        pm = Multigraph(graph.n, [(left[i], right[j])
                                  for i, j in enumerate(match)])
        factors.append(pm)
        graph = graph - pm
    return factors


class TestPerfectMatching:
    @given(st.integers(1, 12).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from([0, 0, 1, 1, 1, 2]), min_size=m * m,
                 max_size=m * m),
        st.permutations(range(m)), st.permutations(range(m)))))
    @settings(max_examples=60, deadline=None)
    def test_matrix_matching_equals_perfect_matching(self, drawn):
        mults, rows, cols = drawn
        m = len(rows)
        left, right = list(range(m)), list(range(m, 2 * m))
        g = Multigraph(2 * m, [(left[t // m], right[t % m], k)
                               for t, k in enumerate(mults) if k])
        res = pair_matrix(g, left, right)
        before = res.copy()
        assert before.tolist() == [mults[i * m:(i + 1) * m]
                                   for i in range(m)]
        perm_l = [left[i] for i in rows]
        perm_r = [right[j] for j in cols]
        # Hopcroft-Karp on adjacency read off the sorted edge list
        lpos = {v: p for p, v in enumerate(perm_l)}
        rpos = {v: q for q, v in enumerate(perm_r)}
        adj = [[] for _ in range(m)]
        for (u, v, _k) in g.edges():
            adj[lpos[u]].append(rpos[v])
        reference = reference_hopcroft_karp([sorted(row) for row in adj], m)
        if -1 in reference:
            with pytest.raises(MatchingInfeasible) as exc:
                take_matching(res, rows, cols)
            w = exc.value.witness
            assert len(w["N(S)"]) < len(w["S"])
            # the witness holds: N(S) is exactly the neighbourhood of S
            assert w["N(S)"] == sorted({j for i in w["S"]
                                        for j in np.flatnonzero(before[i])})
            assert (res == before).all()
            return
        match = take_matching(res, rows, cols)
        assert match == reference
        taken = np.zeros_like(before)
        for p, q in enumerate(match):
            taken[rows[p], cols[q]] = 1
        assert (res == before - taken).all()

    @given(st.integers(1, 96), st.floats(0.3, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bitset_path_equals_hopcroft_karp(self, m, density, seed):
        # past the 64-column word boundary, and dense enough that the
        # greedy first phase alone is often perfect
        gen = np.random.default_rng(seed)
        res = (gen.random((m, m)) < density) * gen.integers(1, 3, (m, m))
        rows = gen.permutation(m).tolist()
        cols = gen.permutation(m).tolist()
        before = res.copy()
        sub = before[np.ix_(rows, cols)] > 0
        adj = [np.flatnonzero(row).tolist() for row in sub]
        reference = reference_hopcroft_karp(adj, m)
        if -1 in reference:
            with pytest.raises(MatchingInfeasible) as exc:
                take_matching(res, rows, cols)
            violator = classic._hall_violator(adj, reference, m)
            assert exc.value.witness == {
                "S": [rows[p] for p in violator],
                "N(S)": sorted({cols[q] for p in violator for q in adj[p]}),
                "unmatched": [rows[p] for p, q in enumerate(reference)
                              if q == -1]}
            assert (res == before).all()
            return
        assert take_matching(res, rows, cols) == reference
        taken = np.zeros_like(before)
        for p, q in enumerate(reference):
            taken[rows[p], cols[q]] = 1
        assert (res == before - taken).all()

    def count_hopcroft_karp(self, monkeypatch):
        calls = []

        def counted(rows, n_right, match_l):
            calls.append(n_right)
            return hopcroft_karp(rows, n_right, match_l)

        monkeypatch.setattr(classic, "hopcroft_karp", counted)
        return calls

    def test_greedy_perfect_skips_hopcroft_karp(self, monkeypatch):
        calls = self.count_hopcroft_karp(monkeypatch)
        res = np.ones((80, 80), dtype=np.int64)
        match = take_matching(res, range(80), range(80))
        assert match == list(range(80)) == \
            reference_hopcroft_karp([list(range(80))] * 80, 80)
        assert calls == []
        assert (res == 1 - np.eye(80, dtype=np.int64)).all()

    def test_greedy_failure_falls_back_to_augmenting(self, monkeypatch):
        calls = self.count_hopcroft_karp(monkeypatch)
        # row 0 takes column 0 first; row 1 then needs an augmenting path
        res = np.array([[1, 1], [1, 0]])
        assert take_matching(res, [0, 1], [0, 1]) == [1, 0] == \
            reference_hopcroft_karp([[0, 1], [0]], 2)
        assert calls == [2]
        assert (res == [[1, 0], [0, 0]]).all()

    def test_hall_witness(self):
        # 3 left vertices all pointing to one right vertex
        g = Multigraph(6, [(0, 3), (1, 3), (2, 3)])
        with pytest.raises(MatchingInfeasible) as exc:
            take_matching(pair_matrix(g, [0, 1, 2], [3, 4, 5]), range(3),
                          range(3))
        w = exc.value.witness
        assert len(w["N(S)"]) < len(w["S"])


def reference_hopcroft_karp(adj, n_right):
    """Hopcroft-Karp as it was before its first phase skipped bfs();
    kept frozen here so that hopcroft_karp must keep every matching."""
    from collections import deque
    n_left = len(adj)
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left

    def bfs():
        queue = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u):
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l


@st.composite
def adjacency_lists(draw):
    """Random bipartite adjacency lists, each ascending (the order
    ``take_matching`` reads its rows in); rows may be empty and the graph
    need not have a perfect matching."""
    n_left = draw(st.integers(0, 10))
    n_right = draw(st.integers(0, 10))
    adj = [sorted(draw(st.lists(st.integers(0, n_right - 1), unique=True,
                                max_size=n_right))) if n_right else []
           for _ in range(n_left)]
    return adj, n_right


class TestHopcroftKarp:
    @given(adjacency_lists())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_frozen_reference(self, drawn):
        adj, n_right = drawn
        rows = [sum(1 << v for v in row) for row in adj]
        greedy = classic._greedy_matching(rows, n_right)
        assert hopcroft_karp(rows, n_right, greedy) == \
            reference_hopcroft_karp(adj, n_right)

    def test_augmenting_path_through_every_row(self):
        # staircase: row i < 1200 reaches columns i and i + 1, row 1200
        # only column 0, so the one augmenting path visits all 1201 rows
        # (a recursive search exceeds the interpreter's recursion limit)
        n = 1201
        res = np.zeros((n, n), dtype=np.int64)
        res[np.arange(n - 1), np.arange(n - 1)] = 1
        res[np.arange(n - 1), np.arange(1, n)] = 1
        res[n - 1, 0] = 1
        before = res.copy()
        match = take_matching(res, range(n), range(n))
        assert match == list(range(1, n)) + [0]
        taken = np.zeros_like(before)
        taken[np.arange(n), match] = 1
        assert (res == before - taken).all()

    def test_take_matching_names_the_unmatched_rows(self):
        # rows 1 and 2 of the 3 x 3 matrix reach column 0 only
        res = np.array([[1, 1, 1], [1, 0, 0], [1, 0, 0]])
        rows, cols = [2, 0, 1], [0, 1, 2]
        adj = [[0], [0, 1, 2], [0]]
        left = reference_hopcroft_karp(adj, 3)
        with pytest.raises(MatchingInfeasible) as exc:
            take_matching(res, rows, cols)
        assert exc.value.witness["unmatched"] == \
            [rows[p] for p, q in enumerate(left) if q == -1] == [1]
        assert sorted(exc.value.witness["S"]) == [1, 2]


def frozen_take_matching(res, rows, cols):
    """take_matching as it was before it gathered with ``take`` and packed
    rows into uint64 words (np.ix_ on the index sequences, one
    int.from_bytes per row), kept frozen here so that the packed kernel
    must keep every matching, residual and witness."""
    sub = res[np.ix_(rows, cols)] > 0
    packed = np.packbits(sub, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    bits = [int.from_bytes(buf[i * width:(i + 1) * width], "little")
            for i in range(len(sub))]
    match_l = classic._greedy_matching(bits, len(cols))
    if -1 in match_l:
        match_l = hopcroft_karp(bits, len(cols), match_l)
        if -1 in match_l:
            flat = np.nonzero(sub)[1].tolist()
            ends = np.cumsum(np.count_nonzero(sub, axis=1)).tolist()
            adj = [flat[a:b] for a, b in zip([0] + ends, ends)]
            violator = classic._hall_violator(adj, match_l, len(cols))
            raise MatchingInfeasible(
                "no perfect matching",
                witness={"S": [rows[p] for p in violator],
                         "N(S)": sorted({cols[q] for p in violator
                                         for q in adj[p]}),
                         "unmatched": [rows[p] for p, q in enumerate(match_l)
                                       if q == -1]})
    res[np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp)[match_l]] -= 1
    return match_l


class TestPackedKernels:
    @pytest.mark.parametrize("m", [0, 1, 7, 63, 64, 65, 130])
    def test_pack_rows_words_and_ints(self, m):
        bits = np.random.default_rng(m).random((5, m)) < 0.5
        words = classic.pack_rows(bits)
        assert words.dtype == np.dtype("<u8")
        assert words.shape == (5, max(1, -(-m // 64)))
        q = np.arange(m)
        assert ((words[:, q // 64] >> (q % 64).astype(np.uint64)) & 1
                == bits).all()
        assert classic._row_ints(words) == [
            sum(1 << int(j) for j in np.flatnonzero(row)) for row in bits]

    @given(st.integers(0, 70), st.integers(0, 6), st.floats(0.02, 1.0),
           st.integers(0, 2**32 - 1),
           st.sampled_from([list, lambda xs: np.array(xs, dtype=np.intp)]),
           st.sampled_from([np.int64, np.uint8]))
    @settings(max_examples=60, deadline=None)
    def test_take_matching_matches_the_frozen_kernel(self, k, extra, density,
                                                     seed, kind, dtype):
        # rows and columns: k of n indices each, in random order, so the
        # gathered block crosses the 64-column word boundary
        gen = np.random.default_rng(seed)
        n = k + extra
        res = ((gen.random((n, n)) < density)
               * gen.integers(1, 3, (n, n))).astype(dtype)
        rows = kind(gen.permutation(n)[:k].tolist())
        cols = kind(gen.permutation(n)[:k].tolist())
        ref = res.copy()
        try:
            expected = frozen_take_matching(ref, rows, cols)
        except MatchingInfeasible as frozen:
            with pytest.raises(MatchingInfeasible) as exc:
                take_matching(res, rows, cols)
            assert exc.value.witness == frozen.witness
            assert all(type(x) is int
                       for xs in exc.value.witness.values() for x in xs)
            assert (res == ref).all()
            return
        assert take_matching(res, rows, cols) == expected
        assert res.dtype == dtype and (res == ref).all()

    @given(st.integers(1, 70), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_factorization_matches_peeling_the_frozen_kernel(self, m, r,
                                                             seed):
        # r random permutation matrices summed: the greedy phase often
        # leaves rows unmatched, so Hopcroft-Karp runs too
        gen = np.random.default_rng(seed)
        mat = np.zeros((m, m), dtype=np.int64)
        for _ in range(r):
            mat[np.arange(m), gen.permutation(m)] += 1
        res = mat.copy()
        peeled = [frozen_take_matching(res, range(m), range(m))
                  for _ in range(r)]
        got = regular_bipartite_to_matchings(mat)
        assert got.shape == (r, m)
        assert got.tolist() == peeled
