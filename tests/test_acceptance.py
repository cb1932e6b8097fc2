"""Acceptance suite: one test per criterion, each printing a PASS line
with its timing.  Tolerances are exact (structural equality) unless a
success-count threshold is stated; time budgets are asserted.
"""

import math
import random
import time

import numpy as np

from hamdec.classic import (bipartite_hamilton_decompose, pair_matrix,
                            regular_spanning_subgraph, walecki_decompose)
from hamdec.core import (ClusterPartition, Digraph, Multigraph,
                         OrderedDirectedMatching, cycle_to_perfect_matchings,
                         is_consistent_with, verify_hamilton_cycle)
from hamdec.cyclic import (check_robust_outexpander, check_superregular,
                           reserve_sparse)
from hamdec.errors import (DegreeHypothesisViolated, HamdecError,
                           SamplingFailed)
from hamdec.exceptional import (BalancedExceptionalSystem, ExceptionalSystem,
                                build_fictive_bipartite,
                                build_fictive_two_cliques, splice_bipartite,
                                splice_two_cliques)
from hamdec.extension import balance_extend_cliques, balance_extend_bipartite, \
    validate_balanced_extension
from hamdec.pipeline import (InstanceConfig, approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance,
                             verify_certificate)


def report(num, name, t0, budget):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num:2d} [{name}]: PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its time budget"


def test_criterion_01_walecki_suite():
    t0 = time.time()
    for K in range(3, 22, 2):
        cycles = walecki_decompose(K)
        assert len(cycles) == (K - 1) // 2
        seen = set()
        for c in cycles:
            assert sorted(c.order) == list(range(K))
            edges = c.undirected_edge_set()
            assert len(edges) == K
            assert not (edges & seen)
            seen |= edges
        assert len(seen) == K * (K - 1) // 2
    report(1, "walecki", t0, 1.0)


def test_criterion_02_bipartite_suite():
    t0 = time.time()
    for K in range(2, 21, 2):
        cycles = bipartite_hamilton_decompose(K)
        assert len(cycles) == K // 2
        seen = set()
        for c in cycles:
            assert sorted(c.order) == list(range(2 * K))
            for t, ci in enumerate(c.order):
                nxt = c.order[(t + 1) % (2 * K)]
                assert (ci < K) != (nxt < K)
            edges = c.undirected_edge_set()
            assert not (edges & seen)
            seen |= edges
        assert len(seen) == K * K
    report(2, "bipartite decomposition", t0, 1.0)


def _window_regular(m, degree, rng, n_offset=0):
    left = list(range(n_offset, n_offset + m))
    right = list(range(n_offset + m, n_offset + 2 * m))
    shifts = rng.sample(range(m), degree)
    edges = [(left[x], right[(x + s) % m]) for x in range(m) for s in shifts]
    return Multigraph(n_offset + 2 * m, edges), left, right


def test_criterion_03_regular_subgraph_flow():
    t0 = time.time()
    m, mu, eps, rho = 200, 0.1, 0.01, 0.05
    target = math.floor((1 - mu - rho) * m)
    lo = math.ceil((1 - mu - eps) * m)
    hi = math.floor((1 - mu + eps) * m)
    for seed in range(100):
        rng = random.Random(seed)
        degree = rng.randint(lo, hi)
        g, left, right = _window_regular(m, degree, rng)
        mat = pair_matrix(g, left, right)
        sub = regular_spanning_subgraph(mat, left, right, mu, rho)
        assert (sub.sum(axis=0) == target).all()
        assert (sub.sum(axis=1) == target).all()
        assert (sub >= 0).all() and (sub <= mat).all()
    # adversarial: a handful of vertices too sparse for the target
    witness_failures = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        g, left, right = _window_regular(m, target, rng)
        # strip most edges at one left vertex, breaking the hypothesis
        victim = left[seed % m]
        # left ids sit below right ids, so the victim's edges start with it
        doomed = [(victim, w) for (u, w) in g.support()
                  if u == victim][: target - 10]
        g = g - Multigraph(g.n, doomed)
        try:
            regular_spanning_subgraph(pair_matrix(g, left, right), left,
                                      right, mu, rho)
        except DegreeHypothesisViolated as exc:
            s1, s2, r = (exc.witness["S1"], exc.witness["S2"],
                         exc.witness["r"])
            rbar = [v for v in right if v not in set(s2)]
            e_val = int(pair_matrix(g, s1, rbar).sum())
            assert e_val < r * (len(s1) - len(s2)), "invalid cut witness"
            witness_failures += 1
    assert witness_failures == 20
    report(3, "regular-subgraph flow", t0, 30.0)


# -- criterion 4: randomized tiny splices --------------------------------


def _tiny_partition(a_size, a0, b0, mode):
    a = list(range(a_size))
    b = list(range(a_size, 2 * a_size))
    a0_list = list(range(2 * a_size, 2 * a_size + a0))
    b0_list = list(range(2 * a_size + a0, 2 * a_size + a0 + b0))
    ctor = (ClusterPartition.two_cliques if mode == "two-cliques"
            else ClusterPartition.bipartite)
    return ctor(a0_list, [a], b0_list, [b], 0.9)


def _random_two_cliques_es(rng):
    a_size = rng.randint(3, 6)
    a0 = rng.randint(0, 2)
    b0 = rng.randint(0 if a0 else 1, min(2, 3 - a0))
    P = _tiny_partition(a_size, a0, b0, "two-cliques")
    a_pool = list(P.A)
    b_pool = list(P.B)
    rng.shuffle(a_pool)
    rng.shuffle(b_pool)
    edges = []
    want_hes = rng.random() < 0.55
    for v0 in P.a0:
        if want_hes and a_pool and b_pool and rng.random() < 0.5:
            edges += [(a_pool.pop(), v0), (v0, b_pool.pop())]
        elif len(a_pool) >= 2:
            edges += [(a_pool.pop(), v0), (v0, a_pool.pop())]
        else:
            return None
    for v0 in P.b0:
        if want_hes and a_pool and b_pool and rng.random() < 0.5:
            edges += [(b_pool.pop(), v0), (v0, a_pool.pop())]
        elif len(b_pool) >= 2:
            edges += [(b_pool.pop(), v0), (v0, b_pool.pop())]
        else:
            return None
    if want_hes and len(a_pool) >= 2 and len(b_pool) >= 2 and \
            rng.random() < 0.7:
        edges += [(a_pool.pop(), b_pool.pop()), (a_pool.pop(), b_pool.pop())]
    try:
        return P, ExceptionalSystem(P, Multigraph(P.n, edges))
    except HamdecError:
        return None


def _random_bes(rng):
    a_size = rng.randint(3, 6)
    a0 = rng.randint(0, 2)
    b0 = rng.randint(0 if a0 else 1, min(2, 3 - a0))
    P = _tiny_partition(a_size, a0, b0, "bipartite")
    a_pool = list(P.A)
    b_pool = list(P.B)
    rng.shuffle(a_pool)
    rng.shuffle(b_pool)
    edges = []
    for v0 in P.a0:
        r = rng.random()
        if r < 0.4 and len(a_pool) >= 2:
            edges += [(a_pool.pop(), v0), (v0, a_pool.pop())]
        elif r < 0.8 and a_pool and b_pool:
            edges += [(a_pool.pop(), v0), (v0, b_pool.pop())]
        elif len(b_pool) >= 2:
            edges += [(b_pool.pop(), v0), (v0, b_pool.pop())]
        else:
            return None
    for v0 in P.b0:
        r = rng.random()
        if r < 0.4 and len(b_pool) >= 2:
            edges += [(b_pool.pop(), v0), (v0, b_pool.pop())]
        elif r < 0.8 and a_pool and b_pool:
            edges += [(b_pool.pop(), v0), (v0, a_pool.pop())]
        elif len(a_pool) >= 2:
            edges += [(a_pool.pop(), v0), (v0, a_pool.pop())]
        else:
            return None
    try:
        return P, BalancedExceptionalSystem(P, Multigraph(P.n, edges),
                                            locality=(0, 0, 0, 0))
    except HamdecError:
        return None


def _search_consistent_cycle(n, verts, matching, rng):
    """Exhaustive backtracking (random branch order) for a directed
    Hamilton cycle on ``verts`` in the complete digraph containing the
    ordered matching arcs in cyclic order.

    Pruning: when standing on a matching tail the next vertex is forced,
    and matching tails may only be entered in rank order starting from
    the first arc (whose tail is the traversal root).  Returns the cycle
    as its vertex order.
    """
    verts = list(verts)
    if not verts:
        return None
    arcs = list(matching.arcs)
    forced_next = {u: v for (u, v) in arcs}
    rank = {u: i for i, (u, v) in enumerate(arcs)}
    start = arcs[0][0] if arcs else min(verts)
    remaining = set(verts) - {start}
    path = [start]
    state = {"expect": 1}  # next admissible matching rank

    def extend():
        cur = path[-1]
        if not remaining:
            return forced_next.get(cur, start) == start \
                if cur in forced_next else True
        if cur in forced_next:
            cands = [forced_next[cur]] if forced_next[cur] in remaining \
                else []
        else:
            cands = list(remaining)
            rng.shuffle(cands)
        for w in cands:
            entered_rank = False
            if w in rank:
                if rank[w] != state["expect"]:
                    continue
                state["expect"] += 1
                entered_rank = True
            path.append(w)
            remaining.discard(w)
            if extend():
                return True
            path.pop()
            remaining.add(w)
            if entered_rank:
                state["expect"] -= 1
        return False

    if not extend():
        return None
    cyc = Digraph(n, [(path[i], path[(i + 1) % len(path)])
                      for i in range(len(path))])
    if arcs and not is_consistent_with(cyc, matching):
        return None
    return path


def test_criterion_04_splice_correctness():
    t0 = time.time()
    rng = random.Random(20240)
    done = 0
    while done < 1000:
        if done % 5 < 3:
            built = _random_two_cliques_es(rng)
            if built is None:
                continue
            P, es = built
            red = build_fictive_two_cliques(es)
            c_a = _search_consistent_cycle(P.n, P.A, red.ja_dir, rng)
            c_b = _search_consistent_cycle(P.n, P.B, red.jb_dir, rng)
            if c_a is None or c_b is None:
                continue
            out = splice_two_cliques(c_a, c_b, es, red)
            if es.kind == "HES":
                assert verify_hamilton_cycle(out, set(P.vertices()))
            else:
                a_pr, b_pr = set(P.A_prime), set(P.B_prime)
                assert verify_hamilton_cycle(out.restrict(a_pr), a_pr)
                assert verify_hamilton_cycle(out.restrict(b_pr), b_pr)
                if len(a_pr) % 2 == 0 and len(b_pr) % 2 == 0:
                    m1, m2 = cycle_to_perfect_matchings(
                        out.restrict(a_pr), a_pr)
                    assert m1.is_matching() and m2.is_matching()
        else:
            built = _random_bes(rng)
            if built is None:
                continue
            P, es = built
            red = build_fictive_bipartite(es)
            d = _search_consistent_cycle(P.n, sorted(set(P.A) | set(P.B)),
                                         red.jstar_dir, rng)
            if d is None:
                continue
            out = splice_bipartite(d, es, red)
            assert verify_hamilton_cycle(out, set(P.vertices()))
        done += 1
    assert done == 1000
    report(4, "splice correctness 1000/1000", t0, 60.0)


def test_criterion_05_balanced_extension_validators():
    t0 = time.time()
    # two-cliques builder on 50 seeded inputs, validated at (2 eps, 3)
    k, m = 5, 20
    n = k * m
    qp = ClusterPartition.equipartition(
        [list(range(i * m, (i + 1) * m)) for i in range(k)])
    from hamdec.core import ClusterCycle
    cycle = ClusterCycle(tuple(range(k)))
    eps = 2 / m
    for seed in range(50):
        rng = random.Random(seed)
        # H[V_{i-1}, V_{i+1}] as 2 eps m shifted circulant matchings,
        # stored lower cluster first as sysdecom stores them
        h = {}
        for pos in range(k):
            prev_c = cycle.order[(pos - 1) % k]
            next_c = cycle.order[(pos + 1) % k]
            shifts = rng.sample(range(m), round(2 * eps * m))
            cols = np.array([(np.arange(m) + s) % m for s in shifts])
            h[min(prev_c, next_c), max(prev_c, next_c)] = \
                cols if prev_c < next_c else np.argsort(cols, axis=1)
        groups = {}
        for ci in range(k):
            cluster = list(qp.cluster(ci))
            rng.shuffle(cluster)
            group = []
            for t in range(rng.randint(0, 3)):
                size = rng.randint(1, 2)
                arcs = tuple((cluster[4 * t + 2 * x], cluster[4 * t + 2 * x + 1])
                             for x in range(size))
                group.append(OrderedDirectedMatching(arcs))
            if group:
                groups[ci] = group
        be, order = balance_extend_cliques(groups, qp, cycle, h, eps, n)
        assert be.eps == 2 * eps and be.ell == 3
        validate_balanced_extension(be, qp, cycle)
    # bipartite builder, validated at (12 eps K, 12) with the exact
    # e(PS') = 4 e(J*) identity
    from hamdec.cyclic import sysdecombip
    for seed in (3, 4, 5):
        cfg = InstanceConfig.bipartite_default(seed=seed)
        host, P, systems = generate_instance(cfg)
        reductions = [build_fictive_bipartite(es) for es in systems]
        slices, quotas = sysdecombip(host, P, systems, reductions,
                                     mu=cfg.mu, rho=cfg.rho, seed=seed)
        for slc in slices:
            idxs = [slot.es_index for slot in slc.slots]
            be = balance_extend_bipartite(
                [reductions[i].jstar_dir for i in idxs],
                [systems[i].locality[0] for i in idxs],
                slc.q, slc.cycle, slc.reserve, P.eps0,
                quotas.reserve_inner, quotas.reserve_outer)
            assert be.eps == 12 * P.eps0 * P.K and be.ell == 12
            validate_balanced_extension(be, P.ab_equipartition(), slc.cycle)
            for ps, idx in zip(be.path_sequences, idxs):
                assert len(ps) == 4 * len(reductions[idx].jstar_dir)
    report(5, "balanced-extension validators", t0, 30.0)


def test_criterion_06_sparse_reservoir():
    t0 = time.time()
    m, gamma, mu = 200, 0.1, 0.15
    degree = round((1 - mu) * m)
    successes = 0
    for seed in range(50):
        rng = random.Random(seed)
        g, left, right = _window_regular(m, degree, rng)
        try:
            h, g2, rep = reserve_sparse(g, left, right, mu=mu, gamma=gamma,
                                        eps=0.5, rng_seed=seed)
        except SamplingFailed:
            continue
        # exact (Reg2)-(Reg4) at (eps, 2 gamma, gamma, 3 gamma)
        assert rep.min_degree >= gamma * m
        assert rep.max_degree <= 3 * gamma * m
        assert rep.max_codegree <= (3 * gamma) ** 2 * m
        lo = (1 - mu - 4 * gamma) * m
        hi = (1 - mu + 4 * gamma) * m
        assert all(lo <= g2.degree(v) <= hi for v in left + right)
        successes += 1
    assert successes >= 48, f"only {successes}/50 reservoir draws succeeded"
    report(6, f"sparse reservoir {successes}/50", t0, 60.0)


def test_criterion_07_end_to_end_two_cliques():
    t0 = time.time()
    cfg = InstanceConfig.two_cliques_default(seed=2024)
    assert cfg.K == 5 and cfg.m == 40 and cfg.system_count == 25
    host, P, systems = generate_instance(cfg)
    assert P.n == 402
    cert = approx_decompose_two_cliques(host, P, systems, cfg.mu, cfg.rho,
                                        cfg.gamma, seed=2024)
    report_obj = verify_certificate(host, P, systems, cert)
    assert report_obj["global"]["all_ok"]
    assert report_obj["global"]["edge_disjoint"]
    assert len(cert.slots) == 25
    for verdicts in report_obj["slots"]:
        assert verdicts["ok"] and verdicts["in_host"] and \
            verdicts["contains_system"]
    # the mixed-kind variant at even exceptional sets: Hamilton cycles for
    # HES slots, two edge-disjoint perfect matchings for MES slots
    cfg2 = InstanceConfig(mode="two-cliques", K=5, m=40, a0_size=2,
                          b0_size=2, eps0=0.01, mu=0.0125, rho=0.1,
                          gamma=0.15, hes_count=10, mes_count=15, seed=2024)
    host2, P2, systems2 = generate_instance(cfg2)
    cert2 = approx_decompose_two_cliques(host2, P2, systems2, cfg2.mu,
                                         cfg2.rho, cfg2.gamma, seed=2024)
    rep2 = verify_certificate(host2, P2, systems2, cert2)
    assert rep2["global"]["all_ok"]
    for slot, verdicts in zip(cert2.slots, rep2["slots"]):
        if slot["kind"] == "MES":
            assert verdicts["bi_hamiltonian"] and verdicts["matching_pair"]
        else:
            assert verdicts["hamiltonian"]
    report(7, "end-to-end two cliques", t0, 120.0)


def test_criterion_08_end_to_end_bipartite():
    t0 = time.time()
    cfg = InstanceConfig.bipartite_default(seed=2024)
    assert cfg.K == 4 and cfg.m == 40 and cfg.system_count == 16
    host, P, systems = generate_instance(cfg)
    cert = approx_decompose_bipartite(host, P, systems, cfg.mu, cfg.rho,
                                      cfg.gamma, seed=2024)
    report_obj = verify_certificate(host, P, systems, cert)
    assert report_obj["global"]["all_ok"]
    assert len(cert.slots) == 16
    for verdicts in report_obj["slots"]:
        assert verdicts["hamiltonian"] and verdicts["contains_system"]
    report(8, "end-to-end bipartite", t0, 120.0)


def test_criterion_09_robustness_facts():
    t0 = time.time()
    m, gamma, mu = 100, 0.15, 0.15
    eps, d, d_star, c = 0.25, 2 * gamma, gamma, 3 * gamma
    degree = round((1 - mu) * m)
    for seed in range(20):
        rng = random.Random(seed)
        g, left, right = _window_regular(m, degree, rng)
        h, g2, rep = reserve_sparse(g, left, right, mu=mu, gamma=gamma,
                                    eps=eps, rng_seed=seed)
        # row/column restriction keeps the relaxed verdicts
        keep = round(0.9 * m)
        left2, right2 = left[:keep], right[:keep]
        rep2 = check_superregular(h, left2, right2, 2 * eps, d,
                                  d_star / 2, 2 * c, mode="sampled",
                                  trials=60, rng=random.Random(seed + 1))
        assert rep2.reg2_ok and rep2.reg3_ok and rep2.reg4_ok
        # per-vertex edge removal within eps^2*d*m keeps the relaxed
        # verdicts with d* - eps^2*d
        budget = int(eps ** 2 * d * m)
        drop = []
        removed = {v: 0 for v in left + right}
        for (u, v) in h.support():
            if removed[u] < budget and removed[v] < budget:
                drop.append((u, v))
                removed[u] += 1
                removed[v] += 1
        h3 = h - Multigraph(h.n, drop)
        rep3 = check_superregular(h3, left, right, 2 * eps, d,
                                  d_star - eps ** 2 * d, c, mode="sampled",
                                  trials=60, rng=random.Random(seed + 2))
        assert rep3.reg2_ok and rep3.reg3_ok and rep3.reg4_ok
        # auxiliary digraph from the pair expands robustly
        sigma = list(right)
        random.Random(seed + 3).shuffle(sigma)
        f_map = dict(zip(left, sigma))
        aux_arcs = set()
        for (u, v) in h.support():
            uu, vv = (u, v) if u in f_map else (v, u)
            if f_map[uu] != vv:
                aux_arcs.add((f_map[uu], vv))
        aux = Digraph(h.n, aux_arcs)
        verdict = check_robust_outexpander(aux, nu=0.02, tau=0.3,
                                           mode="sampled", trials=500,
                                           rng=random.Random(seed + 4),
                                           vertices=right)
        assert verdict.ok and verdict.sets_tested == 500
    report(9, "robustness facts", t0, 60.0)


def test_criterion_10_determinism():
    t0 = time.time()
    blobs = []
    for _ in range(2):
        cfg = InstanceConfig.two_cliques_default(seed=2024)
        host, P, systems = generate_instance(cfg)
        cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                            cfg.rho, cfg.gamma, seed=2024)
        blobs.append(cert.to_json().encode())
    assert blobs[0] == blobs[1], "certificates are not byte-identical"
    report(10, "determinism", t0, 300.0)
