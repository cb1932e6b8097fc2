"""Balanced extensions: turn ordered directed matchings into locally
balanced path sequences that later complete to Hamilton cycles.

Two builders (the one-shot two-cliques version and the two-phase
bipartite version) plus a standalone validator for the extension axioms
that is independent of both builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classic import regular_bipartite_to_matchings
from .core import (ClusterCycle, ClusterPartition, Digraph, Multigraph,
                   OrderedDirectedMatching, is_locally_balanced)
from .errors import InvalidParameter, MalformedInput, ReservoirExhausted
from .exceptional import BalancedExceptionalSystem, FictiveReduction


@dataclass
class BalancedExtension:
    """Path sequences PS_1..PS_q extending matchings M_1..M_q.

    ``extension_cluster[s]`` is the cluster index (into the equipartition
    order) whose final vertices realize the V_i-extension of M_s.
    """

    path_sequences: list[Digraph]
    matchings: list[OrderedDirectedMatching]
    extension_cluster: list[int]
    eps: float
    ell: int

    def __len__(self):
        return len(self.path_sequences)


def validate_balanced_extension(be: BalancedExtension, q: ClusterPartition,
                                cycle: ClusterCycle) -> None:
    """Check (BE1)-(BE3) from scratch; raises MalformedInput on violation.

    Independent of the builders: works only from the path sequences,
    matchings, and declared parameters.
    """
    k, m = len(q.clusters), q.m
    eps, ell = be.eps, be.ell
    if not (len(be.path_sequences) == len(be.matchings)
            == len(be.extension_cluster)):
        raise MalformedInput("ragged balanced extension")
    seen_nonmatching_arcs: set[tuple[int, int]] = set()
    touch_count = [0] * k
    ext_count = [0] * k
    for s, (ps, matching, i_s) in enumerate(zip(
            be.path_sequences, be.matchings, be.extension_cluster)):
        if not ps.is_path_sequence():
            raise MalformedInput(f"PS_{s} is not a path sequence")
        if not is_locally_balanced(ps, q, cycle):
            raise MalformedInput(f"PS_{s} is not locally balanced")
        # (BE1) cross-disjointness of PS_s - M_s
        extra = set(ps._arcs) - set(matching.arcs)
        if extra & seen_nonmatching_arcs:
            raise MalformedInput(f"PS_{s} - M_{s} shares arcs with an "
                                 "earlier sequence")
        seen_nonmatching_arcs |= extra
        # (BE2) V_{i_s}-extension: each matching arc in a distinct path
        # whose final vertex lies in cluster i_s
        paths = ps.directed_paths()
        arc_to_path: dict[tuple[int, int], int] = {}
        fin_cluster = set(q.cluster(i_s))
        for pi, path in enumerate(paths):
            for t in range(len(path) - 1):
                arc_to_path[(path[t], path[t + 1])] = pi
        used_paths: set[int] = set()
        for arc in matching.arcs:
            pi = arc_to_path.get(arc)
            if pi is None:
                raise MalformedInput(f"matching arc {arc} missing from PS_{s}")
            if pi in used_paths:
                raise MalformedInput(
                    f"two matching arcs share a path in PS_{s}")
            used_paths.add(pi)
            if paths[pi][-1] not in fin_cluster:
                raise MalformedInput(
                    f"path with arc {arc} does not end in cluster {i_s}")
        ext_count[i_s] += 1
        # (BE3) cluster intersections
        verts = ps.vertices_with_arcs()
        for ci in range(k):
            inter = len(verts & set(q.cluster(ci)))
            if inter > eps * m + 1e-9:
                raise MalformedInput(
                    f"|V(PS_{s}) n V_{ci}| = {inter} exceeds eps*m = "
                    f"{eps * m:.2f}")
            if inter:
                touch_count[ci] += 1
    quota = ell * m / k
    for ci in range(k):
        if touch_count[ci] > quota + 1e-9:
            raise MalformedInput(
                f"{touch_count[ci]} sequences touch cluster {ci}, "
                f"quota ell*m/k = {quota:.2f}")
        if ext_count[ci] > quota + 1e-9:
            raise MalformedInput(
                f"{ext_count[ci]} sequences extend into cluster {ci}, "
                f"quota ell*m/k = {quota:.2f}")


# -- two-cliques builder -------------------------------------------------


def balance_extend_cliques(m_partition: dict[int, list[OrderedDirectedMatching]],
                           q: ClusterPartition, cycle: ClusterCycle,
                           h: Multigraph, eps: float, n_vertices: int
                           ) -> tuple[BalancedExtension,
                                      list[tuple[int, int]]]:
    """Extend each matching M in m_partition[i] (vertices inside V_i) by an
    equal-sized matching from H[V_{i-1}, V_{i+1}] oriented V_{i-1}->V_{i+1}.

    Requires |m_partition[i]| <= m/k, e(M) <= eps*m, and every pair
    H[V_{i-1}, V_{i+1}] exactly 2*eps*m-regular.  Returns the balanced
    extension with parameters (2*eps, 3) and the slot order as (cluster,
    index-within-cluster) pairs.
    """
    k, m = len(q.clusters), q.m
    if k < 3:
        raise InvalidParameter("need at least 3 clusters")
    target = round(2 * eps * m)
    for pos in range(k):
        prev_c = cycle.order[(pos - 1) % k]
        next_c = cycle.order[(pos + 1) % k]
        pair = h.bipartite_restrict(q.cluster(prev_c), q.cluster(next_c))
        degs = {pair.degree(v) for v in q.cluster(prev_c)} | \
               {pair.degree(v) for v in q.cluster(next_c)}
        if degs != {target}:
            raise InvalidParameter(
                f"H[V_{prev_c},V_{next_c}] must be exactly {target}-regular, "
                f"degrees seen: {sorted(degs)}")
    for ci, group in m_partition.items():
        if len(group) > m / k:
            raise InvalidParameter(f"{len(group)} matchings at cluster {ci} "
                                   f"exceed m/k = {m / k:.2f}")
        for mm in group:
            if len(mm.arcs) > eps * m:
                raise InvalidParameter(
                    f"matching of size {len(mm.arcs)} exceeds eps*m = "
                    f"{eps * m:.2f}")
            if not mm.vertices() <= set(q.cluster(ci)):
                raise InvalidParameter(
                    f"matching vertices escape cluster {ci}")

    sequences: list[Digraph] = []
    matchings: list[OrderedDirectedMatching] = []
    ext_cluster: list[int] = []
    order: list[tuple[int, int]] = []
    for pos in range(k):
        ci = cycle.order[pos]
        group = m_partition.get(ci, [])
        if not group:
            continue
        prev_c = cycle.order[(pos - 1) % k]
        next_c = cycle.order[(pos + 1) % k]
        prev_vs = list(q.cluster(prev_c))
        next_vs = list(q.cluster(next_c))
        pair = h.bipartite_restrict(prev_vs, next_vs)
        pool = regular_bipartite_to_matchings(pair, prev_vs, next_vs)
        prev_set = set(prev_vs)
        pool_arcs = [[(u, v) if u in prev_set else (v, u)
                      for (u, v) in sorted(pm.support())] for pm in pool]
        pm_idx = 0
        offset = 0
        for gi, mm in enumerate(group):
            need = len(mm.arcs)
            # take the slice from a single pool matching so vertex
            # disjointness is automatic
            while pm_idx < len(pool_arcs) and \
                    offset + need > len(pool_arcs[pm_idx]):
                pm_idx += 1
                offset = 0
            if pm_idx >= len(pool_arcs):
                raise ReservoirExhausted(
                    f"H[V_{prev_c},V_{next_c}] cannot supply {need} more "
                    f"edges for cluster {ci}")
            extra = pool_arcs[pm_idx][offset:offset + need]
            offset += need
            sequences.append(Digraph(n_vertices, list(mm.arcs) + extra))
            matchings.append(mm)
            ext_cluster.append(ci)
            order.append((ci, gi))
    be = BalancedExtension(path_sequences=sequences, matchings=matchings,
                           extension_cluster=ext_cluster, eps=2 * eps, ell=3)
    validate_balanced_extension(be, q, cycle)
    return be, order


# -- bipartite builder ----------------------------------------------------


def balance_extend_bipartite(systems: list[BalancedExceptionalSystem],
                             reductions: list[FictiveReduction],
                             partition: ClusterPartition,
                             cycle: ClusterCycle, h: Multigraph,
                             eps: float, inner_degree: int,
                             outer_degree: int) -> BalancedExtension:
    """Two-phase bipartite balanced extension.

    Phase 1 extends each J*_dir into an A_{i1}-extension by adding a
    greedy matching from H' (the inner_degree-regular part of H) oriented
    B -> A_{i1}, giving one vertex-disjoint directed path of length two
    per fictive edge.  Phase 2 balances each sequence: every arc e_r gets
    a companion arc f_r from a per-slot reservoir matching carved out of
    H'' (the rest of H), by the reflection rules "an A_i B_i'-arc is
    balanced by an A_i' B_i-arc" and "a B_i A_i'-arc by a
    B_{i'-1} A_{i+1}-arc", keeping all f_r vertex-disjoint from the
    sequence.  The output passes (BE1)-(BE3) with parameters
    (12*eps*K, 12).
    """
    P = partition
    K, m = P.K, P.m
    q = P.ab_equipartition()
    n = max(v for c in P.clusters for v in c) + 1
    if len(systems) != len(reductions):
        raise InvalidParameter("systems and reductions must align")

    # split H into H' (inner) and H'' (outer) per cluster pair
    h_inner = Multigraph(n)
    h_outer = Multigraph(n)
    for i in range(K):
        for ip in range(K):
            a_i = list(P.a_cluster(i))
            b_ip = list(P.b_cluster(ip))
            pair = h.bipartite_restrict(a_i, b_ip)
            degs = {pair.degree(v) for v in a_i + b_ip}
            if degs != {inner_degree + outer_degree}:
                raise InvalidParameter(
                    f"H[A_{i},B_{ip}] must be exactly "
                    f"{inner_degree + outer_degree}-regular, got "
                    f"{sorted(degs)}")
            pms = regular_bipartite_to_matchings(pair, a_i, b_ip)
            for pm in pms[:inner_degree]:
                h_inner = h_inner + pm
            for pm in pms[inner_degree:]:
                h_outer = h_outer + pm

    # phase 1: A_{i1}-extensions PS_s = J*_dir + M_s,dir
    used_inner: set[tuple[int, int]] = set()
    phase1: list[Digraph] = []
    ext_cluster: list[int] = []
    for idx, (es, red) in enumerate(zip(systems, reductions)):
        i1 = es.locality[0]
        jstar = red.jstar_dir
        a_i1 = set(P.a_cluster(i1))
        jstar_vs = jstar.vertices()
        taken_a: set[int] = set()
        extra: list[tuple[int, int]] = []
        for (_u, bvert) in jstar.arcs:
            cands = [w for w in h_inner.neighbors(bvert)
                     if w in a_i1 and w not in jstar_vs and w not in taken_a
                     and (bvert, w) not in used_inner]
            if not cands:
                raise ReservoirExhausted(
                    f"phase 1: no free H' edge from vertex {bvert} into "
                    f"A_{i1} for system {idx}")
            w = cands[0]
            taken_a.add(w)
            extra.append((bvert, w))
        used_inner.update(extra)
        ps = Digraph(n, list(jstar.arcs) + extra)
        paths = ps.directed_paths()
        if not (len(paths) == len(jstar.arcs)
                and all(len(p) == 3 for p in paths)):
            raise ReservoirExhausted(
                f"phase 1 output for system {idx} is not a disjoint union "
                f"of length-two paths")
        phase1.append(ps)
        ext_cluster.append(i1)

    # phase 2 demands: an arc from cluster U to cluster W is balanced by
    # a companion arc from pred_C(W) to succ_C(U); on the canonical cycle
    # this is exactly "A_i B_i'-edge -> A_i' B_i-edge" and
    # "B_i A_i'-edge -> B_{i'-1} A_{i+1}-edge"
    demand: dict[tuple[int, int], list[int]] = {}
    slot_needs: list[list[tuple[str, tuple[int, int], tuple[int, int]]]] = []
    for idx, ps in enumerate(phase1):
        needs = []
        for (u, v) in ps.arcs():
            cu, cv = q.cluster_index(u), q.cluster_index(v)
            f_start = cycle.predecessor(cv)
            f_end = cycle.successor(cu)
            if cu < K:  # e is an A -> B arc, so f goes A -> B as well
                key = (f_start, f_end - K)          # A x B pool pair
                needs.append(("AB", key, (u, v)))
            else:       # e is a B -> A arc, so f goes B -> A
                key = (f_end, f_start - K)
                needs.append(("BA", key, (u, v)))
        slot_needs.append(needs)
        for key in {k2 for (_kind, k2, _arc) in needs}:
            demand.setdefault(key, []).append(idx)

    # carve per-pair pools of edge-disjoint reservoir matchings; sizes
    # follow the 30*eps*K*m prescription clamped to what H'' can host
    sigma_formula = math.floor(30 * eps * K * m)
    assigned: dict[tuple[int, tuple[int, int]], list[tuple[int, int]]] = {}
    for key, slot_list in sorted(demand.items()):
        i, ip = key
        a_i = list(P.a_cluster(i))
        b_ip = list(P.b_cluster(ip))
        pair = h_outer.bipartite_restrict(a_i, b_ip)
        pms = regular_bipartite_to_matchings(pair, a_i, b_ip)
        count_needed = len(slot_list)
        sigma = max(1, min(sigma_formula, m,
                           (len(pms) * m) // max(1, count_needed)))
        chunks: list[list[tuple[int, int]]] = []
        for pm in pms:
            edges = sorted(pm.support())
            for start in range(0, len(edges) - sigma + 1, sigma):
                chunks.append(edges[start:start + sigma])
        if len(chunks) < count_needed:
            raise ReservoirExhausted(
                f"H''[A_{i},B_{ip}] provides {len(chunks)} matchings of "
                f"size {sigma}, but {count_needed} sequences need one")
        for ci, idx in enumerate(slot_list):
            assigned[(idx, key)] = chunks[ci]

    sequences: list[Digraph] = []
    for idx, ps in enumerate(phase1):
        blocked = set(ps.vertices_with_arcs())
        f_arcs: list[tuple[int, int]] = []
        for (kind, key, _arc) in slot_needs[idx]:
            pool = assigned[(idx, key)]
            pick = None
            for (x, y) in pool:
                if x in blocked or y in blocked:
                    continue
                pick = (x, y)
                break
            if pick is None:
                raise ReservoirExhausted(
                    f"phase 2: reservoir matching for system {idx} at pair "
                    f"{key} has no vertex-disjoint edge left")
            x, y = pick  # x in A-side cluster, y in B-side cluster
            f_arcs.append((x, y) if kind == "AB" else (y, x))
            blocked.update(pick)
        ps2 = Digraph(n, list(ps._arcs) + f_arcs)
        if not is_locally_balanced(ps2, q, cycle):
            raise ReservoirExhausted(
                f"phase 2 output for system {idx} is not locally balanced")
        if ps2.edge_count() != 4 * len(reductions[idx].jstar_dir):
            raise ReservoirExhausted(f"e(PS'_{idx}) != 4 e(J*_{idx})")
        sequences.append(ps2)

    be = BalancedExtension(
        path_sequences=sequences,
        matchings=[red.jstar_dir for red in reductions],
        extension_cluster=ext_cluster, eps=12 * eps * K, ell=12)
    validate_balanced_extension(be, q, cycle)
    return be
