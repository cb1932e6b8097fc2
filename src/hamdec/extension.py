"""Balanced extensions: turn ordered directed matchings into locally
balanced path sequences that later complete to Hamilton cycles.

Two builders (the one-shot two-cliques version and the two-phase
bipartite version) plus a standalone validator for the extension axioms
that is independent of both builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ClusterCycle, ClusterPartition, OrderedDirectedMatching,
                   PathSequence, is_locally_balanced)
from .errors import InvalidParameter, MalformedInput, ReservoirExhausted


@dataclass
class BalancedExtension:
    """Path sequences PS_1..PS_q extending matchings M_1..M_q.

    ``extension_cluster[s]`` is the cluster index (into the equipartition
    order) whose final vertices realize the V_i-extension of M_s.
    """

    path_sequences: list[PathSequence]
    matchings: list[OrderedDirectedMatching]
    extension_cluster: list[int]
    eps: float
    ell: int


def final_vertices(ps: PathSequence, matching: OrderedDirectedMatching
                   ) -> list[int]:
    """The final vertex of the path of ``ps`` through each matching arc,
    in matching order, followed from the arc's head for at most len(ps)
    steps; MalformedInput if an arc is missing or lies on a cycle."""
    xs = []
    for (u, v) in matching.arcs:
        if ps.get(u) != v:
            raise MalformedInput(f"matching arc {(u, v)} missing from its "
                                 "path sequence")
        for _ in range(len(ps)):
            if v not in ps:
                break
            v = ps[v]
        else:
            raise MalformedInput(f"matching arc {(u, ps[u])} lies on a "
                                 "cycle of its path sequence")
        xs.append(v)
    return xs


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
        try:
            ps.paths()
            finals = final_vertices(ps, matching)
        except MalformedInput as e:
            raise MalformedInput(f"PS_{s}: {e}") from None
        if not is_locally_balanced(ps, q, cycle):
            raise MalformedInput(f"PS_{s} is not locally balanced")
        # (BE1) cross-disjointness of PS_s - M_s
        extra = set(ps.items()) - set(matching.arcs)
        if extra & seen_nonmatching_arcs:
            raise MalformedInput(f"PS_{s} - M_{s} shares arcs with an "
                                 "earlier sequence")
        seen_nonmatching_arcs |= extra
        # (BE2) V_{i_s}-extension: each matching arc in a distinct path
        # (distinct final vertices) that ends in cluster i_s
        if len(set(finals)) != len(finals):
            raise MalformedInput(f"two matching arcs share a path in PS_{s}")
        fin_cluster = set(q.cluster(i_s))
        for arc, x in zip(matching.arcs, finals):
            if x not in fin_cluster:
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


def _reserve_pool(reserve: dict[tuple[int, int], np.ndarray], ci: int,
                  cj: int, degree: int, m: int) -> np.ndarray:
    """The perfect matchings of H[V_ci, V_cj] in the layout of
    ``SliceSide.reserve``, oriented V_ci -> V_cj (argsort inverts a
    matching stored as (cj, ci)); InvalidParameter unless there are
    exactly ``degree``, each a perfect matching of positions 0..m-1."""
    cols = np.asarray(reserve.get((min(ci, cj), max(ci, cj)), ()))
    if cols.ndim != 2 or len(cols) != degree:
        raise InvalidParameter(f"H[V_{ci},V_{cj}] must hold exactly "
                               f"{degree} perfect matchings")
    if cols.dtype.kind not in "iu" or cols.shape[1] != m or \
            not (np.sort(cols, axis=1) == np.arange(m)).all():
        raise InvalidParameter(
            f"H[V_{ci},V_{cj}] holds a matching that is not a perfect "
            f"matching of the positions 0..{m - 1} of its clusters")
    return cols if ci < cj else np.argsort(cols, axis=1)


# -- two-cliques builder -------------------------------------------------


def balance_extend_cliques(m_partition: dict[int, list[OrderedDirectedMatching]],
                           q: ClusterPartition, cycle: ClusterCycle,
                           reserve: dict[tuple[int, int], np.ndarray],
                           eps: float
                           ) -> tuple[BalancedExtension,
                                      list[tuple[int, int]]]:
    """Extend each matching M in m_partition[i] (vertices inside V_i) by an
    equal-sized matching from H[V_{i-1}, V_{i+1}] oriented V_{i-1}->V_{i+1}.

    H is given as its perfect matchings (``SliceSide.reserve``), and M
    takes a slice of one.  Requires |m_partition[i]| <= m/k,
    e(M) <= eps*m, and exactly 2*eps*m perfect matchings in every pair
    H[V_{i-1}, V_{i+1}].  Returns the balanced extension with parameters
    (2*eps, 3) and the slot order as (cluster, index-within-cluster)
    pairs.
    """
    k, m = len(q.clusters), q.m
    n = max(map(max, q.clusters)) + 1
    if k < 3:
        raise InvalidParameter("need at least 3 clusters")
    target = round(2 * eps * m)
    # pools[pos]: H[V_{i-1}, V_{i+1}] for V_i at cycle position pos
    pools = [_reserve_pool(reserve, cycle.order[(pos - 1) % k],
                           cycle.order[(pos + 1) % k], target, m)
             for pos in range(k)]
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

    sequences: list[PathSequence] = []
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
        pm_idx = 0
        offset = 0
        for gi, mm in enumerate(group):
            need = len(mm.arcs)
            # take the slice from a single pool matching so vertex
            # disjointness is automatic
            while pm_idx < target and offset + need > m:
                pm_idx += 1
                offset = 0
            if pm_idx >= target:
                raise ReservoirExhausted(
                    f"H[V_{prev_c},V_{next_c}] cannot supply {need} more "
                    f"edges for cluster {ci}")
            cols = pools[pos][pm_idx, offset:offset + need]
            extra = list(zip(q.cluster(prev_c)[offset:offset + need],
                             np.take(q.cluster(next_c), cols).tolist()))
            offset += need
            sequences.append(PathSequence.from_arcs(n, [*mm.arcs, *extra]))
            matchings.append(mm)
            ext_cluster.append(ci)
            order.append((ci, gi))
    be = BalancedExtension(path_sequences=sequences, matchings=matchings,
                           extension_cluster=ext_cluster, eps=2 * eps, ell=3)
    validate_balanced_extension(be, q, cycle)
    return be, order


# -- bipartite builder ----------------------------------------------------


def balance_extend_bipartite(matchings: list[OrderedDirectedMatching],
                             clusters: list[int], q: ClusterPartition,
                             cycle: ClusterCycle,
                             reserve: dict[tuple[int, int], np.ndarray],
                             eps: float, inner_degree: int,
                             outer_degree: int) -> BalancedExtension:
    """Two-phase bipartite balanced extension.

    ``q`` is the slice's equipartition into the 2K clusters A_1..A_K,
    B_1..B_K, in that order.  H is given as its perfect matchings
    (``SliceSide.reserve`` on those clusters): exactly inner_degree +
    outer_degree per (A_i, B_i') pair, the first inner_degree of which
    are H'.

    Phase 1 extends each ordered matching J*_dir, ``matchings[s]``, into
    an A_{i1}-extension, i1 = ``clusters[s]``, by adding a
    greedy matching from H' oriented B -> A_{i1}, giving one
    vertex-disjoint directed path of length two per fictive edge.  Phase
    2 balances each sequence: every arc e_r gets a companion arc f_r from
    a per-slot slice of one matching of H'' (the rest of H), by the
    reflection rules "an A_i B_i'-arc is balanced by an A_i' B_i-arc" and
    "a B_i A_i'-arc by a B_{i'-1} A_{i+1}-arc", keeping all f_r
    vertex-disjoint from the sequence.  The output passes (BE1)-(BE3)
    with parameters (12*eps*K, 12).
    """
    K, m = len(q.clusters) // 2, q.m
    n = max(map(max, q.clusters)) + 1
    if len(matchings) != len(clusters):
        raise InvalidParameter("matchings and clusters must align")
    # pools[i, K + ip]: the matchings of H[A_i, B_ip], H' first
    pools = {(i, K + ip): _reserve_pool(reserve, i, K + ip,
                                        inner_degree + outer_degree, m)
             for i in range(K) for ip in range(K)}

    # phase 1: A_{i1}-extensions PS_s = J*_dir + M_s,dir
    used_inner: set[tuple[int, int]] = set()
    phase1: list[PathSequence] = []
    ext_cluster: list[int] = []
    for idx, (jstar, i1) in enumerate(zip(matchings, clusters)):
        a_i1 = q.cluster(i1)
        jstar_vs = jstar.vertices()
        taken_a: set[int] = set()
        extra: list[tuple[int, int]] = []
        for (_u, bvert) in jstar.arcs:
            # the H' neighbours of a B-vertex in A_{i1}, one per draw
            cb = q.cluster_index(bvert)
            nbrs = []
            if cb >= K:
                b = q.cluster(cb).index(bvert)
                nbrs = np.nonzero(pools[i1, cb][:inner_degree] == b)[1]
            cands = [w for w in (a_i1[p] for p in nbrs)
                     if w not in jstar_vs and w not in taken_a
                     and (bvert, w) not in used_inner]
            if not cands:
                raise ReservoirExhausted(
                    f"phase 1: no free H' edge from vertex {bvert} into "
                    f"A_{i1} for system {idx}")
            w = cands[0]
            taken_a.add(w)
            extra.append((bvert, w))
        used_inner.update(extra)
        ps = PathSequence.from_arcs(n, [*jstar.arcs, *extra])
        paths = ps.paths()
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
    slot_needs: list[list[tuple[str, tuple[int, int]]]] = []
    for idx, ps in enumerate(phase1):
        needs = []
        for (u, v) in ps.arcs():
            cu, cv = q.cluster_index(u), q.cluster_index(v)
            f_start = cycle.predecessor(cv)
            f_end = cycle.successor(cu)
            if cu < K:  # e is an A -> B arc, so f goes A -> B as well
                key = (f_start, f_end - K)          # A x B pool pair
                needs.append(("AB", key))
            else:       # e is a B -> A arc, so f goes B -> A
                key = (f_end, f_start - K)
                needs.append(("BA", key))
        slot_needs.append(needs)
        for key in {k2 for (_kind, k2) in needs}:
            demand.setdefault(key, []).append(idx)

    # carve per-pair pools of edge-disjoint reservoir matchings; sizes
    # follow the 30*eps*K*m prescription clamped to what H'' can host
    sigma_formula = math.floor(30 * eps * K * m)
    assigned: dict[tuple[int, tuple[int, int]], list[tuple[int, int]]] = {}
    for key, slot_list in sorted(demand.items()):
        i, ip = key
        count_needed = len(slot_list)
        sigma = max(1, min(sigma_formula, m,
                           (outer_degree * m) // max(1, count_needed)))
        # (A, B) edges, so a pick is oriented whatever the id layout
        a_i, b_ip = q.cluster(i), q.cluster(K + ip)
        chunks: list[list[tuple[int, int]]] = []
        for cols in pools[i, K + ip][inner_degree:]:
            pm = list(zip(a_i, np.take(b_ip, cols).tolist()))
            for start in range(0, m - sigma + 1, sigma):
                chunks.append(pm[start:start + sigma])
        if len(chunks) < count_needed:
            raise ReservoirExhausted(
                f"H''[A_{i},B_{ip}] provides {len(chunks)} matchings of "
                f"size {sigma}, but {count_needed} sequences need one")
        for ci, idx in enumerate(slot_list):
            assigned[(idx, key)] = chunks[ci]

    sequences: list[PathSequence] = []
    for idx, ps in enumerate(phase1):
        blocked = ps.vertices_with_arcs()
        f_arcs: list[tuple[int, int]] = []
        for (kind, key) in slot_needs[idx]:
            pick = next(((x, y) for (x, y) in assigned[(idx, key)]
                         if x not in blocked and y not in blocked), None)
            if pick is None:
                raise ReservoirExhausted(
                    f"phase 2: reservoir matching for system {idx} at pair "
                    f"{key} has no vertex-disjoint edge left")
            x, y = pick  # x in A-side cluster, y in B-side cluster
            f_arcs.append((x, y) if kind == "AB" else (y, x))
            blocked.update(pick)
        ps2 = PathSequence.from_arcs(n, [*ps.items(), *f_arcs])
        if not is_locally_balanced(ps2, q, cycle):
            raise ReservoirExhausted(
                f"phase 2 output for system {idx} is not locally balanced")
        if len(ps2) != 4 * len(matchings[idx]):
            raise ReservoirExhausted(f"e(PS'_{idx}) != 4 e(J*_{idx})")
        sequences.append(ps2)

    be = BalancedExtension(
        path_sequences=sequences,
        matchings=list(matchings),
        extension_cluster=ext_cluster, eps=12 * eps * K, ell=12)
    validate_balanced_extension(be, q, cycle)
    return be
