"""Turn balanced extensions into Hamilton cycles inside a cyclic system:
1-factor completion, cycle merging through reserved superregular pairs,
waypoint reordering, and the per-slice pipeline.

Every operation re-verifies its own output structurally before returning
(1-regularity, Hamiltonicity, waypoint order, containment); nothing
trusts its own construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .classic import (hopcroft_karp, regular_bipartite_to_matchings,
                      regular_spanning_subgraph)
from .core import (Digraph, Multigraph, OrderedDirectedMatching,
                   cycle_vertex_order, derive_seed, is_consistent_with,
                   verify_hamilton_cycle, visits_in_order)
from .cyclic import CyclicSystem
from .errors import (AssemblyVerificationFailed, DegreeHypothesisViolated,
                     HamiltonSearchExhausted, MalformedInput,
                     MatchingInfeasible)
from .extension import BalancedExtension


# -- 1-factor completion (locally balanced path sequences -> 1-factors) ------


def extend_to_one_factors(system: CyclicSystem, ps_list: list[Digraph]
                          ) -> list[Digraph]:
    """Extend each locally balanced path sequence into a directed 1-factor
    on the cyclic system's vertex set, using winding edges of the system;
    the added parts are pairwise edge-disjoint across slots.

    Per cluster pair, slots whose sequences touch the pair are matched
    first by augmenting paths on the restricted sets; the remaining slots
    take perfect matchings from an exactly (q - s0)-regular spanning
    subgraph extracted by flow, which always 1-factorizes.
    """
    q_count = len(ps_list)
    qp = system.q
    k, m = len(qp.clusters), qp.m
    n = system.g_dir.n
    out_plus: list[dict[int, set[int]]] = []
    in_minus: list[dict[int, set[int]]] = []
    for ps in ps_list:
        plus: dict[int, set[int]] = {}
        minus: dict[int, set[int]] = {}
        for (u, v) in ps._arcs:
            plus.setdefault(qp.cluster_index(u), set()).add(u)
            minus.setdefault(qp.cluster_index(v), set()).add(v)
        out_plus.append(plus)
        in_minus.append(minus)

    add_arcs: list[list[tuple[int, int]]] = [[] for _ in range(q_count)]
    for pos in range(k):
        ci = system.cycle.order[pos]
        cj = system.cycle.order[(pos + 1) % k]
        tails = list(qp.cluster(ci))
        heads = list(qp.cluster(cj))
        tail_set, head_set = set(tails), set(heads)
        pair_arcs = {(u, v) for (u, v) in system.g_dir._arcs
                     if u in tail_set and v in head_set}
        used: set[tuple[int, int]] = set()
        restricted = [s for s in range(q_count)
                      if out_plus[s].get(ci) or in_minus[s].get(cj)]
        bulk = [s for s in range(q_count) if s not in set(restricted)]
        for s in restricted:
            t_free = [u for u in tails if u not in out_plus[s].get(ci, ())]
            h_free = [v for v in heads if v not in in_minus[s].get(cj, ())]
            if len(t_free) != len(h_free):
                raise MalformedInput(
                    f"slot {s} not locally balanced at pair ({ci},{cj}): "
                    f"{len(t_free)} free tails vs {len(h_free)} free heads")
            match = _pair_matching(pair_arcs - used, t_free, h_free, ci, cj, s)
            used.update(match)
            add_arcs[s].extend(match)
        if bulk:
            avail = Multigraph(n, [(u, v) for (u, v) in pair_arcs
                                   if (u, v) not in used])
            try:
                sub = regular_spanning_subgraph(avail, tails, heads, 0.0, 0.0,
                                                degree=len(bulk))
            except DegreeHypothesisViolated as e:
                raise MatchingInfeasible(
                    f"cannot extract {len(bulk)} edge-disjoint perfect "
                    f"matchings at pair ({ci},{cj})", witness=e.witness
                ) from e
            pms = regular_bipartite_to_matchings(sub, tails, heads)
            for s, pm in zip(bulk, pms):
                arcs = [(u, v) if u in tail_set else (v, u)
                        for (u, v) in pm.support()]
                add_arcs[s].extend(arcs)

    factors = []
    verts = {v for c in qp.clusters for v in c}
    for s in range(q_count):
        f = Digraph(n, set(ps_list[s]._arcs) | set(add_arcs[s]))
        for v in verts:
            if f.out_degree(v) != 1 or f.in_degree(v) != 1:
                raise AssemblyVerificationFailed(
                    f"slot {s}: vertex {v} has degree "
                    f"({f.in_degree(v)},{f.out_degree(v)}) in the 1-factor")
        factors.append(f)
    return factors


def _pair_matching(avail_arcs: set[tuple[int, int]], tails, heads,
                   ci, cj, slot) -> list[tuple[int, int]]:
    tpos = {v: i for i, v in enumerate(tails)}
    hpos = {v: i for i, v in enumerate(heads)}
    adj: list[list[int]] = [[] for _ in tails]
    for (u, v) in avail_arcs:
        if u in tpos and v in hpos:
            adj[tpos[u]].append(hpos[v])
    for row in adj:
        row.sort()
    match = hopcroft_karp(adj, len(heads))
    if any(x == -1 for x in match):
        deficient = [tails[i] for i, x in enumerate(match) if x == -1]
        raise MatchingInfeasible(
            f"slot {slot}: no perfect matching at pair ({ci},{cj})",
            witness={"unmatched_tails": deficient})
    return [(tails[i], heads[match[i]]) for i in range(len(tails))]


# -- ordered Hamilton cycle search -------------------------------------------


DEFAULT_RESTARTS = 80
WAYPOINT_FRACTION = 0.5


def find_ordered_hamilton(d: Digraph, waypoints: list[int],
                          restarts: int = DEFAULT_RESTARTS,
                          rng: random.Random | None = None,
                          vertices=None) -> Digraph:
    """A directed Hamilton cycle of ``d`` visiting ``waypoints`` in cyclic
    order, found by randomized greedy insertion plus local reinsertion
    search with restarts.  The output is always verified (Hamiltonicity
    and waypoint order) before returning; a correct answer never depends
    on the heuristic.
    """
    rng = rng or random.Random(0)
    verts = sorted(vertices) if vertices is not None \
        else sorted(d.vertices_with_arcs())
    nv = len(verts)
    if nv < 2:
        raise HamiltonSearchExhausted("fewer than two vertices", restarts=0)
    if len(set(waypoints)) != len(waypoints) or \
            not set(waypoints) <= set(verts):
        raise MalformedInput("waypoints must be distinct vertices of d")
    if len(waypoints) > max(1, WAYPOINT_FRACTION * nv):
        raise MalformedInput(
            f"{len(waypoints)} waypoints exceed the supported fraction "
            f"{WAYPOINT_FRACTION} of {nv} vertices")
    arcset = d._arcs
    others = [v for v in verts if v not in set(waypoints)]
    moves_budget = 30 * nv

    for attempt in range(restarts):
        seq = _greedy_insertion(arcset, list(waypoints), others, rng)
        seq = _local_search(arcset, seq, set(waypoints), moves_budget, rng)
        if seq is not None:
            cyc = Digraph(d.n, [(seq[i], seq[(i + 1) % nv])
                                for i in range(nv)])
            if verify_hamilton_cycle(cyc, set(verts)) and \
                    visits_in_order(seq, waypoints):
                return cyc
    raise HamiltonSearchExhausted(
        f"no ordered Hamilton cycle found on {nv} vertices with "
        f"{len(waypoints)} waypoints", restarts=restarts)


def _greedy_insertion(arcset, waypoints: list[int], others: list[int],
                      rng: random.Random) -> list[int]:
    seq = list(waypoints)
    if not seq:
        seq = [others[rng.randrange(len(others))]]
        others = [v for v in others if v != seq[0]]
    else:
        others = list(others)
    rng.shuffle(others)
    for v in others:
        best_cost, best_pos = None, 0
        ln = len(seq)
        for i in range(ln):
            a, b = seq[i], seq[(i + 1) % ln]
            old = 0 if (a, b) in arcset else 1
            new = (0 if (a, v) in arcset else 1) + \
                  (0 if (v, b) in arcset else 1)
            delta = new - old
            if best_cost is None or delta < best_cost:
                best_cost, best_pos = delta, i + 1
        seq.insert(best_pos, v)
    return seq


def _local_search(arcset, seq: list[int], waypoint_set: set[int],
                  budget: int, rng: random.Random) -> list[int] | None:
    nv = len(seq)

    def pair_cost(a, b):
        return 0 if (a, b) in arcset else 1

    def total_cost(s):
        return sum(pair_cost(s[i], s[(i + 1) % nv]) for i in range(nv))

    cost = total_cost(seq)
    stall = 0
    for _ in range(budget):
        if cost == 0:
            return seq
        # pick a vertex adjacent to a breakpoint if possible
        breakpoints = [i for i in range(nv)
                       if pair_cost(seq[i], seq[(i + 1) % nv])]
        cands = []
        for i in breakpoints:
            for j in (i, (i + 1) % nv):
                if seq[j] not in waypoint_set:
                    cands.append(j)
        if not cands:
            movable = [i for i in range(nv) if seq[i] not in waypoint_set]
            if not movable:
                return None
            cands = movable
        j = cands[rng.randrange(len(cands))]
        v = seq[j]
        prev_i, next_i = (j - 1) % nv, (j + 1) % nv
        removed_delta = (pair_cost(seq[prev_i], seq[next_i])
                         - pair_cost(seq[prev_i], v)
                         - pair_cost(v, seq[next_i]))
        work = seq[:j] + seq[j + 1:]
        ln = len(work)
        best_delta, best_positions = None, []
        for i in range(ln):
            a, b = work[i], work[(i + 1) % ln]
            delta = (pair_cost(a, v) + pair_cost(v, b) - pair_cost(a, b))
            if best_delta is None or delta < best_delta:
                best_delta, best_positions = delta, [i + 1]
            elif delta == best_delta:
                best_positions.append(i + 1)
        change = removed_delta + best_delta
        if change <= 0:
            pos = best_positions[rng.randrange(len(best_positions))]
            work.insert(pos, v)
            seq = work
            cost += change
            stall = stall + 1 if change == 0 else 0
        else:
            stall += 1
        if stall > 6 * nv:
            return None  # plateau; let the caller restart
    return seq if cost == 0 else None


# -- merging and reordering via the auxiliary digraph -------------------------


@dataclass
class PairSpec:
    """One cluster-cycle edge with its replacement sets V^1_i, V^2_{i+1}."""

    cluster_index: int
    v1: tuple[int, ...]
    v2: tuple[int, ...]


def _replace_pair_matching(f: Digraph, spec: PairSpec,
                           reservoir: set[tuple[int, int]],
                           waypoints: list[int], rng: random.Random
                           ) -> tuple[Digraph, list[tuple[int, int]]]:
    """Replace the perfect matching F[V^1, V^2] with one from the reservoir
    arcs so that all paths through the pair close into a single cycle,
    visiting the paths ending at ``waypoints`` (subset of V^1) in order.
    The arcs taken are removed from ``reservoir``.

    Built on the auxiliary digraph whose vertices are V^2: identify each
    path (from y in V^2 to x in V^1, after deleting the pair matching)
    with its start y, and put an arc y -> y' when the reservoir joins x
    to y'.  A Hamilton cycle there is exactly a valid replacement
    matching.
    """
    v1, v2 = set(spec.v1), set(spec.v2)
    matching = {}
    for x in v1:
        outs = f.out_neighbors(x) & v2
        if len(outs) != 1:
            raise MalformedInput(
                f"F[V1,V2] at cluster {spec.cluster_index} is not a perfect "
                f"matching (vertex {x})")
        matching[x] = next(iter(outs))
    if len(set(matching.values())) != len(v2):
        raise MalformedInput(
            f"F[V1,V2] at cluster {spec.cluster_index} is not a perfect "
            f"matching (heads not exactly V^2)")
    # f(x): walk backwards from x in V^1 to the first vertex in V^2.
    # Every V^2 vertex has its in-arc inside the pair matching, so the
    # first V^2 vertex met is exactly the start of the path ending at x.
    start_of: dict[int, int] = {}
    for x in v1:
        cur = x
        while True:
            cur = next(iter(f.in_neighbors(cur)))
            if cur in v2:
                break
        start_of[x] = cur
    aux = Digraph(f.n, {(start_of[x], w) for x in v1 for w in v2
                        if w != start_of[x] and (x, w) in reservoir})
    aux_waypoints = [start_of[x] for x in waypoints]
    cyc = find_ordered_hamilton(aux, aux_waypoints, rng=rng,
                                vertices=sorted(v2))
    # translate the auxiliary cycle back into a replacement matching
    inv_start = {y: x for x, y in start_of.items()}
    new_arcs = [(inv_start[y], y2) for (y, y2) in cyc._arcs]
    reservoir.difference_update(new_arcs)
    f2 = Digraph(f.n, (f._arcs - set(matching.items())) | set(new_arcs))
    return f2, new_arcs


def _cycle_count(f: Digraph, verts: set[int]) -> list[list[int]]:
    """Decompose a 1-regular digraph into its cycles (as vertex lists)."""
    seen: set[int] = set()
    cycles = []
    for v in sorted(verts):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        cur = next(iter(f.out_neighbors(v)))
        while cur != v:
            cyc.append(cur)
            seen.add(cur)
            cur = next(iter(f.out_neighbors(cur)))
        cycles.append(cyc)
    return cycles


def merge_to_hamilton(f: Digraph, reservoir: set[tuple[int, int]],
                      pairs: list[PairSpec],
                      rng: random.Random | None = None
                      ) -> tuple[Digraph, list[tuple[int, int]]]:
    """Merge the cycles of the 1-factor ``f`` into a single directed cycle
    by replacing F[V^1_i, V^2_{i+1}] with matchings of unused reservoir
    arcs at (a subset of) the listed pairs.  Returns (cycle, arcs taken);
    the arcs taken are removed from ``reservoir``.

    A replacement happens at a pair only while the factor is still
    disconnected and at least two current cycles pass through the pair;
    every cycle must pass through some listed pair or the merge fails.
    """
    rng = rng or random.Random(0)
    verts = f.vertices_with_arcs()
    used: list[tuple[int, int]] = []
    current = f
    for spec in pairs:
        cycles = _cycle_count(current, verts)
        if len(cycles) == 1:
            break
        v1 = set(spec.v1)
        touching = sum(1 for cyc in cycles if set(cyc) & v1)
        if touching < 2:
            continue
        current, new_arcs = _replace_pair_matching(
            current, spec, reservoir, [], rng)
        used.extend(new_arcs)
    cycles = _cycle_count(current, verts)
    if len(cycles) != 1:
        raise MalformedInput(
            f"{len(cycles)} cycles remain after merging at all listed "
            f"pairs; a cycle avoids every pair (precondition violation)")
    if not verify_hamilton_cycle(current, verts):
        raise AssemblyVerificationFailed("merged factor failed verification")
    return current, used


def reorder_for_consistency(cycle: Digraph,
                            reservoir: set[tuple[int, int]],
                            spec: PairSpec, waypoints: list[int],
                            rng: random.Random | None = None
                            ) -> tuple[Digraph, list[tuple[int, int]]]:
    """A Hamilton cycle on the same vertices visiting ``waypoints`` in
    cyclic order, differing from the input only inside the given pair;
    the reservoir arcs it takes are removed from ``reservoir``.

    If the input already visits the waypoints in order it is returned
    unchanged (consuming no reservoir arcs).
    """
    rng = rng or random.Random(0)
    verts = cycle.vertices_with_arcs()
    if not verify_hamilton_cycle(cycle, verts):
        raise MalformedInput("reorder requires a Hamilton cycle")
    if not set(waypoints) <= set(spec.v1):
        raise MalformedInput("waypoints must lie inside V^1 of the pair")
    # any rotation realizes the cyclic order of at most two waypoints
    if len(waypoints) <= 2 or \
            visits_in_order(cycle_vertex_order(cycle, verts), waypoints):
        return cycle, []
    out, new_arcs = _replace_pair_matching(cycle, spec, reservoir,
                                           list(waypoints), rng)
    if not verify_hamilton_cycle(out, verts):
        raise AssemblyVerificationFailed("reordered cycle failed verification")
    if not visits_in_order(cycle_vertex_order(out, verts), waypoints):
        raise AssemblyVerificationFailed("reordered cycle ignores waypoints")
    return out, new_arcs


# -- the per-slice pipeline ----------------------------------------------


@dataclass
class SliceAssembly:
    cycles: list[Digraph]
    reservoir_usage: list[list[tuple[int, int]]]


def assemble_slice(system: CyclicSystem, be: BalancedExtension,
                   reservoir: Digraph, seed: int = 0) -> SliceAssembly:
    """Produce one consistent Hamilton cycle per balanced-extension slot.

    Maintains the depleting reservoir ledger H_s = H - sum(C_{s'} - F_{s'})
    as one set of unused reservoir arcs, which merging and reordering
    deplete in place; per slot: extend to 1-factors, merge through the
    touched cluster pairs, then reorder at the extension cluster so the
    cycle is consistent with its ordered matching.  Every output is
    re-verified: sequence containment, consistency, Hamiltonicity, and the
    confinement of C_s - F_s to the touched pairs.
    """
    qp = system.q
    k = len(qp.clusters)
    factors = extend_to_one_factors(system, be.path_sequences)
    unused = set(reservoir._arcs)
    out_cycles: list[Digraph] = []
    usage: list[list[tuple[int, int]]] = []
    for s, (ps, matching, i_s) in enumerate(zip(
            be.path_sequences, be.matchings, be.extension_cluster)):
        rng = random.Random(derive_seed(seed, "slot", s))
        touched = sorted({qp.cluster_index(x)
                          for (u, v) in ps._arcs for x in (u, v)})
        if not touched:
            touched = [(i_s + s) % k]
        ordered = _pair_order(touched, i_s, system, k)
        specs = []
        for ci in ordered:
            v1 = tuple(v for v in qp.cluster(ci)
                       if ps.out_degree(v) == 0)
            cj = system.cycle.successor(ci)
            v2 = tuple(v for v in qp.cluster(cj)
                       if ps.in_degree(v) == 0)
            specs.append(PairSpec(cluster_index=ci, v1=v1, v2=v2))
        merged, used1 = merge_to_hamilton(factors[s], unused, specs, rng=rng)
        # reorder at the extension cluster
        ext_spec = next(sp for sp in specs if sp.cluster_index == i_s) \
            if any(sp.cluster_index == i_s for sp in specs) else specs[0]
        xs = _final_waypoints(ps, matching, i_s, qp)
        final, used2 = reorder_for_consistency(merged, unused, ext_spec, xs,
                                               rng=rng)
        # full verification of the slot output
        if not set(ps._arcs) <= set(final._arcs):
            raise AssemblyVerificationFailed(
                f"slot {s}: path sequence not contained in the output")
        if not is_consistent_with(final, matching):
            raise AssemblyVerificationFailed(
                f"slot {s}: output not consistent with its matching")
        diff = set(final._arcs) - set(factors[s]._arcs)
        allowed_clusters = {sp.cluster_index for sp in specs}
        for (u, v) in diff:
            if qp.cluster_index(u) not in allowed_clusters:
                raise AssemblyVerificationFailed(
                    f"slot {s}: replacement arc ({u},{v}) outside the "
                    f"touched pairs")
        out_cycles.append(final)
        usage.append(used1 + used2)
    # conservation: all reservoir arcs charged exist in the reservoir and
    # are pairwise distinct across slots
    flat = [a for u in usage for a in u]
    if len(flat) != len(set(flat)):
        raise AssemblyVerificationFailed("reservoir arc charged twice")
    for a in flat:
        if a not in reservoir._arcs:
            raise AssemblyVerificationFailed(
                f"replacement arc {a} not in the reservoir")
    return SliceAssembly(cycles=out_cycles, reservoir_usage=usage)


def _pair_order(touched: list[int], i_s: int, system: CyclicSystem,
                k: int) -> list[int]:
    """Order pairs so the successor pair of the extension cluster comes
    first (every cycle of the 1-factor passes through it with free
    vertices), then the rest."""
    succ = system.cycle.successor(i_s)
    ordered = []
    if succ in touched:
        ordered.append(succ)
    for ci in touched:
        if ci not in ordered:
            ordered.append(ci)
    return ordered


def _final_waypoints(ps: Digraph, matching: OrderedDirectedMatching,
                     i_s: int, qp) -> list[int]:
    """Final vertices of the paths containing the matching arcs, in
    matching order; these drive the consistency reordering."""
    if not matching.arcs:
        return []
    paths = ps.directed_paths()
    arc_to_end: dict[tuple[int, int], int] = {}
    for path in paths:
        for t in range(len(path) - 1):
            arc_to_end[(path[t], path[t + 1])] = path[-1]
    xs = []
    for arc in matching.arcs:
        end = arc_to_end.get(arc)
        if end is None:
            raise MalformedInput(f"matching arc {arc} missing from its "
                                 "path sequence")
        xs.append(end)
    return xs
