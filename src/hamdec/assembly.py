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
from itertools import chain

from .classic import (regular_bipartite_to_matchings,
                      regular_spanning_subgraph, take_matching)
from .core import (Digraph, OrderedDirectedMatching, derive_seed,
                   visits_in_order)
from .cyclic import CyclicSystem
from .errors import (AssemblyVerificationFailed, DegreeHypothesisViolated,
                     HamiltonSearchExhausted, MalformedInput,
                     MatchingInfeasible)
from .extension import BalancedExtension


# -- 1-factor completion (locally balanced path sequences -> 1-factors) ------


class SuccessorArray(list):
    """A 1-factor or cycle as ``succ[v]``, -1 for vertices off it."""

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in enumerate(self) if v >= 0]


def extend_to_one_factors(system: CyclicSystem, ps_list: list[Digraph]
                          ) -> list[SuccessorArray]:
    """Extend each locally balanced path sequence into a directed 1-factor
    on the cyclic system's vertex set, using winding edges of the system;
    the added parts are pairwise edge-disjoint across slots.  Each factor
    is returned as its successor array.

    Per cluster pair, slots whose sequences touch the pair are matched
    first by augmenting paths on the restricted sets; the remaining slots
    take perfect matchings from an exactly (q - s0)-regular spanning
    subgraph extracted by flow, which always 1-factorizes.
    """
    q_count = len(ps_list)
    qp = system.q
    n = system.n
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
    for (ci, cj), (tails, heads, mat) in zip(system.cycle.edges(),
                                             system.pairs):
        avail = mat.copy()
        restricted = [s for s in range(q_count)
                      if out_plus[s].get(ci) or in_minus[s].get(cj)]
        bulk = [s for s in range(q_count) if s not in set(restricted)]
        for s in restricted:
            busy_t, busy_h = out_plus[s].get(ci, ()), in_minus[s].get(cj, ())
            t_free = [a for a, u in enumerate(tails) if u not in busy_t]
            h_free = [b for b, v in enumerate(heads) if v not in busy_h]
            if len(t_free) != len(h_free):
                raise MalformedInput(
                    f"slot {s} not locally balanced at pair ({ci},{cj}): "
                    f"{len(t_free)} free tails vs {len(h_free)} free heads")
            try:
                match = take_matching(avail, t_free, h_free)
            except MatchingInfeasible as e:
                raise MatchingInfeasible(
                    f"slot {s}: no perfect matching at pair ({ci},{cj})",
                    witness={"unmatched_tails": [
                        tails[a] for a in e.witness["unmatched"]]}) from None
            add_arcs[s].extend((tails[a], heads[h_free[p]])
                               for a, p in zip(t_free, match))
        if bulk:
            try:
                sub = regular_spanning_subgraph(avail, tails, heads, 0.0,
                                                0.0, degree=len(bulk))
            except DegreeHypothesisViolated as e:
                raise MatchingInfeasible(
                    f"cannot extract {len(bulk)} edge-disjoint perfect "
                    f"matchings at pair ({ci},{cj})", witness=e.witness
                ) from e
            for s, pm in zip(bulk, regular_bipartite_to_matchings(
                    sub, tails, heads)):
                add_arcs[s].extend(pm)

    factors = []
    verts = [v for c in qp.clusters for v in c]
    for s in range(q_count):
        succ = SuccessorArray([-1] * n)
        pred = [-1] * n
        for (u, v) in chain(ps_list[s]._arcs, add_arcs[s]):
            if succ[u] != -1 or pred[v] != -1:
                raise AssemblyVerificationFailed(
                    f"slot {s}: arc ({u},{v}) doubles a degree in the "
                    f"1-factor")
            succ[u], pred[v] = v, u
        for v in verts:
            if succ[v] == -1 or pred[v] == -1:
                raise AssemblyVerificationFailed(
                    f"slot {s}: vertex {v} has degree "
                    f"({int(pred[v] != -1)},{int(succ[v] != -1)}) in the "
                    f"1-factor")
        factors.append(succ)
    return factors


# -- ordered Hamilton cycle search -------------------------------------------


DEFAULT_RESTARTS = 80
WAYPOINT_FRACTION = 0.5


def find_ordered_hamilton(arcs: set[tuple[int, int]], waypoints: list[int],
                          vertices, restarts: int = DEFAULT_RESTARTS,
                          rng: random.Random | None = None) -> list[int]:
    """A directed Hamilton cycle on ``vertices`` using only ``arcs``
    (a set of pairs) and visiting ``waypoints`` in cyclic order, as its
    vertex sequence; found by randomized greedy insertion plus local
    reinsertion search with restarts.  The output is always verified
    (every step an arc, every vertex once, waypoint order) before
    returning; a correct answer never depends on the heuristic.
    """
    rng = rng or random.Random(0)
    verts = sorted(vertices)
    nv = len(verts)
    if nv < 2:
        raise HamiltonSearchExhausted("fewer than two vertices", restarts=0)
    if len(set(waypoints)) != len(waypoints) or \
            not set(waypoints) <= set(verts):
        raise MalformedInput("waypoints must be distinct vertices")
    if len(waypoints) > max(1, WAYPOINT_FRACTION * nv):
        raise MalformedInput(
            f"{len(waypoints)} waypoints exceed the supported fraction "
            f"{WAYPOINT_FRACTION} of {nv} vertices")
    others = [v for v in verts if v not in set(waypoints)]
    moves_budget = 30 * nv

    for attempt in range(restarts):
        seq = _greedy_insertion(arcs, list(waypoints), others, rng)
        seq = _local_search(arcs, seq, set(waypoints), moves_budget, rng)
        if seq is not None and sorted(seq) == verts and \
                all((seq[i - 1], seq[i]) in arcs for i in range(nv)) and \
                visits_in_order(seq, waypoints):
            return seq
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


def _replace_pair_matching(succ: list[int], spec: PairSpec,
                           ledger: dict[int, set[int]],
                           waypoints: list[int], rng: random.Random
                           ) -> tuple[list[int], list[tuple[int, int]]]:
    """Replace the perfect matching F[V^1, V^2] of the 1-factor ``succ``
    with one from the reservoir rows ``ledger`` so that all paths through
    the pair close into a single cycle, visiting the paths ending at
    ``waypoints`` (subset of V^1) in order.  Returns the new successor
    array and the arcs taken, which are removed from ``ledger``.

    Built on the auxiliary digraph whose vertices are V^2: identify each
    path (from y in V^2 to x in V^1, after deleting the pair matching)
    with its start y, and put an arc y -> y' when the reservoir joins x
    to y'.  A Hamilton cycle there is exactly a valid replacement
    matching.
    """
    v1, v2 = set(spec.v1), set(spec.v2)
    for x in v1:
        if succ[x] not in v2:
            raise MalformedInput(
                f"F[V1,V2] at cluster {spec.cluster_index} is not a perfect "
                f"matching (vertex {x})")
    if len({succ[x] for x in v1}) != len(v2):
        raise MalformedInput(
            f"F[V1,V2] at cluster {spec.cluster_index} is not a perfect "
            f"matching (heads not exactly V^2)")
    # f(x): walk backwards from x in V^1 to the first vertex in V^2.
    # Every V^2 vertex has its in-arc inside the pair matching, so the
    # first V^2 vertex met is exactly the start of the path ending at x.
    pred = [-1] * len(succ)
    for v, w in enumerate(succ):
        if w >= 0:
            pred[w] = v
    start_of: dict[int, int] = {}
    for x in v1:
        cur = pred[x]
        while cur not in v2:
            cur = pred[cur]
        start_of[x] = cur
    aux = {(start_of[x], w) for x in v1 for w in ledger.get(x, set()) & v2
           if w != start_of[x]}
    aux_waypoints = [start_of[x] for x in waypoints]
    seq = find_ordered_hamilton(aux, aux_waypoints, v2, rng=rng)
    # translate the auxiliary cycle back into a replacement matching
    inv_start = {y: x for x, y in start_of.items()}
    new_arcs = [(inv_start[y], y2) for y, y2 in zip(seq, seq[1:] + seq[:1])]
    out = list(succ)
    for (x, y2) in new_arcs:
        out[x] = y2
        ledger[x].discard(y2)
    return out, new_arcs


def _cycles(succ: list[int], verts: list[int]) -> list[list[int]] | None:
    """The cycles of ``succ`` as vertex lists, each from its first vertex
    in ``verts``, or None unless ``succ`` permutes ``verts``: every walk
    from a vertex of ``verts`` returns to it through unvisited vertices of
    ``verts`` only."""
    unseen = set(verts)
    cycles = []
    for v in verts:
        if v not in unseen:
            continue
        unseen.discard(v)
        cyc, cur = [v], succ[v]
        while cur != v:
            if cur not in unseen:
                return None
            unseen.discard(cur)
            cyc.append(cur)
            cur = succ[cur]
        cycles.append(cyc)
    return cycles


def _support(succ: list[int]) -> list[int]:
    return [v for v, w in enumerate(succ) if w >= 0]


def merge_to_hamilton(succ: list[int], ledger: dict[int, set[int]],
                      pairs: list[PairSpec],
                      rng: random.Random | None = None
                      ) -> tuple[list[int], list[tuple[int, int]]]:
    """Merge the cycles of the 1-factor ``succ`` into a single directed
    cycle by replacing F[V^1_i, V^2_{i+1}] with matchings of unused
    reservoir arcs (``ledger[u]``: the heads still unused at tail u) at
    (a subset of) the listed pairs.  Returns (cycle, arcs taken); the
    arcs taken are removed from ``ledger``.

    A replacement happens at a pair only while the factor is still
    disconnected and at least two current cycles pass through the pair;
    every cycle must pass through some listed pair or the merge fails.
    """
    rng = rng or random.Random(0)
    verts = _support(succ)
    cycles = _cycles(succ, verts)
    if cycles is None:
        raise MalformedInput("merge requires a 1-factor")
    used: list[tuple[int, int]] = []
    current = succ
    for spec in pairs:
        if len(cycles) == 1:
            break
        v1 = set(spec.v1)
        touching = sum(1 for cyc in cycles if not v1.isdisjoint(cyc))
        if touching < 2:
            continue
        current, new_arcs = _replace_pair_matching(
            current, spec, ledger, [], rng)
        used.extend(new_arcs)
        cycles = _cycles(current, verts)
        if cycles is None:
            raise AssemblyVerificationFailed(
                "merged factor failed verification")
    if len(cycles) != 1:
        raise MalformedInput(
            f"{len(cycles)} cycles remain after merging at all listed "
            f"pairs; a cycle avoids every pair (precondition violation)")
    return current, used


def reorder_for_consistency(succ: list[int], ledger: dict[int, set[int]],
                            spec: PairSpec, waypoints: list[int],
                            rng: random.Random | None = None
                            ) -> tuple[list[int], list[tuple[int, int]]]:
    """A Hamilton cycle on the same vertices as the cycle ``succ``,
    visiting ``waypoints`` in cyclic order and differing from the input
    only inside the given pair; the reservoir arcs it takes are removed
    from ``ledger``.

    If the input already visits the waypoints in order it is returned
    unchanged (consuming no reservoir arcs).
    """
    rng = rng or random.Random(0)
    verts = _support(succ)
    cycles = _cycles(succ, verts)
    if cycles is None or len(cycles) != 1:
        raise MalformedInput("reorder requires a Hamilton cycle")
    if not set(waypoints) <= set(spec.v1):
        raise MalformedInput("waypoints must lie inside V^1 of the pair")
    # any rotation realizes the cyclic order of at most two waypoints
    if len(waypoints) <= 2 or visits_in_order(cycles[0], waypoints):
        return succ, []
    out, new_arcs = _replace_pair_matching(succ, spec, ledger,
                                           list(waypoints), rng)
    cycles = _cycles(out, verts)
    if cycles is None or len(cycles) != 1:
        raise AssemblyVerificationFailed("reordered cycle failed verification")
    if not visits_in_order(cycles[0], waypoints):
        raise AssemblyVerificationFailed("reordered cycle ignores waypoints")
    return out, new_arcs


# -- the per-slice pipeline ----------------------------------------------


@dataclass
class SliceAssembly:
    cycles: list[Digraph]
    reservoir_usage: list[list[tuple[int, int]]]


def assemble_slice(system: CyclicSystem, be: BalancedExtension,
                   reservoir: dict[int, set[int]], seed: int = 0
                   ) -> SliceAssembly:
    """Produce one consistent Hamilton cycle per balanced-extension slot.

    ``reservoir`` holds the slice's reservoir arcs as out-rows
    (``reservoir[u]``: the heads of the arcs at tail u).  Maintains the
    depleting reservoir ledger H_s = H - sum(C_{s'} - F_{s'}) as one copy
    of those rows, which merging and reordering deplete in place; per
    slot: extend to 1-factors, merge through the touched cluster pairs,
    then reorder at the extension cluster so the cycle is consistent with
    its ordered matching.  Every output is re-verified: sequence
    containment, consistency, Hamiltonicity, and the confinement of
    C_s - F_s to the touched pairs.
    """
    qp = system.q
    k = len(qp.clusters)
    factors = extend_to_one_factors(system, be.path_sequences)
    verts = sorted(v for c in qp.clusters for v in c)
    unused = {u: set(row) for u, row in reservoir.items()}
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
        if any(final[u] != v for (u, v) in ps._arcs):
            raise AssemblyVerificationFailed(
                f"slot {s}: path sequence not contained in the output")
        cycles = _cycles(final, verts)
        if cycles is None or len(cycles) != 1 or _support(final) != verts:
            raise AssemblyVerificationFailed(
                f"slot {s}: output is not a Hamilton cycle of the slice")
        order = cycles[0]
        if any(final[u] != v for (u, v) in matching.arcs) or \
                not visits_in_order(order, [u for (u, _v) in matching.arcs]):
            raise AssemblyVerificationFailed(
                f"slot {s}: output not consistent with its matching")
        allowed_clusters = {sp.cluster_index for sp in specs}
        for u in verts:
            if final[u] != factors[s][u] and \
                    qp.cluster_index(u) not in allowed_clusters:
                raise AssemblyVerificationFailed(
                    f"slot {s}: replacement arc ({u},{final[u]}) outside "
                    f"the touched pairs")
        out_cycles.append(Digraph(system.n, [(u, final[u]) for u in order]))
        usage.append(used1 + used2)
    # conservation: all reservoir arcs charged exist in the reservoir and
    # are pairwise distinct across slots
    flat = [a for u in usage for a in u]
    if len(flat) != len(set(flat)):
        raise AssemblyVerificationFailed("reservoir arc charged twice")
    for (u, v) in flat:
        if v not in reservoir.get(u, ()):
            raise AssemblyVerificationFailed(
                f"replacement arc {(u, v)} not in the reservoir")
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
