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

import numpy as np

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


# -- the reservoir ledger -------------------------------------------------


class ReservoirLedger:
    """The reservoir arcs of a slice that no slot has used yet: one boolean
    block per cluster-cycle edge, aligned with ``CyclicSystem.pairs``
    (rows the tail cluster, columns the head cluster, each in cluster
    order).  Switch candidates and auxiliary digraphs are slices of a
    block; taking an arc clears its entry and giving it back sets it."""

    def __init__(self, system: CyclicSystem, blocks: list[np.ndarray]):
        self._q = system.q
        edges = system.cycle.edges()
        if len(blocks) != len(edges) or any(
                block.shape != mat.shape
                for block, (_t, _h, mat) in zip(blocks, system.pairs)):
            raise MalformedInput("the reservoir needs one block per cycle "
                                 "edge, shaped like its arc matrix")
        self.head = dict(edges)
        self._blocks = {ci: block for (ci, _cj), block in zip(edges, blocks)}
        # pos[v]: the row or column of v in the blocks of its cluster
        self.pos = np.full(system.n, -1, dtype=np.intp)
        for cluster in self._q.clusters:
            self.pos[list(cluster)] = np.arange(len(cluster))

    def block(self, ci: int) -> np.ndarray:
        """The block of the cycle edge leaving cluster ``ci``."""
        return self._blocks[ci]

    def has(self, u: int, v: int) -> bool:
        ci = self._q.cluster_index(u)
        return self.head.get(ci) == self._q.cluster_index(v) and \
            bool(self._blocks[ci][self.pos[u], self.pos[v]])

    def mark(self, arcs, unused: bool) -> None:
        """Take (``unused`` False) or give back (True) the arcs ``arcs``."""
        for (u, v) in arcs:
            self._blocks[self._q.cluster_index(u)][
                self.pos[u], self.pos[v]] = unused


# -- merging by 2-switches, reordering via the auxiliary digraph --------------


@dataclass
class PairSpec:
    """One cluster-cycle edge with its replacement sets V^1_i, V^2_{i+1}."""

    cluster_index: int
    v1: tuple[int, ...]
    v2: tuple[int, ...]


def _replace_pair_matching(succ: list[int], spec: PairSpec,
                           ledger: ReservoirLedger, waypoints: list[int],
                           rng: random.Random
                           ) -> tuple[list[int], list[tuple[int, int]]]:
    """Replace the perfect matching F[V^1, V^2] of the 1-factor ``succ``
    with unused reservoir arcs of ``ledger`` so that all paths through
    the pair close into a single cycle, visiting the paths ending at
    ``waypoints`` (subset of V^1) in order.  Returns the new successor
    array and the arcs taken, which ``ledger`` marks used.

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
    # the auxiliary digraph is the pair's block, rows V^1, columns V^2
    pos = ledger.pos
    sub = ledger.block(spec.cluster_index)[pos[list(spec.v1)]][
        :, pos[list(spec.v2)]]
    rows, cols = np.nonzero(sub)
    aux = {(start_of[spec.v1[i]], spec.v2[j])
           for i, j in zip(rows.tolist(), cols.tolist())}
    aux -= {(y, y) for y in spec.v2}
    aux_waypoints = [start_of[x] for x in waypoints]
    seq = find_ordered_hamilton(aux, aux_waypoints, v2, rng=rng)
    # translate the auxiliary cycle back into a replacement matching
    inv_start = {y: x for x, y in start_of.items()}
    new_arcs = [(inv_start[y], y2) for y, y2 in zip(seq, seq[1:] + seq[:1])]
    out = list(succ)
    for (x, y2) in new_arcs:
        out[x] = y2
    ledger.mark(new_arcs, False)
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


def _cycle_labels(cycles: list[list[int]], n: int) -> np.ndarray:
    """label[v]: the index of the cycle through v, -1 off every cycle."""
    label = np.full(n, -1, dtype=np.intp)
    for k, cyc in enumerate(cycles):
        label[cyc] = k
    return label


def _switch(succ: list[int], x1: int, x2: int) -> None:
    """Swap the successors of x1 and x2; on two different cycles this
    joins them into one."""
    succ[x1], succ[x2] = succ[x2], succ[x1]


def _switches_at(succ: list[int], v1: np.ndarray, label: np.ndarray,
                 ledger: ReservoirLedger, ci: int, cycles_left: int,
                 rng: random.Random) -> list[tuple[int, int]]:
    """Make 2-switches in ``succ`` at the pair leaving cluster ``ci``,
    each drawn uniformly with ``rng``, until none is left or one cycle
    remains of ``cycles_left``.  A 2-switch is x1, x2 in V^1 ``v1`` on
    different cycles whose arcs x1 -> succ(x2) and x2 -> succ(x1) are
    both unused.  Updates ``label`` and ``ledger``; returns the arcs
    taken, two per switch."""
    lab = label[v1]
    if lab.size < 2 or (lab == lab[0]).all():
        return []
    # b[i, j]: the arc v1[i] -> succ(v1[j]) is unused
    heads = ledger.pos[[succ[x] for x in v1.tolist()]]
    b = ledger.block(ci)[ledger.pos[v1]][:, heads]
    taken: list[tuple[int, int]] = []
    while cycles_left > 1:
        # symmetric, so every switch is drawn as (i, j) or (j, i)
        flat = np.flatnonzero(b & b.T & (lab[:, None] != lab))
        if not flat.size:
            break
        i, j = divmod(int(flat[rng.randrange(flat.size)]), len(v1))
        x1, x2 = int(v1[i]), int(v1[j])
        arcs = [(x1, succ[x2]), (x2, succ[x1])]
        _switch(succ, x1, x2)
        ledger.mark(arcs, False)
        taken.extend(arcs)
        # the successors swap columns; the arcs taken sit on the diagonal
        b[:, [i, j]] = b[:, [j, i]]
        b[i, i] = b[j, j] = False
        old = lab[j]
        label[label == old] = lab[i]
        lab[lab == old] = lab[i]
        cycles_left -= 1
    return taken


def merge_to_hamilton(succ: list[int], ledger: ReservoirLedger,
                      pairs: list[PairSpec],
                      rng: random.Random | None = None
                      ) -> tuple[list[int], list[tuple[int, int]]]:
    """Merge the cycles of the 1-factor ``succ`` into a single directed
    cycle with unused reservoir arcs of ``ledger``, at (a subset of) the
    listed pairs.  Returns (cycle, reservoir arcs on it); the arcs are
    marked used in ``ledger``.

    Karp's patching step: at each listed pair, while two or more current
    cycles meet V^1, a 2-switch drawn with ``rng`` swaps the successors
    of x1, x2 in V^1 on different cycles whose arcs x1 -> succ(x2) and
    x2 -> succ(x1) are both unused, joining two cycles with two arcs.
    Passes over the pairs repeat while one joins anything.  When no
    2-switch is left, the whole matching F[V^1, V^2] at the first pair
    two cycles meet is replaced through the auxiliary digraph.  A
    reservoir arc that a later switch or replacement drops goes back to
    the ledger.  A cycle that meets no listed V^1 breaks the
    precondition (MalformedInput); cycles left after all that raise
    HamiltonSearchExhausted.
    """
    rng = rng or random.Random(0)
    verts = _support(succ)
    cycles = _cycles(succ, verts)
    if cycles is None:
        raise MalformedInput("merge requires a 1-factor")
    label = _cycle_labels(cycles, len(succ))
    v1s = [np.asarray(spec.v1, dtype=np.intp) for spec in pairs]
    met: set[int] = set()
    for v1 in v1s:
        met.update(label[v1].tolist())
    if len(cycles) > 1 and len(met) < len(cycles):
        raise MalformedInput(
            f"{len(cycles) - len(met)} of {len(cycles)} cycles avoid every "
            f"listed pair (precondition violation)")
    current = list(succ)
    taken: list[tuple[int, int]] = []
    count = len(cycles)

    def exhausted(spec: PairSpec, why: str) -> HamiltonSearchExhausted:
        ci = spec.cluster_index
        return HamiltonSearchExhausted(
            f"{count} cycles left at pair ({ci},{ledger.head[ci]}), "
            f"{int(ledger.block(ci).sum())} unused reservoir arcs in its "
            f"block: {why}")

    while count > 1:
        joined = 0
        for spec, v1 in zip(pairs, v1s):
            new_arcs = _switches_at(current, v1, label, ledger,
                                    spec.cluster_index, count, rng)
            taken.extend(new_arcs)
            count -= len(new_arcs) // 2
            joined += len(new_arcs)
        if joined:
            continue
        # no 2-switch left: replace the whole matching at the first pair
        # that two cycles meet
        spec = next((sp for sp, v1 in zip(pairs, v1s)
                     if len(set(label[v1].tolist())) > 1), None)
        if spec is None:
            raise exhausted(pairs[0], "no listed pair meets two of them")
        try:
            current, new_arcs = _replace_pair_matching(current, spec, ledger,
                                                       [], rng)
        except HamiltonSearchExhausted as e:
            raise exhausted(spec, str(e)) from None
        taken.extend(new_arcs)
        cycles = _cycles(current, verts)
        if cycles is None or len(cycles) >= count:
            raise AssemblyVerificationFailed(
                "merged factor failed verification")
        label = _cycle_labels(cycles, len(succ))
        count = len(cycles)
    cycles = _cycles(current, verts)
    if cycles is None or len(cycles) != 1:
        raise AssemblyVerificationFailed("merged factor failed verification")
    return current, _settle(ledger, taken, current)


def _settle(ledger: ReservoirLedger, taken: list[tuple[int, int]],
            succ: list[int]) -> list[tuple[int, int]]:
    """The arcs of ``taken`` still on ``succ``; the others go back to
    ``ledger``."""
    ledger.mark([(u, v) for (u, v) in taken if succ[u] != v], True)
    return [(u, v) for (u, v) in taken if succ[u] == v]


def reorder_for_consistency(succ: list[int], ledger: ReservoirLedger,
                            spec: PairSpec, waypoints: list[int],
                            rng: random.Random | None = None
                            ) -> tuple[list[int], list[tuple[int, int]]]:
    """A Hamilton cycle on the same vertices as the cycle ``succ``,
    visiting ``waypoints`` in cyclic order and differing from the input
    only inside the given pair; the reservoir arcs it takes are marked
    used in ``ledger``.

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
                   reservoir: list[np.ndarray], seed: int = 0
                   ) -> SliceAssembly:
    """Produce one consistent Hamilton cycle per balanced-extension slot.

    ``reservoir`` holds the slice's reservoir arcs as one boolean block
    per cluster-cycle edge, aligned with ``system.pairs``.  Maintains the
    depleting reservoir ledger H_s = H - sum(C_{s'} - F_{s'}) as one copy
    of those blocks, which merging and reordering deplete in place; per
    slot: extend to 1-factors, merge through the touched cluster pairs,
    then reorder at the extension cluster so the cycle is consistent with
    its ordered matching.  Every output is re-verified: sequence
    containment, consistency, Hamiltonicity, the confinement of
    C_s - F_s to the touched pairs, and that the slot is charged exactly
    the reservoir arcs of C_s - F_s.
    """
    qp = system.q
    k = len(qp.clusters)
    factors = extend_to_one_factors(system, be.path_sequences)
    verts = sorted(v for c in qp.clusters for v in c)
    unused = ReservoirLedger(system, [block.copy() for block in reservoir])
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
        # reorder at the extension cluster
        ext_spec = next(sp for sp in specs if sp.cluster_index == i_s) \
            if any(sp.cluster_index == i_s for sp in specs) else specs[0]
        xs = _final_waypoints(ps, matching, i_s, qp)
        try:
            merged, used1 = merge_to_hamilton(factors[s], unused, specs,
                                              rng=rng)
            final, used2 = reorder_for_consistency(merged, unused, ext_spec,
                                                   xs, rng=rng)
        except HamiltonSearchExhausted as e:
            raise HamiltonSearchExhausted(f"slot {s}: {e}",
                                          restarts=e.restarts) from None
        used = _settle(unused, used1, final) + used2
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
        changed = [(u, final[u]) for u in verts if final[u] != factors[s][u]]
        for (u, v) in changed:
            if qp.cluster_index(u) not in allowed_clusters:
                raise AssemblyVerificationFailed(
                    f"slot {s}: replacement arc ({u},{v}) outside the "
                    f"touched pairs")
        if sorted(used) != changed:
            raise AssemblyVerificationFailed(
                f"slot {s}: the reservoir arcs charged are not C_s - F_s")
        out_cycles.append(Digraph(system.n, [(u, final[u]) for u in order]))
        usage.append(used)
    # conservation: all reservoir arcs charged exist in the reservoir and
    # are pairwise distinct across slots
    flat = [a for u in usage for a in u]
    if len(flat) != len(set(flat)):
        raise AssemblyVerificationFailed("reservoir arc charged twice")
    original = ReservoirLedger(system, reservoir)
    for (u, v) in flat:
        if not original.has(u, v):
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
