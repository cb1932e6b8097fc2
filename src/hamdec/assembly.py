"""Turn balanced extensions into Hamilton cycles inside a cyclic system:
1-factor completion, cycle merging and waypoint reordering by successor
rotations on the reservoir arcs of one superregular pair, and the
per-slice pipeline.

After the 1-factor completion every vertex of V^1 has its successor in
V^2, and every move keeps it so: it only gives V^1 vertices new
successors in V^2, so the paths of the slot's sequence stay whole.  The
moves only read the reservoir ledger.  Every operation re-verifies its
own output structurally before returning (1-regularity, Hamiltonicity,
waypoint order, containment); nothing trusts its own construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .classic import (regular_bipartite_to_matchings,
                      regular_spanning_subgraph, take_matching)
from .core import (PathSequence, derive_seed, order_is_consistent,
                   successor_cycles, visits_in_order)
from .cyclic import CyclicSystem
from .errors import (AssemblyVerificationFailed, DegreeHypothesisViolated,
                     HamiltonSearchExhausted, MalformedInput,
                     MatchingInfeasible)
from .extension import BalancedExtension, final_vertices


# -- 1-factor completion (locally balanced path sequences -> 1-factors) ------


class SuccessorArray(list):
    """A 1-factor or cycle as ``succ[v]``, -1 for vertices off it."""

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in enumerate(self) if v >= 0]


def extend_to_one_factors(system: CyclicSystem, ps_list: list[PathSequence]
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
    # per slot: its heads, and the clusters of its tails and of its heads
    ps_heads = [set(ps.values()) for ps in ps_list]
    tail_at = [{qp.cluster_index(u) for u, _v in ps.items()}
               for ps in ps_list]
    head_at = [{qp.cluster_index(v) for v in hs} for hs in ps_heads]

    add_arcs: list[list[tuple[int, int]]] = [[] for _ in range(q_count)]
    for (ci, cj), (tails, heads, mat) in zip(system.cycle.edges(),
                                             system.pairs):
        avail = mat.copy()
        restricted = [s for s in range(q_count)
                      if ci in tail_at[s] or cj in head_at[s]]
        bulk = [s for s in range(q_count) if s not in set(restricted)]
        for s in restricted:
            t_free = [a for a, u in enumerate(tails) if u not in ps_list[s]]
            h_free = [b for b, v in enumerate(heads) if v not in ps_heads[s]]
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
            for s, cols in zip(bulk, regular_bipartite_to_matchings(sub)):
                add_arcs[s].extend(zip(tails, np.take(heads, cols).tolist()))

    factors = []
    verts = [v for c in qp.clusters for v in c]
    for s in range(q_count):
        succ = SuccessorArray([-1] * n)
        pred = [-1] * n
        for (u, v) in chain(ps_list[s].items(), add_arcs[s]):
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


# -- the reservoir ledger -------------------------------------------------


class ReservoirLedger:
    """The reservoir arcs of a slice that no earlier slot has used: one
    boolean block per cluster-cycle edge, aligned with
    ``CyclicSystem.pairs`` (rows the tail cluster, columns the head
    cluster, each in cluster order).  The candidates of every merge and
    reorder move are slices of a block, which the moves only read; a slot
    is charged its reservoir arcs C_s - F_s in one ``take`` once its cycle
    is verified, so the blocks change only between slots."""

    def __init__(self, system: CyclicSystem, blocks: list[np.ndarray]):
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
        self._cluster = np.full(system.n, -1, dtype=np.intp)
        for ci, cluster in enumerate(system.q.clusters):
            self.pos[list(cluster)] = np.arange(len(cluster))
            self._cluster[list(cluster)] = ci
        # the slice's vertices, ascending
        self.verts = np.flatnonzero(self._cluster >= 0).tolist()

    def block(self, ci: int) -> np.ndarray:
        """The block of the cycle edge leaving cluster ``ci``."""
        return self._blocks[ci]

    def take(self, arcs: list[tuple[int, int]]) -> tuple[int, int] | None:
        """Clear the entries of ``arcs`` if every one is unused, and return
        None; else clear nothing and return the first arc that is not."""
        uv = np.array(arcs, dtype=np.intp).reshape(-1, 2)
        tail, head = self._cluster[uv].T
        rows, cols = self.pos[uv].T
        unused = np.zeros(len(arcs), dtype=bool)
        tails = set(tail.tolist())
        for ci in tails & self._blocks.keys():
            at = (tail == ci) & (head == self.head[ci])
            unused[at] = self._blocks[ci][rows[at], cols[at]]
        if not unused.all():
            return arcs[int(np.argmin(unused))]
        for ci in tails:
            self._blocks[ci][rows[tail == ci], cols[tail == ci]] = False
        return None


# -- merging and reordering by reservoir moves ---------------------------


@dataclass
class PairSpec:
    """One cluster-cycle edge with its replacement sets V^1_i, V^2_{i+1}."""

    cluster_index: int
    v1: tuple[int, ...]
    v2: tuple[int, ...]


def _cycle_labels(cycles: list[list[int]], n: int) -> np.ndarray:
    """label[v]: the index of the cycle through v, -1 off every cycle."""
    label = np.full(n, -1, dtype=np.intp)
    for k, cyc in enumerate(cycles):
        label[cyc] = k
    return label


def _arc_matrix(succ: list[int], xs, ledger: ReservoirLedger,
                ci: int) -> np.ndarray:
    """w[i, j]: the arc xs[i] -> succ(xs[j]) is unused, for vertices
    ``xs`` of the tail cluster ``ci`` (a copy of part of its block).  The
    diagonal, the arcs on ``succ``, is False; an arc off it is never on
    ``succ``, which is injective, so the block alone says it is unused."""
    heads = ledger.pos[[succ[x] for x in xs]]
    w = ledger.block(ci)[ledger.pos[xs]][:, heads]
    np.fill_diagonal(w, False)
    return w


def _at_pair(succ: list[int], spec: PairSpec, ledger: ReservoirLedger) -> str:
    """Name the pair of ``spec`` and count the unused reservoir arcs of its
    block: those that are not out-arcs of its V^1 on ``succ``."""
    ci, xs = spec.cluster_index, list(spec.v1)
    block = ledger.block(ci)
    on = block[ledger.pos[xs], ledger.pos[[succ[x] for x in xs]]]
    return (f"at pair ({ci},{ledger.head[ci]}), {int(block.sum() - on.sum())}"
            f" unused reservoir arcs in its block")


def _rotate(succ: list[int], xs) -> None:
    """Rotate successors along ``xs``: xs[t] takes the old successor of
    xs[t + 1], the last that of xs[0].  Every merge and reorder move is
    one, along a cycle of the ``_arc_matrix`` digraph (Karp's patching)."""
    heads = [succ[x] for x in xs]
    for x, head in zip(xs, heads[1:] + heads[:1]):
        succ[x] = head


def _switches_at(succ: list[int], v1: np.ndarray, label: np.ndarray,
                 ledger: ReservoirLedger, ci: int, cycles_left: int,
                 rng: random.Random) -> int:
    """Make 2-switches in ``succ`` at the pair leaving cluster ``ci``,
    each drawn uniformly with ``rng``, until none is left or one cycle
    remains of ``cycles_left``.  A 2-switch is the rotation of x1, x2 in
    V^1 ``v1`` on different cycles whose arcs x1 -> succ(x2) and
    x2 -> succ(x1) are both unused.  Updates ``label``; returns the
    number of switches."""
    lab = label[v1]
    if lab.size < 2 or (lab == lab[0]).all():
        return 0
    b = _arc_matrix(succ, v1.tolist(), ledger, ci)
    switches = 0
    while switches < cycles_left - 1:
        # symmetric, so every switch is drawn as (i, j) or (j, i)
        flat = np.flatnonzero(b & b.T & (lab[:, None] != lab))
        if not flat.size:
            break
        i, j = divmod(int(flat[rng.randrange(flat.size)]), len(v1))
        _rotate(succ, [int(v1[i]), int(v1[j])])
        # the successors swap columns; the entries this leaves stale all
        # join two vertices of one cycle, which are never drawn
        b[:, [i, j]] = b[:, [j, i]]
        old = lab[j]
        label[label == old] = lab[i]
        lab[lab == old] = lab[i]
        switches += 1
    return switches


def _join_at(succ: list[int], v1: np.ndarray, ledger: ReservoirLedger,
             ci: int, rng: random.Random) -> tuple[int, ...] | None:
    """A 4-arc join at the pair leaving cluster ``ci`` as the rotation
    (x2, x1, b, q), or None: x1 in V^1 ``v1`` on one cycle and x2, b, q
    in V^1 in that cyclic order on another, with x2 -> succ(x1),
    x1 -> succ(b), q -> succ(x2) and b -> succ(q) all unused.  It is the
    2-switch of x1 and x2 followed by the block move of x1, b, q, which
    drops x1 -> succ(x2)."""
    w = _arc_matrix(succ, v1.tolist(), ledger, ci)
    at = {int(x): i for i, x in enumerate(v1)}
    for cyc in successor_cycles(succ, ledger.verts):
        ys = [at[y] for y in cyc if y in at]
        xs = np.setdiff1d(np.arange(len(v1)), ys)
        to_x, from_x = w[np.ix_(ys, xs)], w[np.ix_(xs, ys)]
        on = w[np.ix_(ys, ys)]
        for t in range(len(ys)):
            # [i, j]: x2 = ys[t], then b = ys[i], then q = ys[j]
            ahead = (np.arange(len(ys)) - t) % len(ys)
            flat = np.flatnonzero(
                (to_x[t][:, None] & from_x).any(0)[:, None] & on & on[:, t]
                & (ahead > 0)[:, None] & (ahead[:, None] < ahead))
            if flat.size:
                i, j = divmod(int(flat[rng.randrange(flat.size)]), len(ys))
                x1s = xs[np.flatnonzero(to_x[t] & from_x[:, i])]
                x1 = int(v1[x1s[rng.randrange(x1s.size)]])
                x2, b, q = (int(v1[ys[k]]) for k in (t, i, j))
                return x2, x1, b, q
    return None


def merge_to_hamilton(succ: list[int], ledger: ReservoirLedger,
                      pairs: list[PairSpec],
                      rng: random.Random | None = None) -> list[int]:
    """Merge the cycles of ``succ``, a 1-factor of the ledger's slice
    (else MalformedInput), into a single directed cycle with unused
    reservoir arcs of ``ledger``, at (a subset of) the listed pairs, and
    return it.  ``ledger`` is only read: the caller charges the arcs of
    the result that ``succ`` lacks.

    Karp's patching step: at each listed pair, while two or more current
    cycles meet V^1, a 2-switch drawn with ``rng`` swaps the successors
    of x1, x2 in V^1 on different cycles whose arcs x1 -> succ(x2) and
    x2 -> succ(x1) are both unused, joining two cycles with two arcs.
    Passes over the pairs repeat while one joins anything.  When no
    2-switch is left, one 4-arc join (``_join_at``) at the first pair
    that has one joins two cycles, and the passes resume.  A reservoir
    arc that a move drops is unused again for the next move.  A cycle
    that meets no listed V^1 breaks the precondition (MalformedInput);
    when neither move is left, HamiltonSearchExhausted names the pair,
    the cycles left and the unused arcs of its block.
    """
    rng = rng or random.Random(0)
    verts = ledger.verts
    cycles = successor_cycles(succ, verts)
    if cycles is None or len(succ) - succ.count(-1) != len(verts):
        raise MalformedInput("merge requires a 1-factor of the slice")
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
    count = len(cycles)
    while count > 1:
        before = count
        for spec, v1 in zip(pairs, v1s):
            count -= _switches_at(current, v1, label, ledger,
                                  spec.cluster_index, count, rng)
        if count < before:
            continue
        for spec, v1 in zip(pairs, v1s):
            join = _join_at(current, v1, ledger, spec.cluster_index, rng)
            if join:
                break
        else:
            spec = next((sp for sp, v1 in zip(pairs, v1s)
                         if len(set(label[v1].tolist())) > 1), pairs[0])
            raise HamiltonSearchExhausted(
                f"{count} cycles left {_at_pair(current, spec, ledger)}: no "
                f"2-switch or 4-arc join left")
        x2, x1 = join[:2]
        label[label == label[x1]] = label[x2]
        _rotate(current, join)
        count -= 1
    cycles = successor_cycles(current, verts)
    if cycles is None or len(cycles) != 1:
        raise AssemblyVerificationFailed("merged factor failed verification")
    return current


def _waypoint_move(succ: list[int], seq: list[int], active: list[int],
                   ledger: ReservoirLedger, ci: int, rng: random.Random
                   ) -> tuple[int, int, int] | None:
    """The cuts p, b, q of a block move towards visiting ``active`` in
    order, or None.  ``seq`` holds the V^1 vertices of the cycle ``succ``
    in cycle order from ``active[0]``, and ``active[:-1]`` is in order.

    The waypoints cut ``seq`` into gaps, each from a waypoint up to the
    next.  A fixing move cuts once in the gap before w = ``active[-1]``,
    once in w's own and once in that of the waypoint w must follow.  When
    no fixing move is unused, mostly because one of those gaps is a single
    vertex, a neutral move keeps the waypoints' cyclic order: it moves a
    waypoint-free stretch to just after the owner of the smallest of the
    three gaps if it can, else after any waypoint.  Each kind is drawn
    uniformly with ``rng``."""
    n = len(seq)
    at = {x: i for i, x in enumerate(seq)}
    bounds = sorted(at[x] for x in active) + [n]
    sizes = np.diff(bounds)
    gap = np.searchsorted(bounds, np.arange(n), side="right") - 1
    g2 = bounds.index(at[active[-1]])
    gaps = (g2 - 1, g2, int(gap[at[active[-2]]]))
    w = _arc_matrix(succ, seq, ledger, ci)
    ps, bs, qs = (np.arange(bounds[g], bounds[g + 1]) for g in gaps)
    fix = (w[np.ix_(ps, bs)][:, :, None] & w[np.ix_(qs, ps)].T[:, None, :]
           & w[np.ix_(bs, qs)][None])
    flat = np.flatnonzero(fix)
    if flat.size:
        i, j, k = np.unravel_index(flat[rng.randrange(flat.size)], fix.shape)
        return seq[ps[i]], seq[bs[j]], seq[qs[k]]
    idx = np.arange(n)
    stretch = (gap[:, None] == gap) & (idx[:, None] < idx) & w
    small = min(sizes[g] for g in gaps)
    for ws in ([bounds[g] for g in gaps if sizes[g] == small], bounds[:-1]):
        neutral = stretch[None] & w[ws][:, :, None] & w[:, ws].T[:, None, :]
        flat = np.flatnonzero(neutral)
        if flat.size:
            k, i, j = np.unravel_index(flat[rng.randrange(flat.size)],
                                       neutral.shape)
            return seq[i], seq[j], seq[ws[k]]
    return None


def reorder_for_consistency(succ: list[int], ledger: ReservoirLedger,
                            spec: PairSpec, waypoints: list[int],
                            rng: random.Random | None = None) -> list[int]:
    """A Hamilton cycle of the ledger's slice, as ``succ`` must be (else
    MalformedInput), visiting ``waypoints`` (in V^1 of ``spec``) in
    cyclic order and differing from ``succ`` only in out-arcs of V^1,
    with unused reservoir arcs of ``ledger``.  ``ledger`` is only read:
    the caller charges the arcs of the result that ``succ`` lacks.

    A block move is the rotation of p, b, q in V^1, in cyclic order: it
    cuts their out-arcs and adds p -> succ(b), b -> succ(q) and
    q -> succ(p), which moves the stretch succ(p)..b to just after q, the
    direction-preserving segment insertion of 3-opt.  Block moves
    (``_waypoint_move``) put ``waypoints[:j + 1]`` in order for
    j = 2, 3, ..., so k waypoints need at most k - 2 fixing moves; an arc
    that one drops is unused again for the next.  An input that visits
    the waypoints in order is returned unchanged.
    HamiltonSearchExhausted when no move is left, or when |V^1| moves
    have not put a waypoint in place.
    """
    rng = rng or random.Random(0)
    verts = ledger.verts
    cycles = successor_cycles(succ, verts)
    if cycles is None or len(cycles) != 1 or \
            len(succ) - succ.count(-1) != len(verts):
        raise MalformedInput("reorder requires a Hamilton cycle of the slice")
    if not set(waypoints) <= set(spec.v1):
        raise MalformedInput("waypoints must lie inside V^1 of the pair")
    if sorted(succ[x] for x in spec.v1) != sorted(spec.v2):
        raise MalformedInput(
            f"F[V1,V2] at cluster {spec.cluster_index} is not a perfect "
            f"matching")
    ci, v1 = spec.cluster_index, set(spec.v1)
    out = list(succ)
    for j in range(2, len(waypoints)):
        for moves in range(len(v1) + 1):
            seq = [v for v in successor_cycles(
                out, [waypoints[0], *verts])[0] if v in v1]
            if visits_in_order(seq, waypoints[:j + 1]):
                break
            cut = moves < len(v1) and _waypoint_move(
                out, seq, waypoints[:j + 1], ledger, ci, rng)
            if not cut:
                raise HamiltonSearchExhausted(
                    f"no block move puts waypoint {waypoints[j]} in order "
                    f"{_at_pair(out, spec, ledger)}")
            _rotate(out, cut)
    if out == succ:
        return succ
    cycles = successor_cycles(out, verts)
    if cycles is None or len(cycles) != 1:
        raise AssemblyVerificationFailed("reordered cycle failed verification")
    if not visits_in_order(cycles[0], waypoints):
        raise AssemblyVerificationFailed("reordered cycle ignores waypoints")
    return out


# -- the per-slice pipeline ----------------------------------------------


@dataclass
class SliceAssembly:
    """One verified Hamilton cycle of the slice per balanced-extension
    slot, as its vertex order (the cycle's arcs join consecutive entries,
    the last back to the first), and the reservoir arcs each slot was
    charged.  Plain lists, so a slice result that crosses the process pool
    pickles small."""

    cycles: list[list[int]]
    reservoir_usage: list[list[tuple[int, int]]]


def assemble_slice(system: CyclicSystem, be: BalancedExtension,
                   reservoir: list[np.ndarray], seed: int = 0
                   ) -> SliceAssembly:
    """Produce one consistent Hamilton cycle per balanced-extension slot.

    ``reservoir`` holds the slice's reservoir arcs as one boolean block
    per cluster-cycle edge, aligned with ``system.pairs``.  Maintains the
    depleting reservoir ledger H_s = H - sum(C_{s'} - F_{s'}) as one copy
    of those blocks; per slot: extend to 1-factors, merge through the
    touched cluster pairs, then reorder at the extension cluster so the
    cycle is consistent with its ordered matching.  Every output is
    re-verified: sequence containment, consistency, Hamiltonicity, and
    the confinement of C_s - F_s to the touched pairs.  The slot is then
    charged C_s - F_s in one write, which checks that every arc of it is
    still in the ledger; as the ledger only loses arcs, the charges are
    reservoir arcs, pairwise distinct across slots.  Each cycle is
    returned as the vertex order that the Hamiltonicity check walked,
    from the slice's smallest vertex; no graph object is built for it.
    """
    qp = system.q
    factors = extend_to_one_factors(system, be.path_sequences)
    unused = ReservoirLedger(system, [block.copy() for block in reservoir])
    verts = unused.verts
    out_cycles: list[list[int]] = []
    usage: list[list[tuple[int, int]]] = []
    for s, (ps, matching, i_s) in enumerate(zip(
            be.path_sequences, be.matchings, be.extension_cluster)):
        rng = random.Random(derive_seed(seed, "slot", s))
        touched = sorted({qp.cluster_index(x)
                          for (u, v) in ps.items() for x in (u, v)})
        if not touched:
            touched = [(i_s + s) % len(qp.clusters)]
        # V^1: the cluster's non-tails, V^2: the next cluster's non-heads
        heads = set(ps.values())
        specs = [PairSpec(cluster_index=ci,
                          v1=tuple(v for v in qp.cluster(ci) if v not in ps),
                          v2=tuple(v for v in qp.cluster(
                              system.cycle.successor(ci)) if v not in heads))
                 for ci in _pair_order(touched, i_s, system)]
        # reorder at the extension cluster
        ext_spec = next((sp for sp in specs if sp.cluster_index == i_s),
                        specs[0])
        xs = final_vertices(ps, matching)
        try:
            merged = merge_to_hamilton(factors[s], unused, specs, rng=rng)
            final = reorder_for_consistency(merged, unused, ext_spec, xs,
                                            rng=rng)
        except HamiltonSearchExhausted as e:
            raise HamiltonSearchExhausted(f"slot {s}: {e}") from None
        # full verification of the slot output
        if any(final[u] != v for (u, v) in ps.items()):
            raise AssemblyVerificationFailed(
                f"slot {s}: path sequence not contained in the output")
        cycles = successor_cycles(final, verts)
        if cycles is None or len(cycles) != 1 or \
                len(final) - final.count(-1) != len(verts):
            raise AssemblyVerificationFailed(
                f"slot {s}: output is not a Hamilton cycle of the slice")
        order = cycles[0]
        if not order_is_consistent(order, matching):
            raise AssemblyVerificationFailed(
                f"slot {s}: output not consistent with its matching")
        allowed_clusters = {sp.cluster_index for sp in specs}
        changed = [(u, final[u]) for u in verts if final[u] != factors[s][u]]
        for (u, v) in changed:
            if qp.cluster_index(u) not in allowed_clusters:
                raise AssemblyVerificationFailed(
                    f"slot {s}: replacement arc ({u},{v}) outside the "
                    f"touched pairs")
        bad = unused.take(changed)
        if bad is not None:
            raise AssemblyVerificationFailed(
                f"slot {s}: replacement arc {bad} is not an unused "
                f"reservoir arc")
        out_cycles.append(order)
        usage.append(changed)
    return SliceAssembly(cycles=out_cycles, reservoir_usage=usage)


def _pair_order(touched: list[int], i_s: int, system: CyclicSystem
                ) -> list[int]:
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

