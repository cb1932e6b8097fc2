"""Exceptional systems and their fictive-edge reductions.

An exceptional system is a sparse path system covering the exceptional
vertices; replacing each of its maximal paths by a single "fictive" edge
between the path's endpoints reduces the decomposition problem to finding
Hamilton cycles on the clusters alone.  The splice operations put the real
paths back and verify the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (ClusterPartition, Multigraph, OrderedDirectedMatching,
                   order_is_consistent, verify_hamilton_cycle, vertex_mask)
from .errors import (InvalidExceptionalSystem, MalformedInput, NotConsistent,
                     SpliceVerificationFailed)

KIND_HES = "HES"
KIND_MES = "MES"


class _ExceptionalSystemBase:
    """What both kinds of exceptional system share: storage, the checks
    that J is a path system covering V0 with degree 2 there and degree at
    most 1 elsewhere, path access and the JSON codec.  Subclasses add
    their mode's checks in ``_validate_mode`` and may set ``kind``."""

    what = "exceptional system"

    def __init__(self, partition: ClusterPartition, graph: Multigraph,
                 vertices: set[int] | None = None, eps0: float | None = None,
                 locality: tuple[int, ...] | None = None):
        self.partition = partition
        self.graph = graph
        self.vertices = set(vertices) if vertices is not None \
            else graph.covered_vertices() | set(partition.V0)
        self.eps0 = eps0 if eps0 is not None else partition.eps0
        self.locality = locality
        self._validate()

    def _validate(self):
        v0 = set(self.partition.V0)
        # the one walk of J: its maximal paths, read by every later use
        try:
            self.paths = self.graph.paths()
        except MalformedInput:
            raise InvalidExceptionalSystem(
                f"{self.what}: underlying graph is not a path system") \
                from None
        if not self.graph.covered_vertices() <= self.vertices:
            raise InvalidExceptionalSystem(
                f"{self.what}: edge endpoints outside V(J)")
        if not v0 <= self.vertices:
            raise InvalidExceptionalSystem("V0 not fully covered by V(J)")
        # every degree in one pass over J's few edges
        degree: dict[int, int] = {}
        for u, v, k in self.graph.edges():
            degree[u] = degree.get(u, 0) + k
            degree[v] = degree.get(v, 0) + k
        for v in self.vertices:
            d = degree.get(v, 0)
            if v in v0:
                if d != 2:
                    raise InvalidExceptionalSystem(
                        f"exceptional vertex {v} has degree {d}, need 2")
            elif d > 1:
                raise InvalidExceptionalSystem(
                    f"non-exceptional vertex {v} has degree {d} > 1")
        self._validate_mode()

    def _validate_mode(self):
        raise NotImplementedError

    def edge_count(self) -> int:
        return self.graph.edge_count()

    def to_json_obj(self) -> dict:
        return {"schema": 1, "kind": self.kind,
                "paths": [list(p) for p in self.paths],
                "isolated": sorted(self.vertices
                                   - self.graph.covered_vertices()),
                "locality": list(self.locality) if self.locality else None,
                "eps0": self.eps0}

    @classmethod
    def from_json_obj(cls, obj: dict, partition: ClusterPartition):
        edges = []
        verts: set[int] = set(obj.get("isolated", ()))
        for p in obj["paths"]:
            verts.update(p)
            edges.extend((p[i], p[i + 1]) for i in range(len(p) - 1))
        loc = tuple(obj["locality"]) if obj.get("locality") else None
        return cls(partition, Multigraph(partition.n, edges), verts,
                   obj.get("eps0"), loc)


class ExceptionalSystem(_ExceptionalSystemBase):
    """A path system J covering V0 in two-cliques mode.

    Validates on construction:
      * J is a path system with V0 <= V(J) <= V,
      * every V0 vertex has degree exactly 2, all others at most 1,
      * no edges inside A or inside B,
      * HES: the number of AB-paths is even and positive,
        MES: no edges between A' and B',
      * at most sqrt(eps0) * n AB-paths,
      * if localized at (i, i'): V(J) inside V0 u A_i u B_i'.
    """

    def _validate_mode(self):
        P = self.partition
        a, b = set(P.A), set(P.B)
        for (u, v) in self.graph.support():
            if (u in a and v in a) or (u in b and v in b):
                raise InvalidExceptionalSystem(
                    f"edge ({u},{v}) inside A or inside B")
        n_ab = self.count_ab_paths()
        if n_ab > 0:
            if n_ab % 2 != 0:
                raise InvalidExceptionalSystem(
                    f"odd number of AB-paths ({n_ab})")
            self.kind = KIND_HES
        else:
            ap, bp = set(P.A_prime), set(P.B_prime)
            for (u, v) in self.graph.support():
                if (u in ap) != (v in ap):
                    raise InvalidExceptionalSystem(
                        "zero AB-paths but an A'B'-edge present: neither "
                        "HES nor MES")
            self.kind = KIND_MES
        if self.eps0 is not None:
            limit = math.sqrt(self.eps0) * P.n
            if n_ab > limit:
                raise InvalidExceptionalSystem(
                    f"{n_ab} AB-paths exceed sqrt(eps0)*n = {limit:.2f}")
        if self.locality is not None:
            i, ip = self.locality
            allowed = set(P.V0) | set(P.a_cluster(i)) | set(P.b_cluster(ip))
            if not self.vertices <= allowed:
                raise InvalidExceptionalSystem(
                    f"not ({i},{ip})-localized: vertices escape V0+A_i+B_i'")

    def count_ab_paths(self) -> int:
        a, b = set(self.partition.A), set(self.partition.B)
        count = 0
        for path in self.paths:
            ends = {path[0], path[-1]}
            if len(ends & a) == 1 and len(ends & b) == 1:
                count += 1
        return count


class BalancedExceptionalSystem(_ExceptionalSystemBase):
    """A path system J in bipartite mode, localized at (i1, i2, i3, i4).

    Validates (on construction): degree-2 cover of V0 with degree <= 1
    elsewhere; every edge inside A u B is an A_i1 A_i2- or B_i3 B_i4-edge;
    the edges cover equally many A- and B-vertices; e(J) <= eps0 * n; and
    V(J) stays inside A0 u B0 u A_i1 u A_i2 u B_i3 u B_i4.
    """

    kind = "BES"
    what = "balanced exceptional system"

    def __init__(self, partition: ClusterPartition, graph: Multigraph,
                 vertices: set[int] | None = None, eps0: float | None = None,
                 locality: tuple[int, int, int, int] = None):
        if locality is None or len(locality) != 4:
            raise InvalidExceptionalSystem("BES requires an (i1,i2,i3,i4) tag")
        super().__init__(partition, graph, vertices, eps0, tuple(locality))

    def _validate_mode(self):
        P = self.partition
        i1, i2, i3, i4 = self.locality
        allowed = (set(P.V0) | set(P.a_cluster(i1)) | set(P.a_cluster(i2))
                   | set(P.b_cluster(i3)) | set(P.b_cluster(i4)))
        if not self.vertices <= allowed:
            raise InvalidExceptionalSystem("vertices escape the four "
                                           "localized clusters")
        a_i1, a_i2 = set(P.a_cluster(i1)), set(P.a_cluster(i2))
        b_i3, b_i4 = set(P.b_cluster(i3)), set(P.b_cluster(i4))
        ab = set(P.A) | set(P.B)
        for (u, v) in self.graph.support():
            if u in ab and v in ab:
                ok_a = ((u in a_i1 and v in a_i2) or (u in a_i2 and v in a_i1))
                ok_b = ((u in b_i3 and v in b_i4) or (u in b_i4 and v in b_i3))
                if not (ok_a or ok_b):
                    raise InvalidExceptionalSystem(
                        f"edge ({u},{v}) inside A u B is neither an "
                        f"A_{i1}A_{i2}- nor a B_{i3}B_{i4}-edge")
        covered = self.graph.covered_vertices()
        ca = len(covered & set(P.A))
        cb = len(covered & set(P.B))
        if ca != cb:
            raise InvalidExceptionalSystem(
                f"edges cover {ca} A-vertices but {cb} B-vertices")
        if self.eps0 is not None and self.graph.edge_count() > self.eps0 * P.n:
            raise InvalidExceptionalSystem(
                f"e(J) = {self.graph.edge_count()} exceeds eps0*n = "
                f"{self.eps0 * P.n:.2f}")


@dataclass
class FictiveReduction:
    """The fictive-edge package for one exceptional system.

    Two-cliques mode fills ja/jb (+ their ordered directed versions);
    bipartite mode fills jstar directly.  ``jab`` is the endpoint matching
    induced by the maximal paths in every mode.
    """

    jab: Multigraph
    jstar: Multigraph
    ja: Multigraph | None = None
    jb: Multigraph | None = None
    ja_dir: OrderedDirectedMatching | None = None
    jb_dir: OrderedDirectedMatching | None = None
    jstar_dir: OrderedDirectedMatching | None = None


def induce_jab(system) -> Multigraph:
    """The matching joining the endpoints of each nontrivial path of J."""
    jab = Multigraph(system.partition.n,
                     [(path[0], path[-1]) for path in system.paths])
    if not jab.is_matching():
        raise InvalidExceptionalSystem("induced endpoint graph is not a "
                                       "matching (axiom violation upstream)")
    return jab


def _classify_jab(jab: Multigraph, partition: ClusterPartition):
    """Split the edges of J*_AB into sorted lists of A-edges, B-edges and
    AB-edges; A- and B-edges as (low, high), AB-edges as (A-end, B-end)."""
    a, b = set(partition.A), set(partition.B)
    aa_edges, bb_edges, ab_edges = [], [], []
    for (u, v) in jab.support():
        if u in a and v in a:
            aa_edges.append((min(u, v), max(u, v)))
        elif u in b and v in b:
            bb_edges.append((min(u, v), max(u, v)))
        else:
            x, y = (u, v) if u in a else (v, u)
            ab_edges.append((x, y))
    return sorted(aa_edges), sorted(bb_edges), sorted(ab_edges)


def build_fictive_two_cliques(system: ExceptionalSystem) -> FictiveReduction:
    """Construct J*_A, J*_B and their ordered directed versions.

    The AB-edges of J*_AB are enumerated x1y1,...,x_{2l}y_{2l} sorted by
    A-endpoint; J*_A adds the edges x_{2i-1}x_{2i}, J*_B the edges
    y_{2i}y_{2i+1} (indices mod 2l).  Orientations inside J*_AB[A] and
    J*_AB[B] are fixed low id -> high id.
    """
    P = system.partition
    jab = induce_jab(system)
    aa_edges, bb_edges, ab_edges = _classify_jab(jab, P)
    if len(ab_edges) % 2 != 0:
        raise InvalidExceptionalSystem(
            f"odd number of AB-connections ({len(ab_edges)})")
    ell = len(ab_edges) // 2
    xs = [x for (x, _y) in ab_edges]
    ys = [y for (_x, y) in ab_edges]
    ja_cross = [(xs[2 * i], xs[2 * i + 1]) for i in range(ell)]
    jb_cross = [(ys[(2 * i + 1) % (2 * ell)], ys[(2 * i + 2) % (2 * ell)])
                for i in range(ell)]
    ja = Multigraph(P.n, aa_edges + ja_cross)
    jb = Multigraph(P.n, bb_edges + jb_cross)
    jstar = ja + jb
    if not (ja.is_matching() and jb.is_matching() and jstar.is_matching()):
        raise InvalidExceptionalSystem("fictive graphs are not matchings")
    if jstar.edge_count() != jab.edge_count():
        raise InvalidExceptionalSystem("e(J*) != e(J*_AB)")
    ja_dir = OrderedDirectedMatching(tuple(ja_cross) + tuple(aa_edges))
    jb_dir = OrderedDirectedMatching(tuple(jb_cross) + tuple(bb_edges))
    return FictiveReduction(jab=jab, jstar=jstar, ja=ja, jb=jb,
                            ja_dir=ja_dir, jb_dir=jb_dir)


def build_fictive_bipartite(system: BalancedExceptionalSystem
                            ) -> FictiveReduction:
    """Construct J* = {x_i y_i} for a balanced exceptional system.

    With E(J*_AB[A]) = {x1x2,...,x_{2s-1}x_{2s}},
    E(J*_AB[B]) = {y1y2,...}, E(J*_AB[A,B]) = {x_{2s+1}y_{2s+1},...},
    J* joins x_i to y_i and is ordered/oriented by index.
    """
    P = system.partition
    jab = induce_jab(system)
    aa_edges, bb_edges, ab_edges = _classify_jab(jab, P)
    if len(aa_edges) != len(bb_edges):
        raise InvalidExceptionalSystem(
            f"e(J*_AB[A]) = {len(aa_edges)} != e(J*_AB[B]) = "
            f"{len(bb_edges)}; violates the balance axiom")
    xs: list[int] = []
    ys: list[int] = []
    for (u, v) in aa_edges:
        xs.extend((u, v))
    for (u, v) in bb_edges:
        ys.extend((u, v))
    for (x, y) in ab_edges:
        xs.append(x)
        ys.append(y)
    arcs = tuple(zip(xs, ys))
    jstar = Multigraph(P.n, list(arcs))
    if not jstar.is_matching():
        raise InvalidExceptionalSystem("J* is not a matching")
    if jstar.edge_count() != jab.edge_count():
        raise InvalidExceptionalSystem("e(J*) != e(J*_AB)")
    return FictiveReduction(jab=jab, jstar=jstar,
                            jstar_dir=OrderedDirectedMatching(arcs))


def _check_input_cycle(order: Sequence[int], vertices: set[int],
                       matching: OrderedDirectedMatching, name: str) -> None:
    """Raise NotConsistent unless the vertex order ``order`` is a directed
    Hamilton cycle on exactly ``vertices`` (each once, at least two of
    them) and consistent with ``matching``."""
    if set(order) != vertices:
        raise NotConsistent(f"{name} has a vertex off its vertex set or "
                            f"misses one of its vertices")
    if len(order) != len(vertices) or len(order) < 2:
        raise NotConsistent(f"{name} is not a directed Hamilton cycle")
    if not order_is_consistent(order, matching):
        raise NotConsistent(f"{name} is not consistent with its ordered "
                            f"matching")


def _spliced(orders: Sequence[Sequence[int]], system, reduction
             ) -> Multigraph:
    """C - J* + J, where C is the sum of the cycles that visit each of
    ``orders`` in turn and the subtraction floors at 0, counted on int64
    edge keys lo * n + hi.  Its key arrays list its edges in sorted
    order."""
    P = system.partition
    n = max(P.n, system.graph.n)
    rings = [np.asarray(order, dtype=np.int64) for order in orders]
    tails = np.concatenate(rings)
    heads = np.concatenate([np.roll(ring, -1) for ring in rings])
    if tails.min() < 0 or tails.max() >= P.n:
        raise MalformedInput(f"cycle vertex outside 0..{P.n - 1}")
    parts = [np.minimum(tails, heads) * n + np.maximum(tails, heads)]
    for g in (reduction.jstar, system.graph):
        us, vs, ks = g.key_arrays()
        parts.append(np.repeat(us * n + vs, ks))
    keys, where = np.unique(np.concatenate(parts), return_inverse=True)
    bounds = np.cumsum([part.size for part in parts[:2]])
    cycle, cut, join = (np.bincount(w, minlength=keys.size)
                        for w in np.split(where, bounds))
    total = np.maximum(cycle - cut, 0) + join
    keep = total > 0
    return Multigraph.from_key_arrays(n, keys[keep] // n, keys[keep] % n,
                                      total[keep])


def splice_two_cliques(c_a: Sequence[int], c_b: Sequence[int],
                       system: ExceptionalSystem,
                       reduction: FictiveReduction) -> Multigraph:
    """C_A + C_B - J* + J, with pre- and post-verification.

    C_A and C_B are directed Hamilton cycles on A and on B, each given as
    its vertex order, consistent with the ordered matchings J*_A and
    J*_B.  For an HES the result is a Hamilton cycle on all of V; for an
    MES it is the vertex-disjoint union of a Hamilton cycle on A' and one
    on B'.  The result's key arrays list its edges in sorted order.
    """
    P = system.partition
    _check_input_cycle(c_a, set(P.A), reduction.ja_dir, "C_A")
    _check_input_cycle(c_b, set(P.B), reduction.jb_dir, "C_B")
    result = _spliced((c_a, c_b), system, reduction)
    a_pr, b_pr = P.A_prime, P.B_prime
    if system.kind == KIND_HES:
        ok = verify_hamilton_cycle(result, a_pr + b_pr)
    else:
        us, vs, _ks = result.key_arrays()
        a_mask = vertex_mask(a_pr, result.n)
        b_mask = vertex_mask(b_pr, result.n)
        # both masks exist once both cycles check out
        ok = (verify_hamilton_cycle(result, a_pr)
              and verify_hamilton_cycle(result, b_pr)
              and not ((a_mask[us] & b_mask[vs])
                       | (b_mask[us] & a_mask[vs])).any())
    if not ok:
        raise SpliceVerificationFailed(
            f"splice output failed {system.kind} verification")
    return result


def splice_bipartite(d: Sequence[int], system: BalancedExceptionalSystem,
                     reduction: FictiveReduction) -> Multigraph:
    """D - J* + J for the bipartite case, where D is a directed Hamilton
    cycle on A u B, given as its vertex order and consistent with the
    ordered matching J*; output verified Hamiltonian.  The result's key
    arrays list its edges in sorted order."""
    P = system.partition
    _check_input_cycle(d, set(P.A) | set(P.B), reduction.jstar_dir, "D")
    result = _spliced((d,), system, reduction)
    if not verify_hamilton_cycle(result, P.vertices()):
        raise SpliceVerificationFailed("splice output is not a Hamilton "
                                       "cycle on V")
    return result
