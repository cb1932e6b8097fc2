"""Exact multigraph/digraph containers, cluster partitions, and the
structural predicates every other module asserts against.

Vertices are dense integer ids 0..n-1 throughout.  All containers are
immutable after construction; the arithmetic operations (``+``/``-``)
return fresh objects and never mutate their operands.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import MalformedInput

SCHEMA_VERSION = 1


def _norm_pair(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise MalformedInput(f"loop at vertex {u} not allowed")
    return (u, v) if u < v else (v, u)


class Multigraph:
    """Undirected multigraph on vertices 0..n-1 with explicit multiplicities.

    Edges are stored as a map (u, v) -> multiplicity with u < v and
    multiplicity >= 1; loops are rejected.
    """

    __slots__ = ("n", "_mult", "_adj")

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise MalformedInput("vertex count must be nonnegative")
        self.n = n
        mult: dict[tuple[int, int], int] = {}
        for e in edges:
            if len(e) == 2:
                u, v = e
                k = 1
            else:
                u, v, k = e
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInput(f"edge {e} outside 0..{n - 1}")
            if k < 1:
                raise MalformedInput(f"multiplicity {k} < 1 in edge {e}")
            key = _norm_pair(u, v)
            mult[key] = mult.get(key, 0) + k
        self._mult = mult
        self._adj: dict[int, dict[int, int]] | None = None

    # -- basic accessors -------------------------------------------------

    def multiplicity(self, u: int, v: int) -> int:
        if u == v:
            return 0
        return self._mult.get(_norm_pair(u, v), 0)

    def edge_count(self) -> int:
        """e(G): number of edges counted with multiplicity."""
        return sum(self._mult.values())

    def support(self) -> Iterator[tuple[int, int]]:
        """Distinct edges, ignoring multiplicity, in sorted order."""
        return iter(sorted(self._mult))

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, multiplicity) triples in sorted order."""
        for (u, v) in sorted(self._mult):
            yield (u, v, self._mult[(u, v)])

    def _adjacency(self) -> dict[int, dict[int, int]]:
        if self._adj is None:
            adj: dict[int, dict[int, int]] = {}
            for (u, v), k in self._mult.items():
                adj.setdefault(u, {})[v] = k
                adj.setdefault(v, {})[u] = k
            self._adj = adj
        return self._adj

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._adjacency().get(v, ()))

    def degree(self, v: int) -> int:
        return sum(self._adjacency().get(v, {}).values())

    def degree_into(self, v: int, target: Iterable[int]) -> int:
        """d(v, S): neighbours of v inside S, with multiplicity."""
        row = self._adjacency().get(v, {})
        return sum(row.get(w, 0) for w in target)

    def covered_vertices(self) -> set[int]:
        """Vertices incident with at least one edge."""
        out: set[int] = set()
        for (u, v) in self._mult:
            out.add(u)
            out.add(v)
        return out

    # -- arithmetic (section-2 style G+H / G-H) --------------------------

    def __add__(self, other: "Multigraph") -> "Multigraph":
        n = max(self.n, other.n)
        out = Multigraph(n)
        mult = dict(self._mult)
        for key, k in other._mult.items():
            mult[key] = mult.get(key, 0) + k
        out._mult = mult
        return out

    def __sub__(self, other: "Multigraph") -> "Multigraph":
        """Multiplicity-arithmetic difference, never below zero."""
        out = Multigraph(self.n)
        mult = {}
        for key, k in self._mult.items():
            r = k - other._mult.get(key, 0)
            if r > 0:
                mult[key] = r
        out._mult = mult
        return out

    def restrict(self, vertices: Iterable[int]) -> "Multigraph":
        """Subgraph induced on the given vertex set (same vertex ids)."""
        vs = set(vertices)
        out = Multigraph(self.n)
        out._mult = {key: k for key, k in self._mult.items()
                     if key[0] in vs and key[1] in vs}
        return out

    def bipartite_restrict(self, left: Iterable[int],
                           right: Iterable[int]) -> "Multigraph":
        """Subgraph of edges with one end in ``left`` and one in ``right``."""
        ls, rs = set(left), set(right)
        out = Multigraph(self.n)
        out._mult = {
            (u, v): k for (u, v), k in self._mult.items()
            if (u in ls and v in rs) or (u in rs and v in ls)
        }
        return out

    def edges_between(self, left: Iterable[int], right: Iterable[int]) -> int:
        """e(L, R) for disjoint L, R, with multiplicity."""
        ls, rs = set(left), set(right)
        return sum(k for (u, v), k in self._mult.items()
                   if (u in ls and v in rs) or (u in rs and v in ls))

    def edges_inside(self, vertices: Iterable[int]) -> int:
        """e(S): edges with both ends in S, with multiplicity."""
        vs = set(vertices)
        return sum(k for (u, v), k in self._mult.items()
                   if u in vs and v in vs)

    def is_submultigraph_of(self, other: "Multigraph") -> bool:
        return all(other._mult.get(key, 0) >= k
                   for key, k in self._mult.items())

    def is_simple(self) -> bool:
        return all(k == 1 for k in self._mult.values())

    # -- structural predicates -------------------------------------------

    def is_matching(self) -> bool:
        seen: set[int] = set()
        for (u, v), k in self._mult.items():
            if k != 1 or u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
        return True

    def is_path_system(self) -> bool:
        """True iff the graph is a vertex-disjoint union of (simple) paths."""
        if not self.is_simple():
            return False
        adj = self._adjacency()
        if any(sum(r.values()) > 2 for r in adj.values()):
            return False
        # no cycles: every component with an edge must have a degree-1 vertex,
        # and #edges = #vertices - #components over covered vertices
        return not self._has_cycle()

    def _has_cycle(self) -> bool:
        adj = self._adjacency()
        seen: set[int] = set()
        for root in adj:
            if root in seen:
                continue
            comp_vertices = 0
            comp_edges = 0
            stack = [root]
            seen.add(root)
            while stack:
                x = stack.pop()
                comp_vertices += 1
                row = adj.get(x, {})
                comp_edges += sum(row.values())
                for y in row:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if comp_edges // 2 >= comp_vertices:
                return True
        return False

    def paths(self) -> list[list[int]]:
        """Decompose a path system into its maximal paths (as vertex lists).

        Isolated covered vertices do not occur (an edgeless vertex is not
        stored); callers that track trivial paths keep a separate vertex set.
        """
        if not self.is_path_system():
            raise MalformedInput("not a path system")
        adj = self._adjacency()
        out = []
        seen: set[int] = set()
        endpoints = sorted(v for v, r in adj.items() if sum(r.values()) == 1)
        for e in endpoints:
            if e in seen:
                continue
            path = [e]
            seen.add(e)
            cur, prev = e, None
            while True:
                nxts = [w for w in adj[cur] if w != prev]
                if not nxts:
                    break
                prev, cur = cur, nxts[0]
                path.append(cur)
                seen.add(cur)
            out.append(path)
        return out

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"schema": SCHEMA_VERSION, "n": self.n,
                "edges": [[u, v, k] for (u, v, k) in self.edges()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Multigraph":
        return cls(obj["n"], obj["edges"])

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for (u, v, k) in self.edges():
            for _ in range(k):
                lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Multigraph) and self.n == other.n
                and self._mult == other._mult)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._mult.items()))))

    def __repr__(self):
        return f"Multigraph(n={self.n}, e={self.edge_count()})"


class Digraph:
    """Digraph on 0..n-1; at most one arc per direction per pair, no loops.

    No library code calls ``without_arcs``, ``with_arcs``, ``+`` or ``-``;
    they stay because ``bench/tracing.py`` wraps them by name.
    """

    __slots__ = ("n", "_arcs", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        self.n = n
        out: dict[int, set[int]] = {}
        inn: dict[int, set[int]] = {}
        arcset: set[tuple[int, int]] = set()
        for (u, v) in arcs:
            if u == v:
                raise MalformedInput(f"loop at {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInput(f"arc ({u},{v}) outside 0..{n - 1}")
            if (u, v) in arcset:
                raise MalformedInput(f"duplicate arc ({u},{v})")
            arcset.add((u, v))
            out.setdefault(u, set()).add(v)
            inn.setdefault(v, set()).add(u)
        self._arcs = arcset
        self._out = out
        self._in = inn

    def arcs(self) -> list[tuple[int, int]]:
        return sorted(self._arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._arcs

    def edge_count(self) -> int:
        return len(self._arcs)

    def out_neighbors(self, v: int) -> set[int]:
        return self._out.get(v, set())

    def in_neighbors(self, v: int) -> set[int]:
        return self._in.get(v, set())

    def out_degree(self, v: int, target: Iterable[int] | None = None) -> int:
        row = self._out.get(v, set())
        if target is None:
            return len(row)
        return len(row & set(target)) if isinstance(target, (set, frozenset)) \
            else sum(1 for w in target if w in row)

    def in_degree(self, v: int, source: Iterable[int] | None = None) -> int:
        row = self._in.get(v, set())
        if source is None:
            return len(row)
        return len(row & set(source)) if isinstance(source, (set, frozenset)) \
            else sum(1 for w in source if w in row)

    def __add__(self, other: "Digraph") -> "Digraph":
        n = max(self.n, other.n)
        return Digraph(n, set(self._arcs) | set(other._arcs))

    def __sub__(self, other: "Digraph") -> "Digraph":
        return Digraph(self.n, self._arcs - other._arcs)

    def without_arcs(self, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, self._arcs - set(arcs))

    def with_arcs(self, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, self._arcs | set(arcs))

    def underlying_multigraph(self) -> Multigraph:
        return Multigraph(self.n, [(u, v) for (u, v) in self._arcs])

    def vertices_with_arcs(self) -> set[int]:
        out = set(self._out)
        out.update(self._in)
        return out

    def is_path_sequence(self) -> bool:
        """Union of vertex-disjoint directed paths (trivial paths allowed)."""
        if any(len(s) > 1 for s in self._out.values()):
            return False
        if any(len(s) > 1 for s in self._in.values()):
            return False
        # functional graph with in/out degree <= 1: cycles are the only
        # obstruction, detected by walking forward from every start
        starts = [v for v in self._out if not self._in.get(v)]
        reached = set()
        for s in starts:
            cur = s
            while cur in self._out and self._out[cur]:
                reached.add(cur)
                cur = next(iter(self._out[cur]))
            reached.add(cur)
        return all(v in reached for v in self._out)

    def directed_paths(self) -> list[list[int]]:
        """Maximal directed paths of a path sequence, as vertex lists."""
        if not self.is_path_sequence():
            raise MalformedInput("not a path sequence")
        out = []
        for s in sorted(v for v in self._out if not self._in.get(v)):
            path = [s]
            cur = s
            while self._out.get(cur):
                cur = next(iter(self._out[cur]))
                path.append(cur)
            out.append(path)
        return out

    def to_json_obj(self) -> dict:
        return {"schema": SCHEMA_VERSION, "n": self.n,
                "arcs": [[u, v] for (u, v) in self.arcs()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Digraph":
        return cls(obj["n"], [tuple(a) for a in obj["arcs"]])

    def to_dot(self, name: str = "D") -> str:
        lines = [f"digraph {name} {{"]
        for (u, v) in self.arcs():
            lines.append(f"  {u} -> {v};")
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Digraph) and self.n == other.n
                and self._arcs == other._arcs)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._arcs))))

    def __repr__(self):
        return f"Digraph(n={self.n}, e={len(self._arcs)})"


# -- cluster partitions ----------------------------------------------------

MODE_TWO_CLIQUES = "two-cliques"
MODE_BIPARTITE = "bipartite"
MODE_PLAIN = "plain-equipartition"


class ClusterPartition:
    """A (K, m, eps0)-partition (A0, A1..AK, B0, B1..BK) or a plain
    (k, m)-equipartition V1..Vk.

    Cluster lookup is O(1) via a vertex -> cluster-index map.  For the
    two-sided modes the cluster order is A1..AK, B1..BK; exceptional
    vertices map to -1 (A0) / -2 (B0).
    """

    def __init__(self, mode: str, clusters: Sequence[Sequence[int]],
                 a0: Sequence[int] = (), b0: Sequence[int] = (),
                 eps0: float | None = None, sides: int | None = None):
        self.mode = mode
        self.clusters: list[tuple[int, ...]] = [tuple(c) for c in clusters]
        self.a0 = tuple(a0)
        self.b0 = tuple(b0)
        self.eps0 = eps0
        if not self.clusters:
            raise MalformedInput("at least one cluster required")
        sizes = {len(c) for c in self.clusters}
        if len(sizes) != 1:
            raise MalformedInput(f"clusters not equal-sized: {sorted(sizes)}")
        self.m = len(self.clusters[0])
        if mode == MODE_PLAIN:
            if a0 or b0:
                raise MalformedInput("plain equipartition has no exceptional sets")
            self.K = len(self.clusters)
        else:
            if sides is None or len(self.clusters) != 2 * sides:
                raise MalformedInput("two-sided partition needs 2K clusters")
            self.K = sides
        self._index: dict[int, int] = {}
        for ci, cluster in enumerate(self.clusters):
            for v in cluster:
                if v in self._index:
                    raise MalformedInput(f"vertex {v} in two clusters")
                self._index[v] = ci
        for v in self.a0:
            if v in self._index:
                raise MalformedInput(f"exceptional vertex {v} also clustered")
            self._index[v] = -1
        for v in self.b0:
            if v in self._index or v in self.a0:
                raise MalformedInput(f"exceptional vertex {v} duplicated")
            self._index[v] = -2
        self.n = len(self._index)
        if mode != MODE_PLAIN and eps0 is not None:
            if len(self.a0) + len(self.b0) > eps0 * self.n:
                raise MalformedInput(
                    f"|A0 u B0| = {len(self.a0) + len(self.b0)} exceeds "
                    f"eps0*n = {eps0 * self.n:.3f}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def two_cliques(cls, a0, a_clusters, b0, b_clusters, eps0):
        return cls(MODE_TWO_CLIQUES, list(a_clusters) + list(b_clusters),
                   a0, b0, eps0, sides=len(a_clusters))

    @classmethod
    def bipartite(cls, a0, a_clusters, b0, b_clusters, eps0):
        return cls(MODE_BIPARTITE, list(a_clusters) + list(b_clusters),
                   a0, b0, eps0, sides=len(a_clusters))

    @classmethod
    def equipartition(cls, clusters):
        return cls(MODE_PLAIN, clusters)

    # -- views --------------------------------------------------------------

    def cluster(self, i: int) -> tuple[int, ...]:
        return self.clusters[i]

    def cluster_index(self, v: int) -> int:
        """Cluster index of v, or -1/-2 for A0/B0; raises if unknown."""
        try:
            return self._index[v]
        except KeyError:
            raise MalformedInput(f"vertex {v} not in partition") from None

    def a_cluster(self, i: int) -> tuple[int, ...]:
        return self.clusters[i]

    def b_cluster(self, i: int) -> tuple[int, ...]:
        return self.clusters[self.K + i]

    @property
    def A(self) -> list[int]:
        return [v for c in self.clusters[:self.K] for v in c]

    @property
    def B(self) -> list[int]:
        return [v for c in self.clusters[self.K:] for v in c]

    @property
    def V0(self) -> list[int]:
        return list(self.a0) + list(self.b0)

    @property
    def A_prime(self) -> list[int]:
        return list(self.a0) + self.A

    @property
    def B_prime(self) -> list[int]:
        return list(self.b0) + self.B

    def vertices(self) -> list[int]:
        return sorted(self._index)

    def a_side_equipartition(self) -> "ClusterPartition":
        return ClusterPartition.equipartition(self.clusters[:self.K])

    def b_side_equipartition(self) -> "ClusterPartition":
        return ClusterPartition.equipartition(self.clusters[self.K:])

    def ab_equipartition(self) -> "ClusterPartition":
        """All 2K clusters as a plain equipartition (bipartite mode)."""
        return ClusterPartition.equipartition(self.clusters)

    def to_json_obj(self) -> dict:
        if self.mode == MODE_PLAIN:
            return {"schema": SCHEMA_VERSION, "mode": self.mode,
                    "clusters": [list(c) for c in self.clusters]}
        return {"schema": SCHEMA_VERSION, "mode": self.mode,
                "A0": list(self.a0),
                "A": [list(c) for c in self.clusters[:self.K]],
                "B0": list(self.b0),
                "B": [list(c) for c in self.clusters[self.K:]],
                "eps0": self.eps0}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ClusterPartition":
        if obj["mode"] == MODE_PLAIN:
            return cls.equipartition(obj["clusters"])
        ctor = cls.two_cliques if obj["mode"] == MODE_TWO_CLIQUES else cls.bipartite
        return ctor(obj["A0"], obj["A"], obj["B0"], obj["B"], obj["eps0"])


@dataclass(frozen=True)
class ClusterCycle:
    """A directed cycle through all clusters, as a tuple of cluster indices."""

    order: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise MalformedInput("cluster cycle repeats a cluster")

    def __len__(self):
        return len(self.order)

    def edges(self) -> list[tuple[int, int]]:
        k = len(self.order)
        return [(self.order[i], self.order[(i + 1) % k]) for i in range(k)]

    def successor(self, ci: int) -> int:
        i = self.order.index(ci)
        return self.order[(i + 1) % len(self.order)]

    def predecessor(self, ci: int) -> int:
        i = self.order.index(ci)
        return self.order[(i - 1) % len(self.order)]

    def validate_spans(self, partition: ClusterPartition) -> None:
        if sorted(self.order) != list(range(len(partition.clusters))):
            raise MalformedInput("cluster cycle must visit every cluster once")

    def undirected_edge_set(self) -> set[tuple[int, int]]:
        return {tuple(sorted(e)) for e in self.edges()}


@dataclass(frozen=True)
class OrderedDirectedMatching:
    """An ordered list of pairwise vertex-disjoint arcs; order is identity."""

    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for (u, v) in self.arcs:
            if u == v or u in seen or v in seen:
                raise MalformedInput("arcs of an ordered matching must be "
                                     "pairwise vertex-disjoint")
            seen.add(u)
            seen.add(v)

    def __len__(self):
        return len(self.arcs)

    def vertices(self) -> set[int]:
        out: set[int] = set()
        for (u, v) in self.arcs:
            out.add(u)
            out.add(v)
        return out


# -- predicates --------------------------------------------------------------


def verify_hamilton_cycle(g, vertex_set: Iterable[int]) -> bool:
    """True iff g restricted to ``vertex_set`` is a single (directed) cycle
    spanning exactly ``vertex_set``.  Total predicate: never raises on
    structurally valid graphs."""
    vs = set(vertex_set)
    if not vs:
        return False
    if isinstance(g, Digraph):
        arcs = [(u, v) for (u, v) in g._arcs if u in vs and v in vs]
        if len(arcs) != len(vs):
            return False
        nxt: dict[int, int] = {}
        indeg: dict[int, int] = {}
        for (u, v) in arcs:
            if u in nxt:
                return False
            nxt[u] = v
            indeg[v] = indeg.get(v, 0) + 1
        if len(nxt) != len(vs) or any(indeg.get(v, 0) != 1 for v in vs):
            return False
        # single orbit: walking from any vertex must return only after
        # visiting every vertex
        start = next(iter(vs))
        cur, steps = nxt[start], 1
        while cur != start:
            cur = nxt[cur]
            steps += 1
        return steps == len(vs)
    # undirected multigraph
    sub = g.restrict(vs)
    if sub.edge_count() != len(vs):
        return False
    if len(vs) == 1:
        return False
    adj = sub._adjacency()
    if any(v not in adj or sum(adj[v].values()) != 2 for v in vs):
        return False
    # connectivity over vs
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj.get(x, {}):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == vs


def cycle_vertex_order(cycle: Digraph, vertex_set: Iterable[int]) -> list[int]:
    """Vertices of a directed Hamilton cycle in traversal order."""
    vs = set(vertex_set)
    if not verify_hamilton_cycle(cycle, vs):
        raise MalformedInput("not a directed Hamilton cycle on the given set")
    start = min(vs)
    order = [start]
    cur = start
    while True:
        nxts = [w for w in cycle.out_neighbors(cur) if w in vs]
        cur = nxts[0]
        if cur == start:
            break
        order.append(cur)
    return order


def winds_around(d: Digraph, partition: ClusterPartition,
                 cycle: ClusterCycle) -> bool:
    """True iff every arc goes from V_i to V_{i+1} for some cycle edge."""
    succ = {}
    k = len(cycle.order)
    for i in range(k):
        succ[cycle.order[i]] = cycle.order[(i + 1) % k]
    for (u, v) in d._arcs:
        cu = partition.cluster_index(u)
        cv = partition.cluster_index(v)
        if cu < 0 or cv < 0:
            raise MalformedInput(f"arc ({u},{v}) touches an exceptional vertex")
        if succ.get(cu) != cv:
            return False
    return True


def is_locally_balanced(d: Digraph, partition: ClusterPartition,
                        cycle: ClusterCycle) -> bool:
    """For every cluster-cycle edge UW: #arcs starting in U == #arcs ending
    in W (arcs may live anywhere inside the partition)."""
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for (u, v) in d._arcs:
        cu = partition.cluster_index(u)
        cv = partition.cluster_index(v)
        if cu < 0 or cv < 0:
            raise MalformedInput(f"arc ({u},{v}) touches an exceptional vertex")
        starts[cu] = starts.get(cu, 0) + 1
        ends[cv] = ends.get(cv, 0) + 1
    for (cu, cw) in cycle.edges():
        if starts.get(cu, 0) != ends.get(cw, 0):
            return False
    return True


def is_consistent_with(cycle: Digraph, matching: OrderedDirectedMatching) -> bool:
    """True iff the cycle contains every arc of the matching and traversing
    once from the first arc encounters the arcs in the given cyclic order."""
    verts = cycle.vertices_with_arcs()
    if not verify_hamilton_cycle(cycle, verts):
        raise MalformedInput("consistency check requires a Hamilton cycle")
    if len(matching) == 0:
        return True
    for (u, v) in matching.arcs:
        if not cycle.has_arc(u, v):
            return False
    # arc (u,v) sits where the cycle leaves u
    return visits_in_order(cycle_vertex_order(cycle, verts),
                           [u for (u, _v) in matching.arcs])


def visits_in_order(order: Sequence[int], targets: Sequence[int]) -> bool:
    """True iff walking the cyclic vertex sequence ``order`` once, from
    ``targets[0]``, meets the distinct ``targets`` in the given order."""
    if not targets:
        return True
    pos = {v: i for i, v in enumerate(order)}
    base = pos[targets[0]]
    rel = [(pos[t] - base) % len(order) for t in targets]
    return all(a < b for a, b in zip(rel, rel[1:]))


def cycle_to_perfect_matchings(g: Multigraph, vertex_set: Iterable[int]
                               ) -> tuple[Multigraph, Multigraph]:
    """Split an even cycle (as undirected multigraph) into its two
    alternating perfect matchings."""
    vs = set(vertex_set)
    if not verify_hamilton_cycle(g, vs) or len(vs) % 2 != 0:
        raise MalformedInput("need a Hamilton cycle on an even vertex set")
    sub = g.restrict(vs)
    adj = {v: [] for v in vs}
    for (u, v, k) in sub.edges():
        for _ in range(k):
            adj[u].append(v)
            adj[v].append(u)
    start = min(vs)
    order = [start]
    prev = None
    cur = start
    while len(order) < len(vs):
        cands = [w for w in adj[cur] if w != prev]
        nxt = cands[0] if cands else adj[cur][0]
        order.append(nxt)
        prev, cur = cur, nxt
    edges = [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]
    m1 = Multigraph(g.n, edges[0::2])
    m2 = Multigraph(g.n, edges[1::2])
    return m1, m2


def canonical_json(obj) -> str:
    """Canonical JSON used for all serialized artifacts (byte-stable)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(*parts) -> int:
    """Stable sub-seed derivation (hash() is randomized per process, so
    seeds for nested RNGs go through sha256 instead)."""
    text = ":".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
