"""Exact graph containers, path sequences, cluster partitions, and the
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

import numpy as np

from .errors import MalformedInput

SCHEMA_VERSION = 1


def _edge_array(rows: list, shape: str) -> np.ndarray:
    """``rows`` as an int64 (E, 3) array; MalformedInput, naming the edge
    ``shape`` expected, unless each row is three int64 values."""
    try:
        arr = np.array(rows, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        arr = None
    if arr is None or (len(arr) and arr.shape[1:] != (3,)):
        raise MalformedInput(f"every edge must be {shape} of int64 values")
    return arr.reshape(-1, 3)


def _summed_edges(n: int, arr: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct edges of the rows (u, v, k) of the int64 (E, 3) array
    ``arr`` as int64 arrays (us, vs, ks), us < vs, in sorted order, each k
    summed over the rows of its edge.  Raises MalformedInput on an n < 0,
    an end outside 0..n-1, a loop, a k < 1, or an n or a k so large that
    the keys lo * n + hi or the sums would overflow int64."""
    if n < 0:
        raise MalformedInput("vertex count must be nonnegative")
    u, v, k = arr.T
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = bad.argmax()
        raise MalformedInput(f"edge ({u[i]},{v[i]}) outside 0..{n - 1}")
    if (u == v).any():
        raise MalformedInput(f"loop at vertex {u[(u == v).argmax()]} "
                             f"not allowed")
    if (k < 1).any():
        i = (k < 1).argmax()
        raise MalformedInput(f"multiplicity {k[i]} < 1 in edge "
                             f"({u[i]},{v[i]})")
    if n * n > 2 ** 63:
        raise MalformedInput(f"{n} vertices overflow the int64 edge keys")
    if k.size and k.max() > (2 ** 63 - 1) // k.size:
        raise MalformedInput(f"multiplicity {k.max()} may overflow an "
                             f"int64 sum")
    keys, where = np.unique(np.minimum(u, v) * n + np.maximum(u, v),
                            return_inverse=True)
    ks = np.zeros(keys.size, dtype=np.int64)
    np.add.at(ks, where, k)
    return keys // n, keys % n, ks


class Multigraph:
    """Undirected multigraph on vertices 0..n-1 with explicit multiplicities.

    A multigraph is n and three read-only int64 arrays (us, vs, ks), its
    key arrays: the distinct edges (us[i], vs[i]), us < vs, in sorted
    order, and their multiplicities ks[i] >= 1.  Loops are rejected.  The
    constructor parses its edge list through ``_summed_edges``, as
    ``Host`` does.  ``+`` has no library caller; it stays because
    ``bench/tracing.py`` wraps it by name.
    """

    __slots__ = ("n", "_us", "_vs", "_ks")

    def __init__(self, n: int, edges: Iterable = ()):
        """The multigraph of the given (u, v) and (u, v, k) edges, k the
        multiplicity (1 for a pair); repeated edges add up.  Raises
        MalformedInput on an edge of another length, and where
        ``_summed_edges`` does."""
        rows = [(*e, 1) if len(e) == 2 else e for e in edges]
        self._wrap(n, *_summed_edges(n, _edge_array(
            rows, "a pair (u, v) or a triple (u, v, k)")))

    @classmethod
    def from_key_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray,
                        ks: np.ndarray) -> "Multigraph":
        """The multigraph on n vertices whose key arrays are the given
        int64 arrays, taken over read-only: the distinct edges (us[i],
        vs[i]), us < vs, in sorted order, of multiplicity ks[i] >= 1."""
        g = cls.__new__(cls)
        g._wrap(n, us, vs, ks)
        return g

    def _wrap(self, n: int, us: np.ndarray, vs: np.ndarray,
              ks: np.ndarray) -> None:
        for arr in (us, vs, ks):
            arr.flags.writeable = False
        self.n = n
        self._us, self._vs, self._ks = us, vs, ks

    # -- basic accessors -------------------------------------------------

    def key_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only int64 arrays (us, vs, ks): the distinct edges,
        us < vs, in sorted order, and their multiplicities."""
        return self._us, self._vs, self._ks

    def edge_count(self) -> int:
        """e(G): number of edges counted with multiplicity."""
        return int(self._ks.sum())

    def support(self) -> Iterator[tuple[int, int]]:
        """Distinct edges, ignoring multiplicity, in sorted order."""
        return zip(self._us.tolist(), self._vs.tolist())

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, multiplicity) triples in sorted order."""
        return zip(self._us.tolist(), self._vs.tolist(), self._ks.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 arrays (lo, hi), lo < hi, with one entry per edge counted
        with multiplicity."""
        return np.repeat(self._us, self._ks), np.repeat(self._vs, self._ks)

    def degree(self, v: int) -> int:
        return int(self._ks[(self._us == v) | (self._vs == v)].sum())

    def covered_vertices(self) -> set[int]:
        """Vertices incident with at least one edge."""
        return set(self._us.tolist()).union(self._vs.tolist())

    # -- arithmetic (section-2 style G+H / G-H) --------------------------

    def __add__(self, other: "Multigraph") -> "Multigraph":
        return self._combined(other, 1, max(self.n, other.n))

    def __sub__(self, other: "Multigraph") -> "Multigraph":
        """Multiplicity-arithmetic difference, never below zero."""
        return self._combined(other, -1, self.n)

    def _combined(self, other: "Multigraph", sign: int, n: int
                  ) -> "Multigraph":
        """The n-vertex multigraph of the edges whose multiplicity in self
        plus ``sign`` times that in other is positive.  Both are keyed on
        base max(self.n, other.n), so that no two edges share a key."""
        base = max(self.n, other.n, 1)
        us = np.concatenate((self._us, other._us))
        vs = np.concatenate((self._vs, other._vs))
        keys, where = np.unique(us * base + vs, return_inverse=True)
        total = np.zeros(keys.size, dtype=np.int64)
        np.add.at(total, where, np.concatenate((self._ks, sign * other._ks)))
        keep = total > 0
        return Multigraph.from_key_arrays(n, keys[keep] // base,
                                          keys[keep] % base, total[keep])

    def restrict(self, vertices: Iterable[int]) -> "Multigraph":
        """Subgraph induced on the given vertex set (same vertex ids);
        vertices outside 0..n-1 are ignored."""
        inside = np.zeros(self.n, dtype=bool)
        inside[np.array([v for v in set(vertices) if 0 <= v < self.n],
                        dtype=np.intp)] = True
        keep = inside[self._us] & inside[self._vs]
        return Multigraph.from_key_arrays(self.n, self._us[keep],
                                          self._vs[keep], self._ks[keep])

    def is_simple(self) -> bool:
        return bool((self._ks == 1).all())

    # -- structural predicates -------------------------------------------

    def is_matching(self) -> bool:
        ends = np.concatenate((self._us, self._vs))
        return self.is_simple() and np.unique(ends).size == ends.size

    def _walk_paths(self) -> list[list[int]] | None:
        """The maximal paths as vertex lists, each walked from its smaller
        end and listed by it, or None unless the graph is a vertex-disjoint
        union of simple paths."""
        if not self.is_simple():
            return None
        adj: dict[int, list[int]] = {}
        for u, v in self.support():
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if any(len(row) > 2 for row in adj.values()):
            return None
        out = []
        far_ends: set[int] = set()
        for end in sorted(v for v, row in adj.items() if len(row) == 1):
            if end in far_ends:
                continue
            path = [end, *adj[end]]
            while len(adj[path[-1]]) == 2:
                a, b = adj[path[-1]]
                path.append(b if a == path[-2] else a)
            far_ends.add(path[-1])
            out.append(path)
        # a cycle component has no end, so its vertices stay unwalked
        return out if sum(map(len, out)) == len(adj) else None

    def is_path_system(self) -> bool:
        """True iff the graph is a vertex-disjoint union of (simple) paths."""
        return self._walk_paths() is not None

    def paths(self) -> list[list[int]]:
        """Decompose a path system into its maximal paths (as vertex lists).

        Isolated covered vertices do not occur (an edgeless vertex is not
        stored); callers that track trivial paths keep a separate vertex set.
        """
        out = self._walk_paths()
        if out is None:
            raise MalformedInput("not a path system")
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Multigraph) and self.n == other.n
                and all(map(np.array_equal, self.key_arrays(),
                            other.key_arrays())))

    def __repr__(self):
        return f"Multigraph(n={self.n}, e={self.edge_count()})"


MAX_HOST_MULTIPLICITY = 255


class Host:
    """The host graph G on 0..n-1 as one read-only n x n uint8
    multiplicity matrix, symmetric with a zero diagonal.

    G is within eps*n^2 edges of two cliques or of a complete balanced
    bipartite graph, so the dense matrix is its natural container; a
    multiplicity is at most MAX_HOST_MULTIPLICITY.  The JSON form is its
    edge list of (u, v, multiplicity) triples.
    """

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, edges: Iterable = ()):
        """The host with the given (u, v, k) edges, k the multiplicity;
        repeated edges add up.  Raises MalformedInput on a loop, an end
        outside 0..n-1, or a multiplicity, single or summed, outside
        1..MAX_HOST_MULTIPLICITY."""
        arr = _edge_array(list(edges), "a triple (u, v, k)")
        # before the sums, so that one entry above the bound is named
        big = arr[:, 2] > MAX_HOST_MULTIPLICITY
        if big.any():
            raise MalformedInput(
                f"multiplicity of edge {arr[big.argmax()].tolist()} outside "
                f"1..{MAX_HOST_MULTIPLICITY}")
        us, vs, ks = _summed_edges(n, arr)
        if (ks > MAX_HOST_MULTIPLICITY).any():
            i = ks.argmax()
            raise MalformedInput(
                f"edge ({us[i]},{vs[i]}) repeated to multiplicity {ks[i]} > "
                f"{MAX_HOST_MULTIPLICITY}")
        mat = np.zeros((n, n), dtype=np.uint8)
        mat[us, vs] = ks
        mat[vs, us] = ks
        self._wrap(mat)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Host":
        """The host of a symmetric uint8 matrix with a zero diagonal, which
        the host takes over read-only."""
        host = cls.__new__(cls)
        host._wrap(matrix)
        return host

    def _wrap(self, matrix: np.ndarray) -> None:
        matrix.flags.writeable = False
        self.n = len(matrix)
        self.matrix = matrix

    def multiplicity(self, u: int, v: int) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return 0
        return int(self.matrix[u, v])

    def edge_count(self) -> int:
        """e(G): number of edges counted with multiplicity."""
        return int(self.matrix.sum(dtype=np.int64)) // 2

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, multiplicity) triples with u < v, in sorted order."""
        for u in range(self.n):
            row = self.matrix[u, u + 1:]
            vs = np.flatnonzero(row)
            yield from zip([u] * vs.size, (vs + u + 1).tolist(),
                           row[vs].tolist())

    def to_json_obj(self) -> dict:
        return {"schema": SCHEMA_VERSION, "n": self.n,
                "edges": [[u, v, k] for (u, v, k) in self.edges()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Host":
        return cls(obj["n"], obj["edges"])

    def __repr__(self):
        return f"Host(n={self.n}, e={self.edge_count()})"


class PathSequence(dict):
    """Vertex-disjoint directed paths as the map of each arc's tail to its
    head: only tails are keys, so a sequence costs its arcs, not n.  Built
    by ``from_arcs`` and never changed afterwards."""

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]
                  ) -> "PathSequence":
        """The map of ``arcs``; MalformedInput on a loop, an end outside
        0..n-1 or a second arc out of one vertex."""
        ps = cls()
        for (u, v) in arcs:
            if u == v:
                raise MalformedInput(f"loop at {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInput(f"arc ({u},{v}) outside 0..{n - 1}")
            if u in ps:
                raise MalformedInput(f"a second arc ({u},{v}) out of {u}")
            ps[u] = v
        return ps

    def arcs(self) -> list[tuple[int, int]]:
        """The arcs, sorted by tail."""
        return sorted(self.items())

    def vertices_with_arcs(self) -> set[int]:
        return set(self).union(self.values())

    def paths(self) -> list[list[int]]:
        """The maximal directed paths as vertex lists, listed by their
        first vertex; MalformedInput unless they are vertex-disjoint."""
        heads = set(self.values())
        if len(heads) == len(self):  # in-degree <= 1, so every walk ends
            paths = []
            for s in sorted(v for v in self if v not in heads):
                path = [s]
                while path[-1] in self:
                    path.append(self[path[-1]])
                paths.append(path)
            # a cycle has no first vertex, so its arcs stay unwalked
            if sum(map(len, paths)) - len(paths) == len(self):
                return paths
        raise MalformedInput("not a path sequence")


class Digraph:
    """Digraph on 0..n-1; at most one arc per direction per pair, no loops.

    The pipeline builds none.  ``without_arcs``, ``with_arcs``, ``+`` and
    ``-`` stay because ``bench/tracing.py`` wraps them by name.
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

    def __add__(self, other: "Digraph") -> "Digraph":
        n = max(self.n, other.n)
        return Digraph(n, set(self._arcs) | set(other._arcs))

    def __sub__(self, other: "Digraph") -> "Digraph":
        return Digraph(self.n, self._arcs - other._arcs)

    def without_arcs(self, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, self._arcs - set(arcs))

    def with_arcs(self, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, self._arcs | set(arcs))

    def vertices_with_arcs(self) -> set[int]:
        out = set(self._out)
        out.update(self._in)
        return out

    def is_path_sequence(self) -> bool:
        """Union of vertex-disjoint directed paths (trivial paths allowed)."""
        try:
            return self.directed_paths() is not None
        except MalformedInput:
            return False

    def directed_paths(self) -> list[list[int]]:
        """Maximal directed paths of a path sequence, as vertex lists
        (``PathSequence.paths`` of the arcs)."""
        return PathSequence.from_arcs(self.n, self._arcs).paths()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Digraph) and self.n == other.n
                and self._arcs == other._arcs)

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


def vertex_mask(vertices: Iterable[int], n: int) -> np.ndarray | None:
    """Boolean mask of ``vertices`` over 0..n-1, or None when one of them
    lies outside that range, where no edge of an n-vertex graph reaches."""
    try:
        ids = np.fromiter(vertices, dtype=np.int64)
    except OverflowError:
        return None
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        return None
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def undirected_cycle_order(lo: np.ndarray, hi: np.ndarray,
                           inside: np.ndarray) -> list[int] | None:
    """The vertex set ``inside`` (a boolean mask) in the order of the one
    cycle that the edges (lo[i], hi[i]) with both ends in it form, or None
    when they form no cycle through every vertex of the set.

    The walk starts at the smallest vertex and steps to its smaller
    neighbour first.  An edge listed twice is a 2-cycle on its ends."""
    keep = inside[lo] & inside[hi]
    lo, hi = lo[keep], hi[keep]
    count = int(np.count_nonzero(inside))
    if count == 0 or lo.size != count:
        return None
    ends = np.concatenate((lo, hi))
    if (np.bincount(ends, minlength=inside.size)[inside] != 2).any():
        return None
    # every vertex of the set now has exactly two neighbours, so the XOR of
    # the two gives the one that the walk did not come from
    others = np.concatenate((hi, lo))
    link = np.zeros(inside.size, dtype=np.int64)
    np.bitwise_xor.at(link, ends, others)
    start = int(inside.argmax())
    cur = int(others[ends == start].min())
    link = link.tolist()
    order = [start]
    prev = start
    while cur != start:
        order.append(cur)
        prev, cur = cur, link[cur] ^ prev
    return order if len(order) == count else None


def _directed_cycle_order(d: "Digraph", vs: set) -> list[int] | None:
    """``vs`` in the order of the directed cycle that the arcs of d inside
    it form, from its smallest vertex, or None when they form none through
    every vertex of ``vs``."""
    if not vs:
        return None
    start = min(vs)
    order, cur = [], start
    out, none = d._out, frozenset()
    for _ in range(len(vs)):
        heads = out.get(cur, none) & vs
        if len(heads) != 1:
            return None
        order.append(cur)
        (cur,) = heads
        if cur == start:
            return order if len(order) == len(vs) else None
    return None


def _multigraph_cycle_order(g: Multigraph, vertex_set: Iterable[int]
                            ) -> list[int] | None:
    """``undirected_cycle_order`` of g's edges on ``vertex_set``."""
    inside = vertex_mask(vertex_set, g.n)
    return None if inside is None else \
        undirected_cycle_order(*g.edge_arrays(), inside)


def verify_hamilton_cycle(g, vertex_set: Iterable[int]) -> bool:
    """True iff g restricted to ``vertex_set`` is a single (directed) cycle
    spanning exactly ``vertex_set``.  Total predicate: never raises on
    structurally valid graphs."""
    if isinstance(g, Digraph):
        return _directed_cycle_order(g, set(vertex_set)) is not None
    return _multigraph_cycle_order(g, vertex_set) is not None


def cycle_vertex_order(cycle: Digraph, vertex_set: Iterable[int]) -> list[int]:
    """Vertices of a directed Hamilton cycle in traversal order, from the
    smallest."""
    order = _directed_cycle_order(cycle, set(vertex_set))
    if order is None:
        raise MalformedInput("not a directed Hamilton cycle on the given set")
    return order


def winds_around(d: Digraph | PathSequence, partition: ClusterPartition,
                 cycle: ClusterCycle) -> bool:
    """True iff every arc goes from V_i to V_{i+1} for some cycle edge."""
    succ = {}
    k = len(cycle.order)
    for i in range(k):
        succ[cycle.order[i]] = cycle.order[(i + 1) % k]
    for (u, v) in d.arcs():
        cu = partition.cluster_index(u)
        cv = partition.cluster_index(v)
        if cu < 0 or cv < 0:
            raise MalformedInput(f"arc ({u},{v}) touches an exceptional vertex")
        if succ.get(cu) != cv:
            return False
    return True


def is_locally_balanced(d: Digraph | PathSequence, partition: ClusterPartition,
                        cycle: ClusterCycle) -> bool:
    """For every cluster-cycle edge UW: #arcs starting in U == #arcs ending
    in W (arcs may live anywhere inside the partition)."""
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for (u, v) in d.arcs():
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
    # raises MalformedInput on a non-cycle, whatever the matching
    return order_is_consistent(
        cycle_vertex_order(cycle, cycle.vertices_with_arcs()), matching)


def order_is_consistent(order: Sequence[int],
                        matching: OrderedDirectedMatching) -> bool:
    """True iff the directed cycle that visits the distinct vertices
    ``order`` in turn (and returns to ``order[0]``) has every arc (u, v) of
    the matching, v right after u, and meets the arcs in their cyclic
    order."""
    pos = {v: i for i, v in enumerate(order)}
    tails = []
    for (u, v) in matching.arcs:
        i = pos.get(u)
        if i is None or order[(i + 1) % len(order)] != v:
            return False
        tails.append(i)
    # arc (u,v) sits where the cycle leaves u
    return _positions_in_order(tails, len(order))


def visits_in_order(order: Sequence[int], targets: Sequence[int]) -> bool:
    """True iff walking the cyclic vertex sequence ``order`` once, from
    ``targets[0]``, meets the distinct ``targets`` in the given order."""
    pos = {v: i for i, v in enumerate(order)}
    return _positions_in_order([pos[t] for t in targets], len(order))


def _positions_in_order(positions: Sequence[int], length: int) -> bool:
    """True iff the distinct positions of a cyclic sequence of ``length``
    entries increase, counted from ``positions[0]``."""
    rel = [(i - positions[0]) % length for i in positions]
    return all(a < b for a, b in zip(rel, rel[1:]))


def cycle_to_perfect_matchings(g: Multigraph, vertex_set: Iterable[int]
                               ) -> tuple[Multigraph, Multigraph]:
    """Split an even cycle (as undirected multigraph) into its two
    alternating perfect matchings: every other edge of the walk order of
    ``undirected_cycle_order``, and the rest."""
    order = _multigraph_cycle_order(g, vertex_set)
    if order is None or len(order) % 2 != 0:
        raise MalformedInput("need a Hamilton cycle on an even vertex set")
    edges = list(zip(order, order[1:] + order[:1]))
    return Multigraph(g.n, edges[0::2]), Multigraph(g.n, edges[1::2])


def canonical_json(obj) -> str:
    """Canonical JSON used for all serialized artifacts (byte-stable)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      check_circular=False)


def derive_seed(*parts) -> int:
    """Stable sub-seed derivation (hash() is randomized per process, so
    seeds for nested RNGs go through sha256 instead)."""
    text = ":".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
