"""Differential tests of the array multigraph, the array cycle kernel,
the array verifier and its one-text slot reader, the array splices, the
one-walk structure walkers and the matrix host (generator and instance
files) against frozen copies of the versions they replaced.

The references below are the dict ``Multigraph`` as ``RefMultigraph``,
which every other reference reads its multigraphs through, converting
them on entry; the earlier ``core.verify_hamilton_cycle``,
``core.cycle_vertex_order``, ``core.cycle_to_perfect_matchings`` and
``pipeline.verify_certificate`` (with its slot reader and matching
split), kept verbatim apart from inlining ``Multigraph.edges_inside`` and
the edge hash;
and the earlier ``Multigraph.is_path_system``/``paths``,
``Digraph.is_path_sequence``/``directed_paths`` and
``assembly._cycle_count``/``_hamilton_order``, as free functions; and
the dict-host generator; and the Digraph-based input check of the
splices (``exceptional._check_input_cycle`` with the
``core.is_consistent_with`` walk it made); and a pure-Python max-flow
for ``classic.regular_spanning_subgraph``, which once ran on a max-flow
library; and the ``Multigraph`` sums of the two splices and the slot
reader that scanned edge lists for types; and the two fictive builders
that also built J*_AB, J*_A, J*_B and J* as multigraphs, with
``ExceptionalSystem.count_ab_paths``.  The reference verifier reads
the host as a ``RefMultigraph`` of its edges, and computes the instance
digest it checks from those edges in pure Python.
One verdict differs on purpose: an edge written as a triple
``[u, v, k]`` was read as an edge of multiplicity k, and is now
unreadable.  The mutations here write pairs only.  The reference
verifier also leaves ``params.eps0`` out of ``instance_match``, so the
mutations leave the params alone.
"""

import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import types
from collections import deque
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hamdec.classic import (_augment, _row_ints, pack_rows,
                            regular_spanning_subgraph)
from hamdec.cli import _dump_instance, main as cli_main
from hamdec.core import (ClusterPartition, Digraph, Host, Multigraph,
                         OrderedDirectedMatching, PathSequence,
                         canonical_json, cycle_to_perfect_matchings,
                         cycle_vertex_order, derive_seed, is_consistent_with,
                         successor_cycles, verify_hamilton_cycle)
from hamdec.errors import (DegreeHypothesisViolated, HamdecError,
                           InvalidExceptionalSystem, InvalidParameter,
                           MalformedInput, NotConsistent,
                           SpliceVerificationFailed)
from hamdec.exceptional import (KIND_HES, KIND_MES, BalancedExceptionalSystem,
                                ExceptionalSystem, _check_input_cycle,
                                _spliced, build_fictive_bipartite,
                                build_fictive_two_cliques, splice_bipartite,
                                splice_two_cliques)
from hamdec.pipeline import (DecompositionCertificate, InstanceConfig,
                             MODE_TWO_CLIQUES, _cluster_pools,
                             _generate_bipartite, _generate_two_cliques,
                             _read_slot, _take, approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance,
                             verify_certificate)

# -- frozen references --------------------------------------------------------


def _norm_pair(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise MalformedInput(f"loop at vertex {u} not allowed")
    return (u, v) if u < v else (v, u)


class RefMultigraph:
    """``core.Multigraph`` as it was when it kept its edges in a dict,
    verbatim apart from its name and the constructor from key arrays,
    which only the splices called."""

    __slots__ = ("n", "_mult", "_adj", "_keys")

    def __init__(self, n: int, edges=()):
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
        self._keys: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- basic accessors -------------------------------------------------

    def edge_count(self) -> int:
        """e(G): number of edges counted with multiplicity."""
        return sum(self._mult.values())

    def support(self):
        """Distinct edges, ignoring multiplicity, in sorted order."""
        return iter(sorted(self._mult))

    def edges(self):
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

    def _key_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """int64 arrays (us, vs, ks) of the distinct edges (u < v) and
        their multiplicities, built once and read-only."""
        if self._keys is None:
            count = len(self._mult)
            us, vs = np.fromiter(chain.from_iterable(self._mult),
                                 dtype=np.int64,
                                 count=2 * count).reshape(-1, 2).T
            ks = np.fromiter(self._mult.values(), dtype=np.int64, count=count)
            for arr in (us, vs, ks):
                arr.flags.writeable = False
            self._keys = us, vs, ks
        return self._keys

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 arrays (lo, hi), lo < hi, with one entry per edge counted
        with multiplicity."""
        us, vs, ks = self._key_arrays()
        return np.repeat(us, ks), np.repeat(vs, ks)

    def degree(self, v: int) -> int:
        return sum(self._adjacency().get(v, {}).values())

    def covered_vertices(self) -> set[int]:
        """Vertices incident with at least one edge."""
        out: set[int] = set()
        for (u, v) in self._mult:
            out.add(u)
            out.add(v)
        return out

    # -- arithmetic (section-2 style G+H / G-H) --------------------------

    def __add__(self, other: "RefMultigraph") -> "RefMultigraph":
        n = max(self.n, other.n)
        out = RefMultigraph(n)
        mult = dict(self._mult)
        for key, k in other._mult.items():
            mult[key] = mult.get(key, 0) + k
        out._mult = mult
        return out

    def __sub__(self, other: "RefMultigraph") -> "RefMultigraph":
        """Multiplicity-arithmetic difference, never below zero."""
        out = RefMultigraph(self.n)
        mult = {}
        for key, k in self._mult.items():
            r = k - other._mult.get(key, 0)
            if r > 0:
                mult[key] = r
        out._mult = mult
        return out

    def restrict(self, vertices) -> "RefMultigraph":
        """Subgraph induced on the given vertex set (same vertex ids)."""
        vs = set(vertices)
        out = RefMultigraph(self.n)
        out._mult = {key: k for key, k in self._mult.items()
                     if key[0] in vs and key[1] in vs}
        return out

    def edges_between(self, left, right) -> int:
        """e(L, R) for disjoint L, R, with multiplicity."""
        ls, rs = set(left), set(right)
        return sum(k for (u, v), k in self._mult.items()
                   if (u in ls and v in rs) or (u in rs and v in ls))

    def is_submultigraph_of(self, other: "RefMultigraph") -> bool:
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

    def _walk_paths(self) -> list[list[int]] | None:
        """The maximal paths as vertex lists, each walked from its smaller
        end and listed by it, or None unless the graph is a vertex-disjoint
        union of simple paths."""
        if not self.is_simple():
            return None
        adj = self._adjacency()
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
        return (isinstance(other, RefMultigraph) and self.n == other.n
                and self._mult == other._mult)

    def __repr__(self):
        return f"RefMultigraph(n={self.n}, e={self.edge_count()})"


def _frozen(g) -> RefMultigraph:
    """g as a RefMultigraph: how every reference reads a multigraph."""
    return g if isinstance(g, RefMultigraph) else RefMultigraph(g.n,
                                                                g.edges())


def _edge_lists(out):
    """An outcome with each multigraph in it as its n and edge list, so
    that the outcomes of a function and of its reference compare."""
    if isinstance(out, tuple):
        return tuple(map(_edge_lists, out))
    if isinstance(out, (Multigraph, RefMultigraph)):
        return out.n, list(out.edges())
    return out


def ref_verify_hamilton_cycle(g, vertex_set) -> bool:
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
        start = next(iter(vs))
        cur, steps = nxt[start], 1
        while cur != start:
            cur = nxt[cur]
            steps += 1
        return steps == len(vs)
    sub = _frozen(g).restrict(vs)
    if sub.edge_count() != len(vs):
        return False
    if len(vs) == 1:
        return False
    adj = sub._adjacency()
    if any(v not in adj or sum(adj[v].values()) != 2 for v in vs):
        return False
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


def ref_cycle_vertex_order(cycle: Digraph, vertex_set) -> list[int]:
    vs = set(vertex_set)
    if not ref_verify_hamilton_cycle(cycle, vs):
        raise MalformedInput("not a directed Hamilton cycle on the given set")
    start = min(vs)
    order = [start]
    cur = start
    while True:
        nxts = [w for w in vs if (cur, w) in cycle._arcs]
        cur = nxts[0]
        if cur == start:
            break
        order.append(cur)
    return order


def ref_cycle_to_perfect_matchings(g, vertex_set):
    g = _frozen(g)
    vs = set(vertex_set)
    if not ref_verify_hamilton_cycle(g, vs) or len(vs) % 2 != 0:
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
    return RefMultigraph(g.n, edges[0::2]), RefMultigraph(g.n, edges[1::2])


def _ref_edges_inside(g: RefMultigraph, vertices) -> int:
    vs = set(vertices)
    return sum(k for (u, v), k in g._mult.items() if u in vs and v in vs)


def ref_edge_hash(edges: list) -> str:
    return hashlib.sha256(json.dumps(
        edges, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _ref_read_slot(slot: dict, n: int):
    try:
        edges = [tuple(e) for e in slot["edges"]]
        if not all(type(e[0]) is int and type(e[1]) is int for e in edges):
            return None
        return slot["kind"], RefMultigraph(n, edges)
    except (KeyError, TypeError, ValueError, IndexError, MalformedInput):
        return None


def _ref_splits_into_matchings(sub: RefMultigraph, a_pr, b_pr) -> bool:
    try:
        m1a, m2a = ref_cycle_to_perfect_matchings(sub.restrict(a_pr), a_pr)
        m1b, m2b = ref_cycle_to_perfect_matchings(sub.restrict(b_pr), b_pr)
    except HamdecError:
        return False
    total = m1a + m2a + m1b + m2b
    return total == sub.restrict(a_pr) + sub.restrict(b_pr)


def ref_verify_certificate(host, partition, systems, cert) -> dict:
    host = RefMultigraph(host.n, host.edges())
    graphs = [_frozen(es.graph) for es in systems]
    all_vertices = set(partition.vertices())
    a_pr = set(partition.A_prime)
    b_pr = set(partition.B_prime)
    slot_reports = []
    used_edges = []
    slot_counts = [0] * len(systems)
    coverage_edges = 0
    failures = []
    for slot in cert.slots:
        idx = slot.get("es_index") if isinstance(slot, dict) else None
        read = None
        if type(idx) is int and 0 <= idx < len(systems):
            slot_counts[idx] += 1
            read = _ref_read_slot(slot, host.n)
        if read is None:
            slot_reports.append({"ok": False})
            failures.append(idx)
            continue
        kind, sub = read
        es = systems[idx]
        verdicts = {}
        verdicts["in_host"] = sub.is_submultigraph_of(host)
        verdicts["contains_system"] = graphs[idx].is_submultigraph_of(sub)
        if "edges_sha256" in slot:
            verdicts["hash_ok"] = slot["edges_sha256"] == ref_edge_hash(
                slot["edges"])
        if es.kind == "MES":
            cyc_a = ref_verify_hamilton_cycle(sub.restrict(a_pr), a_pr)
            cyc_b = ref_verify_hamilton_cycle(sub.restrict(b_pr), b_pr)
            cross = sub.edges_between(a_pr, b_pr) == 0
            verdicts["bi_hamiltonian"] = cyc_a and cyc_b and cross
            if len(a_pr) % 2 == 0 and len(b_pr) % 2 == 0:
                verdicts["matching_pair"] = _ref_splits_into_matchings(
                    sub, a_pr, b_pr)
            structure_ok = verdicts["bi_hamiltonian"] and \
                verdicts.get("matching_pair", True)
        else:
            verdicts["hamiltonian"] = ref_verify_hamilton_cycle(
                sub, all_vertices)
            structure_ok = verdicts["hamiltonian"]
        ok = structure_ok and kind == es.kind and verdicts["in_host"] and \
            verdicts["contains_system"] and verdicts.get("hash_ok", True)
        verdicts["ok"] = ok
        if not ok:
            failures.append(idx)
        slot_reports.append(verdicts)
        used_edges.extend(sub.edges())
        coverage_edges += sub.edge_count() - graphs[idx].edge_count()
    failures += [idx for idx, count in enumerate(slot_counts) if count != 1]
    usage = RefMultigraph(host.n, used_edges)
    edge_disjoint = usage.is_submultigraph_of(host) and usage.is_simple()
    if partition.mode == MODE_TWO_CLIQUES:
        denom = (_ref_edges_inside(host, partition.A)
                 + _ref_edges_inside(host, partition.B))
    else:
        denom = host.edges_between(partition.A, partition.B)
    coverage = coverage_edges / denom if denom else 0.0
    # the instance digest from the host's edges: its n x n byte matrix,
    # row-major, then the canonical JSON of the partition and systems
    n = host.n
    matrix = bytearray(n * n)
    for (u, v, k) in host.edges():
        matrix[u * n + v] = matrix[v * n + u] = k
    digest = hashlib.sha256(bytes(matrix) + canonical_json({
        "partition": partition.to_json_obj(),
        "systems": [es.to_json_obj() for es in systems]}).encode())
    params = cert.params if isinstance(cert.params, dict) else {}
    instance_match = params.get("instance_sha256") == digest.hexdigest()
    global_report = {
        "edge_disjoint": edge_disjoint,
        "instance_match": instance_match,
        "slot_failures": failures,
        "coverage_fraction": round(coverage, 6),
        "all_ok": edge_disjoint and instance_match and not failures,
    }
    return {"slots": slot_reports, "global": global_report}


def ref_is_path_system(g) -> bool:
    g = _frozen(g)
    if not g.is_simple():
        return False
    adj = g._adjacency()
    if any(sum(r.values()) > 2 for r in adj.values()):
        return False
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
            return False
    return True


def ref_paths(g) -> list[list[int]]:
    g = _frozen(g)
    if not ref_is_path_system(g):
        raise MalformedInput("not a path system")
    adj = g._adjacency()
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


def ref_is_path_sequence(d: Digraph) -> bool:
    if any(len(s) > 1 for s in d._out.values()):
        return False
    if any(len(s) > 1 for s in d._in.values()):
        return False
    starts = [v for v in d._out if not d._in.get(v)]
    reached = set()
    for s in starts:
        cur = s
        while cur in d._out and d._out[cur]:
            reached.add(cur)
            cur = next(iter(d._out[cur]))
        reached.add(cur)
    return all(v in reached for v in d._out)


def ref_directed_paths(d: Digraph) -> list[list[int]]:
    if not ref_is_path_sequence(d):
        raise MalformedInput("not a path sequence")
    out = []
    for s in sorted(v for v in d._out if not d._in.get(v)):
        path = [s]
        cur = s
        while d._out.get(cur):
            cur = next(iter(d._out[cur]))
            path.append(cur)
        out.append(path)
    return out


def ref_cycle_count(succ: list[int], verts: list[int]) -> list[list[int]]:
    seen: set[int] = set()
    cycles = []
    for v in verts:
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        cur = succ[v]
        while cur != v:
            if cur < 0 or cur in seen:
                raise MalformedInput(f"not a 1-factor at vertex {cyc[-1]}")
            cyc.append(cur)
            seen.add(cur)
            cur = succ[cur]
        cycles.append(cyc)
    return cycles


def ref_hamilton_order(succ: list[int], verts: list[int]) -> list[int] | None:
    if not verts:
        return None
    order = [verts[0]]
    cur = succ[verts[0]]
    while cur != verts[0]:
        if cur < 0 or len(order) == len(verts):
            return None
        order.append(cur)
        cur = succ[cur]
    return order if len(order) == len(verts) else None


def ref_directed_cycle_order(d: Digraph, vs: set) -> list[int] | None:
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


def ref_visits_in_order(order, targets) -> bool:
    if not targets:
        return True
    pos = {v: i for i, v in enumerate(order)}
    base = pos[targets[0]]
    rel = [(pos[t] - base) % len(order) for t in targets]
    return all(a < b for a, b in zip(rel, rel[1:]))


def ref_is_consistent_with(cycle: Digraph, matching) -> bool:
    order = ref_directed_cycle_order(cycle, cycle.vertices_with_arcs())
    if order is None:
        raise MalformedInput("not a directed Hamilton cycle on the given set")
    for (u, v) in matching.arcs:
        if (u, v) not in cycle._arcs:
            return False
    return ref_visits_in_order(order, [u for (u, _v) in matching.arcs])


def ref_check_input_cycle(cycle: Digraph, vertices: set[int], matching,
                          name: str) -> None:
    if cycle.vertices_with_arcs() != vertices:
        raise NotConsistent(f"{name} has arcs off its vertex set or misses "
                            f"one of its vertices")
    try:
        consistent = ref_is_consistent_with(cycle, matching)
    except MalformedInput:
        raise NotConsistent(f"{name} is not a directed Hamilton cycle") \
            from None
    if not consistent:
        raise NotConsistent(f"{name} is not consistent with its ordered "
                            f"matching")


# -- the multigraph on its key arrays ----------------------------------------


@st.composite
def multigraph_cases(draw):
    """(n, edges): n in 0..7 and up to 8 edges on it, as pairs and as
    triples of multiplicity 1-3, repeats allowed; empty when n < 2."""
    n = draw(st.integers(0, 7))
    if n < 2:
        return n, []
    ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                    unique=True)
    edge = ends.map(tuple) | st.tuples(ends, st.integers(1, 3)).map(
        lambda e: (*e[0], e[1]))
    return n, draw(st.lists(edge, max_size=8))


@st.composite
def multigraph_pairs(draw):
    """Two (n, edges) cases and a vertex set that may name vertices
    outside 0..n-1.  The second case is sometimes the first's edges
    written otherwise (in reverse, ends swapped, each as a triple) on the
    same or one more vertex."""
    first = draw(multigraph_cases())
    if draw(st.booleans()):
        n, edges = first
        second = (n + draw(st.integers(0, 1)),
                  [(e[1], e[0], e[2] if len(e) == 3 else 1)
                   for e in reversed(edges)])
    else:
        second = draw(multigraph_cases())
    return first, second, draw(st.sets(st.integers(-2, 9)))


def _assert_same_multigraph(g: Multigraph, ref: RefMultigraph) -> None:
    """Every reader of g gives what the reference's gives, in its order."""
    assert g.n == ref.n
    assert list(g.support()) == list(ref.support())
    assert list(g.edges()) == list(ref.edges())
    assert g.edge_count() == ref.edge_count()
    # the reference lists these in the order the edges first came
    pairs = list(zip(*(a.tolist() for a in g.edge_arrays())))
    assert pairs == sorted(zip(*(a.tolist() for a in ref.edge_arrays())))
    vertices = range(-1, g.n + 2)
    assert [g.degree(v) for v in vertices] == [ref.degree(v) for v in vertices]
    assert g.covered_vertices() == ref.covered_vertices()
    assert g.is_simple() is ref.is_simple()
    assert g.is_matching() is ref.is_matching()
    assert g.is_path_system() is ref.is_path_system()
    assert _outcome(Multigraph.paths, g) == _outcome(RefMultigraph.paths, ref)


MALFORMED_EDGES = ("loop", "outside", "multiplicity", "one-entry",
                   "four-entries")


@st.composite
def malformed_edge_lists(draw):
    """(n, edges, kind): a valid edge list with one edge of a
    MALFORMED_EDGES kind put among its edges."""
    n, edges = draw(multigraph_cases())
    vertex = st.integers(0, max(n - 1, 0))
    kind = draw(st.sampled_from(MALFORMED_EDGES))
    if kind == "loop":
        u = draw(vertex)
        bad = draw(st.sampled_from([(u, u), (u, u, 2)]))
    elif kind == "outside":
        end = draw(st.sampled_from([-1, n, n + 2, 2 ** 70, -2 ** 70]))
        bad = (draw(vertex), end)[::draw(st.sampled_from([1, -1]))]
    elif kind == "multiplicity":
        bad = (0, 1, draw(st.integers(-2, 0)))
    elif kind == "one-entry":
        bad = (draw(vertex),)
    else:
        bad = (0, 1, 1, 1)
    edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges, kind


class TestMultigraphMatchesReference:
    @given(multigraph_pairs())
    @settings(max_examples=400, deadline=None)
    def test_every_method(self, case):
        (n, edges), (n2, edges2), vertices = case
        g, h = Multigraph(n, edges), Multigraph(n2, edges2)
        ref_g, ref_h = RefMultigraph(n, edges), RefMultigraph(n2, edges2)
        for new, ref in ((g, ref_g), (h, ref_h), (g + h, ref_g + ref_h),
                         (h + g, ref_h + ref_g), (g - h, ref_g - ref_h),
                         (h - g, ref_h - ref_g),
                         (g.restrict(vertices), ref_g.restrict(vertices))):
            _assert_same_multigraph(new, ref)
        # g <= h as multigraphs iff g - h is empty
        assert ((g - h).edge_count() == 0) is ref_g.is_submultigraph_of(ref_h)
        assert ((h - g).edge_count() == 0) is ref_h.is_submultigraph_of(ref_g)
        assert (g == h) is (ref_g == ref_h)

    @given(malformed_edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_malformed_edges(self, case):
        n, edges, kind = case
        with pytest.raises(MalformedInput):
            Multigraph(n, edges)
        # the reference unpacks an edge of 1 or 4 entries into (u, v, k)
        with pytest.raises(ValueError if kind in ("one-entry", "four-entries")
                           else MalformedInput):
            RefMultigraph(n, edges)

    def test_subtraction_keys_on_both_vertex_counts(self):
        # keyed on self.n = 3, the edge (0, 5) of the 6-vertex graph
        # would share the key 0 * 3 + 5 = 1 * 3 + 2 with (1, 2)
        g = Multigraph(3, [(1, 2)])
        h = Multigraph(6, [(0, 5)])
        assert list((g - h).edges()) == [(1, 2, 1)]
        assert (g - h).n == 3 and (h - g).n == 6
        assert (g - h).edge_count() == 1


# -- the cycle kernel ---------------------------------------------------------


@st.composite
def cycle_instances(draw, directed: bool):
    """A graph on n <= 9 vertices and a vertex set: zero, one or two
    disjoint cycles on parts of the set (a 2-vertex undirected cycle is a
    double edge), plus extra edges that may leave the set, and a set that
    may name isolated or out-of-range vertices."""
    n = draw(st.integers(2, 9))
    perm = draw(st.permutations(range(n)))
    size = draw(st.integers(0, n))
    vs = list(perm[:size])
    edges = []
    cuts = draw(st.sampled_from([(), (0,), (0, 2), (0, 3)]))
    bounds = [c for c in cuts if c < size] + [size]
    for lo, hi in zip(bounds, bounds[1:]):
        part = vs[lo:hi]
        if len(part) >= 2:
            edges += list(zip(part, part[1:] + part[:1]))
    if edges and draw(st.booleans()):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [e for e in draw(st.lists(pairs, max_size=3)) if e[0] != e[1]]
    vset = set(vs) | set(draw(st.lists(st.integers(0, n + 1), max_size=2)))
    if directed:
        g = Digraph(n, list(dict.fromkeys(edges)))
    else:
        g = Multigraph(n, edges)
    return g, vset


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MalformedInput:
        return "raised"


class TestCycleKernelMatchesReference:
    @given(cycle_instances(directed=False))
    @settings(max_examples=300, deadline=None)
    def test_undirected(self, case):
        g, vs = case
        assert verify_hamilton_cycle(g, vs) is ref_verify_hamilton_cycle(g, vs)
        assert _edge_lists(_outcome(cycle_to_perfect_matchings, g, vs)) == \
            _edge_lists(_outcome(ref_cycle_to_perfect_matchings, g, vs))

    @given(cycle_instances(directed=True))
    @settings(max_examples=300, deadline=None)
    def test_directed(self, case):
        g, vs = case
        assert verify_hamilton_cycle(g, vs) is ref_verify_hamilton_cycle(g, vs)
        assert _outcome(cycle_vertex_order, g, vs) == \
            _outcome(ref_cycle_vertex_order, g, vs)

    @pytest.mark.parametrize("edges,vs,expected", [
        ([(0, 1, 2)], {0, 1}, True),               # double edge, 2 vertices
        ([(0, 1)], {0, 1}, False),
        ([(0, 1), (1, 2), (2, 0), (3, 4, 2)], {0, 1, 2, 3, 4}, False),
        ([(0, 1), (1, 2), (2, 0)], {0, 1, 2, 3}, False),   # isolated 3
        ([(0, 1), (1, 2), (2, 0)], {0, 1, 2, 7}, False),   # 7 not a vertex
        ([(0, 1), (1, 2), (2, 0)], set(), False),
    ])
    def test_named_cases(self, edges, vs, expected):
        g = Multigraph(5, edges)
        assert verify_hamilton_cycle(g, vs) is expected
        assert ref_verify_hamilton_cycle(g, vs) is expected


# -- the splices' input check -------------------------------------------------


ORDER_MUTATIONS = ("none", "repeat", "drop", "foreign", "reverse-arc",
                   "swap-arcs", "truncate")


@st.composite
def input_cycle_cases(draw):
    """(n, side, matching, order): a side inside 0..n-1 (possibly empty,
    often all of it), an ordered matching on it (often a perfect one), and a vertex order of the side, either
    random or laid out consistent with the matching (the arcs in order,
    the other vertices between them, then rotated), under one mutation:
    a repeated vertex, a dropped one, a vertex off the side (perhaps
    outside 0..n-1), a reversed matching arc, two matching arcs swapped
    (out of cyclic order from three arcs on), or a cut to length 0-2."""
    n = draw(st.integers(1, 10))
    side = list(range(n)) if draw(st.booleans()) \
        else sorted(draw(st.sets(st.integers(0, n - 1))))
    perm = draw(st.permutations(side))
    k = draw(st.sampled_from([len(side) // 2,
                              draw(st.integers(0, len(side) // 2))]))
    arcs = list(zip(perm[0:2 * k:2], perm[1:2 * k:2]))
    if draw(st.booleans()):
        gaps = [[] for _ in range(k + 1)]
        for x in perm[2 * k:]:
            gaps[draw(st.integers(0, k))].append(x)
        order = gaps[0] + [x for arc, gap in zip(arcs, gaps[1:])
                           for x in (*arc, *gap)]
        turn = draw(st.integers(0, max(len(order) - 1, 0)))
        order = order[turn:] + order[:turn]
    else:
        order = list(draw(st.permutations(side)))
    op = draw(st.sampled_from(ORDER_MUTATIONS))
    index = st.integers(0, max(len(order) - 1, 0))
    if op == "repeat" and order:
        order.insert(draw(index), order[draw(index)])
    elif op == "drop" and order:
        del order[draw(index)]
    elif op == "foreign":
        off = draw(st.sampled_from(
            [v for v in range(n + 2) if v not in side]))
        order.insert(draw(st.integers(0, len(order))), off)
    elif op == "reverse-arc" and arcs:
        u, v = arcs[draw(st.integers(0, k - 1))]
        i, j = order.index(u), order.index(v)
        order[i], order[j] = v, u
    elif op == "swap-arcs" and k >= 2:
        a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                             unique=True))
        swap = dict(zip(arcs[a] + arcs[b], arcs[b] + arcs[a]))
        order = [swap.get(x, x) for x in order]
    elif op == "truncate":
        order = order[:draw(st.integers(0, 2))]
    return n, set(side), OrderedDirectedMatching(tuple(arcs)), order


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except NotConsistent:
        return False
    return True


def _ref_accepts_order(n, side, matching, order) -> bool:
    """The reference check on the order's Digraph; an order that has no
    Digraph (a loop, a repeated arc, a vertex outside 0..n-1) is
    rejected."""
    try:
        d = Digraph(n, zip(order, order[1:] + order[:1]))
    except MalformedInput:
        return False
    return _accepts(ref_check_input_cycle, d, side, matching, "C")


class TestInputCheckMatchesReference:
    @given(input_cycle_cases())
    @settings(max_examples=600, deadline=None)
    def test_order_check(self, case):
        n, side, matching, order = case
        # any exception other than NotConsistent fails the test
        assert _accepts(_check_input_cycle, order, side, matching, "C") is \
            _ref_accepts_order(n, side, matching, order)

    @given(input_cycle_cases())
    @settings(max_examples=300, deadline=None)
    def test_is_consistent_with(self, case):
        n, _side, matching, order = case
        try:
            d = Digraph(n, zip(order, order[1:] + order[:1]))
        except MalformedInput:
            return
        assert _outcome(is_consistent_with, d, matching) == \
            _outcome(ref_is_consistent_with, d, matching)

    @pytest.mark.parametrize("order,side,arcs,accepted", [
        ([], set(), (), False),
        ([], {0, 1}, (), False),
        ([0], {0}, (), False),               # a loop: no cycle, no Digraph
        ([0, 1], {0, 1}, (), True),          # a 2-cycle
        ([0, 1], {0, 1}, ((1, 0),), True),
        ([0, 1, 2], {0, 1, 2}, ((2, 0),), True),
        ([0, 1, 2], {0, 1, 2}, ((0, 2),), False),
        ([0, 1, 2, 3, 4, 5], set(range(6)), ((0, 1), (2, 3), (4, 5)), True),
        ([0, 1, 4, 5, 2, 3], set(range(6)), ((0, 1), (2, 3), (4, 5)), False),
    ])
    def test_named_cases(self, order, side, arcs, accepted):
        matching = OrderedDirectedMatching(arcs)
        assert _accepts(_check_input_cycle, order, side, matching,
                        "C") is accepted
        assert _ref_accepts_order(6, side, matching, order) is accepted


# -- the splices on arrays ---------------------------------------------------

# frozen copies of the splices that summed Multigraphs edge by edge


def ref_cycle_edges(order):
    return zip(order, chain(order[1:], order[:1]))


def ref_splice_two_cliques(c_a, c_b, system, reduction) -> RefMultigraph:
    P = system.partition
    _check_input_cycle(c_a, set(P.A), reduction.ja_dir, "C_A")
    _check_input_cycle(c_b, set(P.B), reduction.jb_dir, "C_B")
    jstar = RefMultigraph(P.n, reduction.ja_dir.arcs + reduction.jb_dir.arcs)
    result = (RefMultigraph(P.n, chain(ref_cycle_edges(c_a),
                                       ref_cycle_edges(c_b)))
              - jstar + _frozen(system.graph))
    a_pr, b_pr = P.A_prime, P.B_prime
    if system.kind == KIND_HES:
        ok = ref_verify_hamilton_cycle(result, a_pr + b_pr)
    else:
        ok = (ref_verify_hamilton_cycle(result, a_pr)
              and ref_verify_hamilton_cycle(result, b_pr)
              and result.edges_between(a_pr, b_pr) == 0)
    if not ok:
        raise SpliceVerificationFailed(
            f"splice output failed {system.kind} verification")
    return result


def ref_splice_bipartite(d, system, reduction) -> RefMultigraph:
    P = system.partition
    _check_input_cycle(d, set(P.A) | set(P.B), reduction.jstar_dir, "D")
    result = RefMultigraph(P.n, ref_cycle_edges(d)) \
        - RefMultigraph(P.n, reduction.jstar_dir.arcs) \
        + _frozen(system.graph)
    if not ref_verify_hamilton_cycle(result, P.vertices()):
        raise SpliceVerificationFailed("splice output is not a Hamilton "
                                       "cycle on V")
    return result


def _consistent_order(draw, side, arcs) -> list[int]:
    """A vertex order of ``side`` that the ordered ``arcs`` are consistent
    with: the arcs in their order, the other vertices spread over the gaps
    between them, then rotated."""
    on_arcs = {v for arc in arcs for v in arc}
    gaps = [[] for _ in range(len(arcs) + 1)]
    for x in draw(st.permutations([v for v in side if v not in on_arcs])):
        gaps[draw(st.integers(0, len(arcs)))].append(x)
    order = gaps[0] + [x for arc, gap in zip(arcs, gaps[1:])
                       for x in (*arc, *gap)]
    turn = draw(st.integers(0, len(order) - 1))
    return order[turn:] + order[:turn]


def _spliced_partition(draw, ctor, a0_size, b0_size, need):
    """A partition by ``ctor`` with 1 or 2 clusters a side, each of at
    least ``need`` vertices, and vertex ids 0..n-1."""
    k = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(need, need + 3))
    base = a0_size + b0_size
    a = [list(range(base + i * m, base + (i + 1) * m)) for i in range(k)]
    b = [list(range(base + (k + i) * m, base + (k + i + 1) * m))
         for i in range(k)]
    return ctor(list(range(a0_size)), a, list(range(a0_size, base)), b,
                None)


def _order_mutation(draw, order, others) -> list[int]:
    """The order as drawn, or (less often) with two vertices swapped,
    reversed, or with a vertex of ``others`` in place of one of its
    own."""
    op = draw(st.sampled_from(["none", "none", "none", "swap", "reverse",
                               "foreign"]))
    order = list(order)
    if op == "swap" and len(order) > 2:
        i, j = draw(st.lists(st.integers(0, len(order) - 1), min_size=2,
                             max_size=2, unique=True))
        order[i], order[j] = order[j], order[i]
    elif op == "reverse":
        order.reverse()
    elif op == "foreign" and others:
        order[draw(st.integers(0, len(order) - 1))] = \
            draw(st.sampled_from(others))
    return order


@st.composite
def two_cliques_systems(draw):
    """A two-cliques exceptional system with 0-2 vertices in each of A0
    and B0, each on a path between two fresh vertices of its side; an HES
    adds 2 or 4 AB-edges, and an MES may be empty."""
    a0, b0 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    cross = draw(st.sampled_from([0, 2, 4]))
    P = _spliced_partition(draw, ClusterPartition.two_cliques, a0, b0,
                           max(1, 2 * a0 + cross, 2 * b0 + cross))
    pool_a = list(draw(st.permutations(P.A)))
    pool_b = list(draw(st.permutations(P.B)))
    edges = []
    for v0, pool in chain(((v, pool_a) for v in P.a0),
                          ((v, pool_b) for v in P.b0)):
        edges += [(pool.pop(), v0), (v0, pool.pop())]
    edges += [(pool_a.pop(), pool_b.pop()) for _ in range(cross)]
    return ExceptionalSystem(P, Multigraph(P.n, edges))


@st.composite
def two_cliques_splices(draw):
    """(c_a, c_b, system, reduction): a system of ``two_cliques_systems``.
    C_A and C_B are drawn consistent with J*_A and J*_B, and then perhaps
    mutated; and the system may claim the other kind.  A side of one
    vertex has no cycle."""
    system = draw(two_cliques_systems())
    P = system.partition
    reduction = build_fictive_two_cliques(system)
    if draw(st.integers(0, 5)) == 0:
        system.kind = KIND_MES if system.kind == KIND_HES else KIND_HES
    c_a = _order_mutation(draw, _consistent_order(
        draw, P.A, reduction.ja_dir.arcs), P.B + P.V0)
    c_b = _order_mutation(draw, _consistent_order(
        draw, P.B, reduction.jb_dir.arcs), P.A + P.V0)
    return c_a, c_b, system, reduction


@st.composite
def bipartite_systems(draw):
    """A balanced exceptional system localized at (0, 0, 0, 0), with 0-2
    vertices in each of A0 and B0, as many in both, each on a path between
    two fresh vertices of its side, and 0-2 A-edges with as many B-edges;
    possibly empty, and a side may be one vertex."""
    v0 = draw(st.integers(0, 2))
    inner = draw(st.integers(0, 2))
    P = _spliced_partition(draw, ClusterPartition.bipartite, v0, v0,
                           max(1, 2 * v0 + 2 * inner))
    pool_a = list(draw(st.permutations(P.a_cluster(0))))
    pool_b = list(draw(st.permutations(P.b_cluster(0))))
    edges = []
    for v, pool in chain(((v, pool_a) for v in P.a0),
                         ((v, pool_b) for v in P.b0)):
        edges += [(pool.pop(), v), (v, pool.pop())]
    for _ in range(inner):
        edges += [(pool_a.pop(), pool_a.pop()), (pool_b.pop(), pool_b.pop())]
    return BalancedExceptionalSystem(P, Multigraph(P.n, edges),
                                     locality=(0, 0, 0, 0))


@st.composite
def bipartite_splices(draw):
    """(d, system, reduction): a system of ``bipartite_systems``.  D is
    drawn consistent with J*, and then perhaps mutated."""
    system = draw(bipartite_systems())
    P = system.partition
    reduction = build_fictive_bipartite(system)
    d = _order_mutation(draw, _consistent_order(
        draw, P.A + P.B, reduction.jstar_dir.arcs), P.V0)
    return d, system, reduction


@st.composite
def splice_sums(draw):
    """(orders, cut, system) with only what ``_spliced`` reads: 1 or 2
    vertex-disjoint orders of at least 2 vertices on 0..n-1, J* as a list
    of arcs in which an arc may repeat up to 3 times, and J as a random
    multigraph with multiplicities up to 3, so that J* may hold edges off
    the cycles or more copies than they have."""
    n = draw(st.integers(2, 9))
    perm = draw(st.permutations(range(n)))
    split = draw(st.sampled_from([n] + list(range(2, n - 1))))
    orders = [perm[:split]] + ([perm[split:]] if split < n else [])
    arcs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) \
        .filter(lambda e: e[0] != e[1])
    cycle_arcs = [e for order in orders for e in ref_cycle_edges(order)]
    some_arc = arcs | st.sampled_from(cycle_arcs)
    cut = [arc for arc, k in draw(st.lists(
        st.tuples(some_arc, st.integers(1, 3)), max_size=5))
        for _ in range(k)]
    graph = Multigraph(n, draw(st.lists(
        st.tuples(some_arc, st.integers(1, 3)).map(lambda e: (*e[0], e[1])),
        max_size=5)))
    system = types.SimpleNamespace(partition=types.SimpleNamespace(n=n),
                                   graph=graph)
    return orders, cut, system


def _splice_outcome(splice, *args):
    try:
        return splice(*args)
    except HamdecError as exc:
        return type(exc).__name__


def _assert_same_splice(out, ref) -> None:
    # the key arrays list the edges sorted, as _decompose reads them
    assert isinstance(out, Multigraph) is isinstance(ref, RefMultigraph)
    assert _edge_lists(out) == _edge_lists(ref)


class TestSpliceMatchesReference:
    @given(two_cliques_splices())
    @settings(max_examples=150, deadline=None)
    def test_two_cliques(self, case):
        _assert_same_splice(_splice_outcome(splice_two_cliques, *case),
                            _splice_outcome(ref_splice_two_cliques, *case))

    @given(bipartite_splices())
    @settings(max_examples=100, deadline=None)
    def test_bipartite(self, case):
        _assert_same_splice(_splice_outcome(splice_bipartite, *case),
                            _splice_outcome(ref_splice_bipartite, *case))

    @given(splice_sums())
    @settings(max_examples=150, deadline=None)
    def test_multiset_sum(self, case):
        orders, cut, system = case
        n = system.partition.n
        ref = RefMultigraph(n, chain.from_iterable(
            ref_cycle_edges(order) for order in orders)) \
            - RefMultigraph(n, cut) + _frozen(system.graph)
        _assert_same_splice(_spliced(orders, cut, system), ref)

    @pytest.mark.parametrize("mode,a,b,orders,expected", [
        # empty systems on 2-vertex sides: each cycle is a double edge
        ("two-cliques", [0, 1], [2, 3], ([0, 1], [2, 3]), Multigraph),
        ("bipartite", [0], [1], ([0, 1],), Multigraph),
        # a partition vertex past n cannot be an edge end
        ("two-cliques", [0, 1], [2, 9], ([0, 1], [2, 9]), "MalformedInput"),
        ("two-cliques", [0, 1], [2, 3], ([0, 1], [2]), "NotConsistent"),
    ])
    def test_named_cases(self, mode, a, b, orders, expected):
        if mode == "two-cliques":
            P = ClusterPartition.two_cliques([], [a], [], [b], None)
            system = ExceptionalSystem(P, Multigraph(P.n))
            splices = splice_two_cliques, ref_splice_two_cliques
            reduction = build_fictive_two_cliques(system)
        else:
            P = ClusterPartition.bipartite([], [a], [], [b], None)
            system = BalancedExceptionalSystem(P, Multigraph(P.n),
                                               locality=(0, 0, 0, 0))
            splices = splice_bipartite, ref_splice_bipartite
            reduction = build_fictive_bipartite(system)
        out, ref = (_splice_outcome(splice, *orders, system, reduction)
                    for splice in splices)
        _assert_same_splice(out, ref)
        assert (type(out) if expected is Multigraph else out) == expected


    def test_cross_edge_fails_a_matching_system(self):
        # no valid matching system has an A'B'-edge, so only a stand-in
        # can show that the cross-edge test still rejects one
        P = ClusterPartition.two_cliques([], [[0, 1, 2]], [], [[3, 4, 5]],
                                         None)
        system = types.SimpleNamespace(partition=P, kind=KIND_MES,
                                       graph=Multigraph(6, [(0, 3)]))
        none = OrderedDirectedMatching(())
        reduction = types.SimpleNamespace(ja_dir=none, jb_dir=none)
        for splice in (splice_two_cliques, ref_splice_two_cliques):
            with pytest.raises(SpliceVerificationFailed):
                splice([0, 1, 2], [3, 4, 5], system, reduction)


# -- the fictive reductions on ordered matchings ------------------------------

# frozen copies of the builders that also built J*_AB, J*_A, J*_B and J* as
# multigraphs, on RefMultigraph


def ref_induce_jab(system) -> RefMultigraph:
    jab = RefMultigraph(system.partition.n,
                        [(path[0], path[-1]) for path in system.paths])
    if not jab.is_matching():
        raise InvalidExceptionalSystem("induced endpoint graph is not a "
                                       "matching (axiom violation upstream)")
    return jab


def ref_classify_jab(jab, partition):
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


def ref_count_ab_paths(system) -> int:
    a, b = set(system.partition.A), set(system.partition.B)
    count = 0
    for path in system.paths:
        ends = {path[0], path[-1]}
        if len(ends & a) == 1 and len(ends & b) == 1:
            count += 1
    return count


def ref_build_fictive_two_cliques(system):
    P = system.partition
    jab = ref_induce_jab(system)
    aa_edges, bb_edges, ab_edges = ref_classify_jab(jab, P)
    if len(ab_edges) % 2 != 0:
        raise InvalidExceptionalSystem(
            f"odd number of AB-connections ({len(ab_edges)})")
    ell = len(ab_edges) // 2
    xs = [x for (x, _y) in ab_edges]
    ys = [y for (_x, y) in ab_edges]
    ja_cross = [(xs[2 * i], xs[2 * i + 1]) for i in range(ell)]
    jb_cross = [(ys[(2 * i + 1) % (2 * ell)], ys[(2 * i + 2) % (2 * ell)])
                for i in range(ell)]
    ja = RefMultigraph(P.n, aa_edges + ja_cross)
    jb = RefMultigraph(P.n, bb_edges + jb_cross)
    jstar = ja + jb
    if not (ja.is_matching() and jb.is_matching() and jstar.is_matching()):
        raise InvalidExceptionalSystem("fictive graphs are not matchings")
    if jstar.edge_count() != jab.edge_count():
        raise InvalidExceptionalSystem("e(J*) != e(J*_AB)")
    ja_dir = OrderedDirectedMatching(tuple(ja_cross) + tuple(aa_edges))
    jb_dir = OrderedDirectedMatching(tuple(jb_cross) + tuple(bb_edges))
    return types.SimpleNamespace(jab=jab, jstar=jstar, ja=ja, jb=jb,
                                 ja_dir=ja_dir, jb_dir=jb_dir,
                                 jstar_dir=None)


def ref_build_fictive_bipartite(system):
    P = system.partition
    jab = ref_induce_jab(system)
    aa_edges, bb_edges, ab_edges = ref_classify_jab(jab, P)
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
    jstar = RefMultigraph(P.n, list(arcs))
    if not jstar.is_matching():
        raise InvalidExceptionalSystem("J* is not a matching")
    if jstar.edge_count() != jab.edge_count():
        raise InvalidExceptionalSystem("e(J*) != e(J*_AB)")
    return types.SimpleNamespace(jab=jab, jstar=jstar, ja_dir=None,
                                 jb_dir=None,
                                 jstar_dir=OrderedDirectedMatching(arcs))


class TestFictiveMatchesReference:
    @given(two_cliques_systems() | bipartite_systems())
    @settings(max_examples=200, deadline=None)
    def test_ordered_matchings(self, system):
        if isinstance(system, BalancedExceptionalSystem):
            builders = build_fictive_bipartite, ref_build_fictive_bipartite
        else:
            builders = build_fictive_two_cliques, ref_build_fictive_two_cliques
            assert system.count_ab_paths() == ref_count_ab_paths(system)
        red, ref = (build(system) for build in builders)
        assert (red.ja_dir, red.jb_dir, red.jstar_dir) \
            == (ref.ja_dir, ref.jb_dir, ref.jstar_dir)
        arcs = [arc for matching in (red.ja_dir, red.jb_dir, red.jstar_dir)
                if matching is not None for arc in matching.arcs]
        assert RefMultigraph(system.partition.n, arcs) == ref.jstar


# -- the structure walkers ---------------------------------------------------


@st.composite
def path_instances(draw, directed: bool):
    """A graph on n <= 9 vertices: disjoint parts, each a path, a cycle
    or bare, plus up to two random edges.  So path systems, a cycle beside
    paths, 2-cycles (a doubled edge, or two opposite arcs), doubled edges
    and degree-3 vertices all occur."""
    n = draw(st.integers(2, 9))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        part = perm[lo:hi]
        shape = draw(st.sampled_from(["path", "cycle", "bare"]))
        if shape != "bare" and len(part) >= 2:
            edges += list(zip(part, part[1:]))
            if shape == "cycle":
                edges.append((part[-1], part[0]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [e for e in draw(st.lists(pairs, max_size=2)) if e[0] != e[1]]
    if directed:
        return Digraph(n, list(dict.fromkeys(edges)))
    return Multigraph(n, edges)


@st.composite
def successor_arrays(draw):
    """A successor array on n <= 9 vertices and the sorted vertex list
    that the assembly walks: one cycle or a random permutation on a
    subset, up to two entries redirected to any vertex or to -1 (off the
    array), and the support, sometimes with vertices off the array."""
    n = draw(st.integers(1, 9))
    on = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    heads = on[1:] + on[:1] if draw(st.booleans()) \
        else draw(st.permutations(on))
    succ = [-1] * n
    for v, w in zip(on, heads):
        succ[v] = w
    redirect = st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1))
    for v, w in draw(st.lists(redirect, max_size=2)):
        succ[v] = w
    verts = {v for v in range(n) if succ[v] >= 0}
    verts |= set(draw(st.lists(st.integers(0, n - 1), max_size=1)))
    return succ, sorted(verts)


class TestWalkersMatchReference:
    @given(path_instances(directed=False))
    @settings(max_examples=300, deadline=None)
    def test_path_system(self, g):
        assert g.is_path_system() is ref_is_path_system(g)
        assert _outcome(Multigraph.paths, g) == _outcome(ref_paths, g)

    @given(path_instances(directed=True))
    @settings(max_examples=300, deadline=None)
    def test_path_sequence(self, d):
        assert d.is_path_sequence() is ref_is_path_sequence(d)
        assert _outcome(Digraph.directed_paths, d) == \
            _outcome(ref_directed_paths, d)

    @given(path_instances(directed=True).filter(
        lambda d: all(len(heads) <= 1 for heads in d._out.values())))
    @settings(max_examples=300, deadline=None)
    def test_successor_map_paths(self, d):
        # the pipeline's container: arcs with out-degree at most 1
        ps = PathSequence.from_arcs(d.n, d.arcs())
        assert _outcome(PathSequence.paths, ps) == \
            _outcome(ref_directed_paths, d)

    @given(successor_arrays())
    @settings(max_examples=300, deadline=None)
    def test_cycles(self, case):
        succ, verts = case
        cycles = successor_cycles(succ, verts)
        # a dict of the same entries walks alike
        assert successor_cycles(dict(enumerate(succ)), verts) == cycles
        assert _outcome(ref_cycle_count, succ, verts) == \
            ("raised" if cycles is None else cycles)
        single = cycles[0] if cycles is not None and len(cycles) == 1 \
            else None
        assert single == ref_hamilton_order(succ, verts)

    @pytest.mark.parametrize("edges,paths", [
        ([(0, 1), (1, 2), (4, 5)], [[0, 1, 2], [4, 5]]),
        ([(0, 1), (1, 2), (2, 0), (3, 4)], None),   # cycle beside a path
        ([(0, 1, 2)], None),                         # doubled edge
        ([(0, 1), (1, 2), (1, 3)], None),            # degree 3
        ([], []),
    ])
    def test_named_path_systems(self, edges, paths):
        g = Multigraph(6, edges)
        expected = "raised" if paths is None else paths
        assert _outcome(Multigraph.paths, g) == expected
        assert _outcome(ref_paths, g) == expected


# -- the verifier ---------------------------------------------------------------


VERIFIER_CONFIGS = {
    # HES and MES slots, |A'| and |B'| even, so matching_pair is checked
    "two-cliques-mixed": InstanceConfig(
        mode="two-cliques", K=3, m=24, a0_size=2, b0_size=2, eps0=0.03,
        mu=0.0, rho=0.1, gamma=0.18, hes_count=4, mes_count=5, seed=3),
    "bipartite": InstanceConfig(
        mode="bipartite", K=4, m=32, a0_size=1, b0_size=1, eps0=0.02,
        mu=0.0, rho=0.1, gamma=0.12, hes_count=0, bes_count=8, seed=9),
}


@pytest.fixture(scope="module", params=sorted(VERIFIER_CONFIGS))
def certified(request, tmp_path_factory):
    """The instance and certificate of a config, the slots' edge lists
    of the certificate of another instance of the same config, and the
    path of an instance file of the first instance."""
    certs = []
    for seed in (VERIFIER_CONFIGS[request.param].seed,
                 VERIFIER_CONFIGS[request.param].seed + 1):
        cfg = dataclasses.replace(VERIFIER_CONFIGS[request.param], seed=seed)
        host, P, systems = generate_instance(cfg)
        decompose = (approx_decompose_bipartite if cfg.mode == "bipartite"
                     else approx_decompose_two_cliques)
        cert = decompose(host, P, systems, cfg.mu, cfg.rho, cfg.gamma,
                         seed=cfg.seed)
        certs.append((host, P, systems, json.loads(cert.to_json())))
    foreign = [slot["edges"] for slot in certs[1][3]["slots"]]
    instance = tmp_path_factory.mktemp(request.param) / "instance.json"
    _dump_instance(str(instance), VERIFIER_CONFIGS[request.param],
                   *certs[0][:3])
    return (*certs[0], foreign, instance)


def _retyped(n: int, v: int) -> list:
    """Values that no vertex of an n-vertex host can be, for a vertex v:
    other JSON types, numbers equal to v, and ints out of range."""
    return [True, 1.0, float(v), "1", str(v), None, -1, n, 2 ** 70, [v]]


def _mutate(obj: dict, op: str, data, n: int, foreign: list) -> bool:
    """Apply the mutation ``op`` to a random slot; True when it certainly
    fails the certificate: a vertex or an edge of another type, an edge
    that is no pair of distinct vertices, an emptied edge list, edges
    moved to another slot, or a slot's edges replaced by the edges of a
    slot of ``foreign``, a certificate of another instance."""
    slots = obj["slots"]
    if not slots:
        return False
    k = data.draw(st.integers(0, len(slots) - 1))
    slot = slots[k]
    edges = slot["edges"]
    pair = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    # the type-level mutations need an edge list of pairs to work on
    pairs = isinstance(edges, list) and bool(edges) and all(
        isinstance(e, list) and len(e) == 2 for e in edges)
    i = data.draw(st.integers(0, len(edges) - 1)) if pairs else 0
    invalid = False
    if op in ("retype-vertex", "retype-edge") and pairs:
        j = data.draw(st.integers(0, 1))
        value = data.draw(st.sampled_from(_retyped(n, edges[i][j])))
        if op == "retype-vertex":
            edges[i][j] = value
        else:
            edges[i] = value
        invalid = True
    elif op == "short-edge" and pairs:
        edges[i] = edges[i][:1]
        invalid = True
    elif op == "loop-edge" and pairs:
        edges[i] = [edges[i][0]] * 2
        invalid = True
    elif op == "empty-edges":
        edges = slot["edges"] = data.draw(st.sampled_from([[], "", {}]))
        invalid = True
    elif op == "move-edges" and pairs and len(slots) > 1:
        other = slots[(k + data.draw(st.integers(1, len(slots) - 1)))
                      % len(slots)]
        if isinstance(other["edges"], list):
            count = data.draw(st.integers(1, min(3, len(edges))))
            other["edges"] += edges[:count]
            del edges[:count]
            invalid = True
    elif op == "foreign-cycle":
        edges = slot["edges"] = copy.deepcopy(
            data.draw(st.sampled_from(foreign)))
        invalid = True
    if op == "drop-slot":
        slots.pop(k)
    elif op == "duplicate-slot":
        slots.append(copy.deepcopy(slot))
    elif op == "reindex-slot":
        slot["es_index"] = data.draw(st.integers(-1, len(slots)))
    elif op == "add-edge" and isinstance(edges, list):
        # either a random pair (maybe a loop or a host non-edge) or an
        # edge of another slot
        other = slots[data.draw(st.integers(0, len(slots) - 1))]["edges"]
        edges.append(list(pair) if data.draw(st.booleans()) or not other
                     else copy.deepcopy(data.draw(st.sampled_from(other))))
    elif op == "remove-edge" and isinstance(edges, list) and edges:
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    elif op == "swap-edge" and isinstance(edges, list) and edges:
        edges[data.draw(st.integers(0, len(edges) - 1))] = list(pair)
    elif op == "flip-kind":
        slot["kind"] = data.draw(st.sampled_from(["HES", "MES", "BES"]))
    elif op == "drop-hash":
        slot.pop("edges_sha256", None)
    if "edges_sha256" in slot and data.draw(st.booleans()):
        slot["edges_sha256"] = ref_edge_hash(edges)
    return invalid


class _Scripted:
    """A stand-in for hypothesis' ``data`` that returns the given draws
    in turn, so that a draw sequence replays as a named case."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def draw(self, _strategy):
        return self.draws.pop(0)


# triples are left out: the reference reads them differently on purpose
MUTATIONS = ["drop-slot", "duplicate-slot", "reindex-slot", "add-edge",
             "remove-edge", "swap-edge", "flip-kind", "drop-hash",
             "retype-vertex", "retype-edge", "short-edge", "loop-edge",
             "empty-edges", "move-edges", "foreign-cycle"]


def _assert_plain_types(report: dict) -> None:
    """Verdicts are Python bools and the fraction a Python float, so the
    report embeds into certificate JSON as it did."""
    for verdicts in report["slots"]:
        assert all(type(v) is bool for v in verdicts.values())
    g = report["global"]
    assert type(g["edge_disjoint"]) is bool and type(g["all_ok"]) is bool
    assert type(g["instance_match"]) is bool
    assert type(g["coverage_fraction"]) is float
    assert all(type(idx) is int for idx in g["slot_failures"])


def ref_read_slot_arrays(slot: dict, n: int):
    """The slot reader that scanned the edge list for types before the
    array conversion, frozen as it was when the verifier moved to one
    canonical text per slot."""
    try:
        kind, edges = slot["kind"], slot["edges"]
        if not set(map(len, edges)) <= {2}:
            return None
        flat = list(chain.from_iterable(edges))
    except (KeyError, TypeError):
        return None
    if not set(map(type, flat)) <= {int} or \
            (flat and not (0 <= min(flat) and max(flat) < n)):
        return None
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    if (lo == hi).any():
        return None
    return kind, lo, hi


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 12)
                | st.sampled_from([2 ** 63, 2 ** 70]) | st.floats()
                | st.text(alphabet="01[],", max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="ab1", max_size=2), inner,
                      max_size=2), max_leaves=8)


@st.composite
def slot_edge_lists(draw):
    """Edge lists as JSON gives them: any JSON value; lists of pairs of
    ints in and out of 0..9, loops included; or such lists with one
    entry, one edge or one vertex replaced by any JSON value."""
    ints = st.integers(-1, 10)
    pairs = st.lists(st.lists(ints, min_size=2, max_size=2), max_size=6)
    edges = draw(st.one_of(JSON_VALUES, pairs, pairs.filter(bool)))
    spot = draw(st.sampled_from(["none", "edge", "vertex"]))
    if isinstance(edges, list) and edges and spot != "none":
        i = draw(st.integers(0, len(edges) - 1))
        if spot == "edge":
            edges[i] = draw(JSON_VALUES)
        elif isinstance(edges[i], list) and edges[i]:
            edges[i][draw(st.integers(0, len(edges[i]) - 1))] = \
                draw(JSON_VALUES)
    return edges


class TestSlotReaderMatchesReference:
    @given(slot_edge_lists(), st.sampled_from(["kind", "edges", "none"]))
    @settings(max_examples=300, deadline=None)
    def test_reads_what_the_type_scan_read(self, edges, missing):
        slot = {"kind": "HES", "edges": edges}
        slot.pop(missing, None)
        new, ref = _read_slot(slot, 10), ref_read_slot_arrays(slot, 10)
        assert (new is None) == (ref is None)
        if ref is not None:
            assert new[0] == ref[0]
            assert new[1].tolist() == ref[1].tolist()
            assert new[2].tolist() == ref[2].tolist()
            assert new[3] == canonical_json(edges)


class TestVerifierMatchesReference:
    def test_valid_certificate(self, certified):
        host, P, systems, obj, _foreign, _instance = certified
        cert = DecompositionCertificate.from_json_obj(copy.deepcopy(obj))
        report = verify_certificate(host, P, systems, cert)
        assert report["global"]["all_ok"]
        assert report == ref_verify_certificate(host, P, systems, cert)
        _assert_plain_types(report)

    @pytest.mark.parametrize("certified", ["two-cliques-mixed"],
                             indirect=True)
    def test_cross_edge_in_a_matching_slot(self, certified):
        # an edge from B0 to A leaves both Hamilton cycles of an MES slot
        # intact; only the cross-edge check rejects it
        host, P, systems, obj, _foreign, _instance = certified
        obj = copy.deepcopy(obj)
        slot = next(s for s in obj["slots"] if s["kind"] == "MES")
        slot["edges"] = slot["edges"] + [[P.b0[0], P.a_cluster(0)[0]]]
        slot["edges_sha256"] = ref_edge_hash(slot["edges"])
        cert = DecompositionCertificate.from_json_obj(obj)
        report = verify_certificate(host, P, systems, cert)
        assert report == ref_verify_certificate(host, P, systems, cert)
        verdicts = report["slots"][obj["slots"].index(slot)]
        assert not verdicts["bi_hamiltonian"]
        assert verdicts["matching_pair"]

    @given(data=st.data(),
           ops=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_mutated_certificate(self, certified, data, ops):
        host, P, systems, obj, foreign, _instance = certified
        obj = copy.deepcopy(obj)
        invalid = False
        for op in ops:
            invalid |= _mutate(obj, op, data, host.n, foreign)
        cert = DecompositionCertificate.from_json_obj(obj)
        report = verify_certificate(host, P, systems, cert)
        assert report == ref_verify_certificate(host, P, systems, cert)
        _assert_plain_types(report)
        if invalid:
            assert not report["global"]["all_ok"]

    @given(data=st.data(),
           ops=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_mutated_certificate_through_the_cli(self, certified, data, ops):
        host, P, systems, obj, foreign, instance = certified
        obj = copy.deepcopy(obj)
        invalid = False
        for op in ops:
            invalid |= _mutate(obj, op, data, host.n, foreign)
        cert = instance.with_name("certificate.json")
        cert.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["verify", str(instance), str(cert)])
        verdict = json.loads(out.getvalue().splitlines()[-1])
        assert "Traceback" not in err.getvalue()
        assert code == (0 if verdict["all_ok"] else 1)
        if invalid:
            assert verdict["all_ok"] is False

    def test_add_edge_copies_a_retyped_entry(self, certified):
        # retype-edge turns the first edge of slot 0 into true; add-edge
        # then copies that entry into slot 1, where it must stay retyped
        host, P, systems, obj, foreign, instance = certified
        obj = copy.deepcopy(obj)
        # draws: slot, random pair, entry, end, value, rehash
        assert _mutate(obj, "retype-edge",
                       _Scripted(0, (0, 1), 0, 0, True, True), host.n,
                       foreign)
        entry = obj["slots"][0]["edges"][0]
        # draws: slot, random pair, entry, source slot, add the random
        # pair (no), source entry, rehash
        _mutate(obj, "add-edge", _Scripted(1, (0, 1), 0, 0, False, entry,
                                           True), host.n, foreign)
        assert obj["slots"][1]["edges"][-1] is True
        cert = DecompositionCertificate.from_json_obj(copy.deepcopy(obj))
        report = verify_certificate(host, P, systems, cert)
        assert report == ref_verify_certificate(host, P, systems, cert)
        assert report["global"]["all_ok"] is False
        path = instance.with_name("certificate.json")
        path.write_text(json.dumps(obj))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["verify", str(instance), str(path)])
        assert code == 1
        assert json.loads(out.getvalue().splitlines()[-1])["all_ok"] is False

    @pytest.mark.parametrize("whole_edge", [False, True])
    def test_each_retyped_entry(self, certified, whole_edge):
        host, P, systems, obj, _foreign, _instance = certified
        v = obj["slots"][0]["edges"][0][1]
        for value in _retyped(host.n, v):
            mutated = copy.deepcopy(obj)
            edges = mutated["slots"][0]["edges"]
            if whole_edge:
                edges[0] = value
            else:
                edges[0][1] = value
            mutated["slots"][0]["edges_sha256"] = ref_edge_hash(edges)
            cert = DecompositionCertificate.from_json_obj(mutated)
            report = verify_certificate(host, P, systems, cert)
            assert report == ref_verify_certificate(host, P, systems, cert)
            assert report["slots"][0] == {"ok": False}

    @pytest.mark.parametrize("edges", [[], "", {}])
    def test_empty_edge_lists_read_alike(self, certified, edges):
        # the reference reads an empty list, string or object as an
        # empty edge list, and so does the reader of the canonical text
        host, P, systems, obj, _foreign, _instance = certified
        obj = copy.deepcopy(obj)
        obj["slots"][0]["edges"] = edges
        cert = DecompositionCertificate.from_json_obj(obj)
        report = verify_certificate(host, P, systems, cert)
        assert report == ref_verify_certificate(host, P, systems, cert)
        assert report["slots"][0]["in_host"] is True
        assert report["slots"][0]["hash_ok"] is False


# -- the host matrix: generator and instance files ----------------------------

# a frozen copy of the generator from when the host was a Multigraph of
# its edges; its random draws are the same


def ref_generate_two_cliques(cfg, partition, rng):
    K, m = cfg.K, cfg.m
    count = cfg.system_count
    cells = [(t % K, (t % K + t // K) % K) for t in range(K * K)]
    assignment = [cells[t % len(cells)] for t in range(count)]
    kinds = [KIND_HES] * cfg.hes_count + [KIND_MES] * cfg.mes_count
    rng.shuffle(kinds)
    pools = _cluster_pools(partition, rng)
    systems = []
    j_edges_all = []
    for t in range(count):
        i, ip = assignment[t]
        edges = []
        for v0 in partition.a0:
            x, y = _take(pools, "A", i, 2)
            edges += [(x, v0), (v0, y)]
        for v0 in partition.b0:
            x, y = _take(pools, "B", ip, 2)
            edges += [(x, v0), (v0, y)]
        if kinds[t] == KIND_HES:
            xa = _take(pools, "A", i, 2)
            xb = _take(pools, "B", ip, 2)
            edges += [(xa[0], xb[0]), (xa[1], xb[1])]
        graph = RefMultigraph(partition.n, edges)
        systems.append(ExceptionalSystem(partition, graph, eps0=cfg.eps0,
                                         locality=(i, ip)))
        j_edges_all += edges
    host_edges = list(j_edges_all)
    host_edges += ref_clique_side_edges(cfg, partition, "A", rng)
    host_edges += ref_clique_side_edges(cfg, partition, "B", rng)
    return RefMultigraph(partition.n, host_edges), systems


def ref_clique_side_edges(cfg, partition, side, rng):
    K, m = cfg.K, cfg.m
    cluster = (partition.a_cluster if side == "A" else partition.b_cluster)
    edges = []
    for i in range(K):
        for ip in range(i + 1, K):
            edges += ref_thinned_pair_edges(cfg, cluster(i), cluster(ip), rng)
    lo = (1 - 4 * cfg.mu - 4 / K) * m
    d_inner = max(0, math.ceil(lo))
    d_inner += d_inner % 2
    if d_inner >= m:
        raise InvalidParameter("inner-cluster degree demand exceeds m - 1")
    for i in range(K):
        ci = cluster(i)
        for shift in range(1, d_inner // 2 + 1):
            for x in range(m):
                y = (x + shift) % m
                if x < y:
                    edges.append((ci[x], ci[y]))
                else:
                    edges.append((ci[y], ci[x]))
    return edges


def ref_generate_bipartite(cfg, partition, rng):
    K = cfg.K
    count = cfg.system_count
    cells = []
    for t in range(K * K):
        i, ip = t % K, (t % K + t // K) % K
        if t % 2 == 0:
            cells.append((i, i, ip, ip))
        else:
            cells.append((i, (i + 1) % K, ip, (ip + 1) % K))
    assignment = [cells[t % len(cells)] for t in range(count)]
    pools = _cluster_pools(partition, rng)
    systems = []
    j_edges_all = []
    for t in range(count):
        i1, i2, i3, i4 = assignment[t]
        edges = []
        for v0 in partition.a0:
            x, y = _take(pools, "A", i1, 1) + _take(pools, "A", i2, 1)
            edges += [(x, v0), (v0, y)]
        for v0 in partition.b0:
            x, y = _take(pools, "B", i3, 1) + _take(pools, "B", i4, 1)
            edges += [(x, v0), (v0, y)]
        graph = RefMultigraph(partition.n, edges)
        systems.append(BalancedExceptionalSystem(
            partition, graph, eps0=cfg.eps0, locality=(i1, i2, i3, i4)))
        j_edges_all += edges
    host_edges = list(j_edges_all)
    for i in range(K):
        for ip in range(K):
            host_edges += ref_thinned_pair_edges(
                cfg, partition.a_cluster(i), partition.b_cluster(ip), rng)
    return RefMultigraph(partition.n, host_edges), systems


def ref_thinned_pair_edges(cfg, ci, cj, rng):
    m = cfg.m
    thin = round(4 * cfg.mu * m)
    skips = set(rng.sample(range(m), thin)) if thin else set()
    edges = []
    for x in range(m):
        for y in range(m):
            if (y - x) % m not in skips:
                edges.append((ci[x], cj[y]))
    return edges


def _generated(cfg, generate):
    """(host, partition, systems) from ``generate`` on the partition and
    random stream that ``generate_instance`` gives it, or the error it
    raises."""
    rng = random.Random(derive_seed(cfg.seed, "instance"))
    K, m, base = cfg.K, cfg.m, cfg.a0_size + cfg.b0_size
    a0 = list(range(cfg.a0_size))
    b0 = list(range(cfg.a0_size, base))
    a_clusters = [list(range(base + i * m, base + (i + 1) * m))
                  for i in range(K)]
    b_clusters = [list(range(base + (K + i) * m, base + (K + i + 1) * m))
                  for i in range(K)]
    ctor = (ClusterPartition.two_cliques if cfg.mode == MODE_TWO_CLIQUES
            else ClusterPartition.bipartite)
    partition = ctor(a0, a_clusters, b0, b_clusters, cfg.eps0)
    try:
        host, systems = generate(cfg, partition, rng)
    except HamdecError as exc:
        return f"{type(exc).__name__}: {exc}"
    return host, partition, systems


@st.composite
def generator_configs(draw):
    """Small configs of both modes; some exhaust a cluster's vertex pool
    or give an invalid system, which both generators must report alike."""
    mode = draw(st.sampled_from([MODE_TWO_CLIQUES, "bipartite"]))
    two = mode == MODE_TWO_CLIQUES
    count = draw(st.integers(0, 8))
    mes = draw(st.integers(0, count)) if two else 0
    a0 = draw(st.integers(0, 2))
    # a balanced system covers as many A- as B-vertices
    b0 = draw(st.integers(0, 2)) if two else a0
    return InstanceConfig(
        mode=mode, K=draw(st.sampled_from([3, 5] if two else [2, 4])),
        m=draw(st.integers(4, 14)), a0_size=a0, b0_size=b0, eps0=0.3,
        mu=draw(st.sampled_from([0.0, 0.0125, 0.05])),
        hes_count=count - mes if two else 0, mes_count=mes,
        bes_count=0 if two else count, seed=draw(st.integers(0, 2 ** 32)))


def _bench_workloads() -> dict:
    """``WORKLOADS`` of bench/run.py: the benchmark's configs, whose
    instance files must keep their bytes."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                        "run.py")
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOAD_CONFIGS = _bench_workloads()


class TestHostMatrixMatchesReference:
    @given(generator_configs())
    @settings(max_examples=60, deadline=None)
    def test_generator_and_trim(self, cfg):
        new = _generated(cfg, _generate_two_cliques if cfg.mode ==
                         MODE_TWO_CLIQUES else _generate_bipartite)
        ref = _generated(cfg, ref_generate_two_cliques if cfg.mode ==
                         MODE_TWO_CLIQUES else ref_generate_bipartite)
        if isinstance(ref, str):
            assert new == ref
            return
        (host, _P, systems), (ref_host, _P, ref_systems) = new, ref
        assert isinstance(host, Host) and host.n == ref_host.n
        assert list(host.edges()) == list(ref_host.edges())
        assert host.edge_count() == ref_host.edge_count()
        assert [es.to_json_obj() for es in systems] == \
            [es.to_json_obj() for es in ref_systems]

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
    def test_gen_writes_the_same_instance_file(self, workload, tmp_path):
        cfg = InstanceConfig(seed=11, **WORKLOAD_CONFIGS[workload])
        params = tmp_path / "params.json"
        params.write_text(json.dumps(WORKLOAD_CONFIGS[workload]))
        out, ref = tmp_path / "new.json", tmp_path / "ref.json"
        assert cli_main(["gen", "--params", str(params), "--seed", "11",
                         "--out", str(out)]) == 0
        generate = (ref_generate_two_cliques if cfg.mode == MODE_TWO_CLIQUES
                    else ref_generate_bipartite)
        ref_host, P, ref_systems = _generated(cfg, generate)
        _dump_instance(str(ref), cfg, Host(ref_host.n, ref_host.edges()), P,
                       ref_systems)
        assert out.read_bytes() == ref.read_bytes()


# -- the r-factor against a frozen max-flow ----------------------------------


def ref_r_factor_flow(mat, r: int) -> tuple[int, list[int], list[int]]:
    """Maximum flow on source -> row p (capacity r) -> column q (capacity
    ``mat[p][q]``) -> sink (capacity r), by BFS augmenting paths over a
    dict of residual capacities.  Returns the flow value and the rows
    and columns that the source reaches in the final residual network."""
    m = len(mat)
    cap: dict = {}
    adj: dict = {}

    def arc(u, v, c):
        for a, b in ((u, v), (v, u)):
            if (a, b) not in cap:
                cap[a, b] = 0
                adj.setdefault(a, []).append(b)
        cap[u, v] += c

    for p in range(m):
        arc("s", ("row", p), r)
        arc(("col", p), "t", r)
        for q in range(m):
            if mat[p][q]:
                arc(("row", p), ("col", q), int(mat[p][q]))

    def reach():
        parent = {"s": None}
        queue = deque(["s"])
        while queue:
            u = queue.popleft()
            for v in adj.get(u, []):
                if v not in parent and cap[u, v] > 0:
                    parent[v] = u
                    queue.append(v)
        return parent

    flow = 0
    while True:
        parent = reach()
        if "t" not in parent:
            break
        path, v = [], "t"
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[a] for a in path)
        for u, v in path:
            cap[u, v] -= push
            cap[v, u] += push
        flow += push
    nodes = [v for v in parent if v != "s"]
    return (flow, sorted(p for side, p in nodes if side == "row"),
            sorted(q for side, q in nodes if side == "col"))


@st.composite
def r_factor_cases(draw):
    """A pair matrix of multiplicities 0-3: a sum of random permutations,
    so high degrees occur, with some cells overwritten; and a target
    degree r in 0..m."""
    m = draw(st.integers(1, 12))
    mat = np.zeros((m, m), dtype=np.int64)
    for perm in draw(st.lists(st.permutations(range(m)), max_size=m)):
        mat[np.arange(m), perm] += 1
    mat = np.minimum(mat, 3)
    for p, q, k in draw(st.lists(st.tuples(
            st.integers(0, m - 1), st.integers(0, m - 1),
            st.integers(0, 3)), max_size=2 * m)):
        mat[p, q] = k
    dtype = draw(st.sampled_from([np.int64, np.uint8]))
    return mat.astype(dtype), draw(st.integers(0, m))


class TestRFactorMatchesReference:
    @given(r_factor_cases())
    @example((np.array([[0]]), 1))
    @example((np.array([[2]], dtype=np.uint8), 1))
    @settings(max_examples=400, deadline=None)
    def test_against_the_frozen_max_flow(self, case):
        mat, r = case
        m = len(mat)
        # vertex ids: rows 0..m-1, columns m..2m-1
        left, right = list(range(m)), list(range(m, 2 * m))
        flow, s1, s2 = ref_r_factor_flow(mat.tolist(), r)
        if flow == r * m:
            sub = regular_spanning_subgraph(mat, left, right, 0.0, 0.0,
                                            degree=r)
            assert sub.dtype == np.int64
            assert (sub.sum(axis=0) == r).all()
            assert (sub.sum(axis=1) == r).all()
            assert (sub >= 0).all() and (sub <= mat).all()
            return
        with pytest.raises(DegreeHypothesisViolated) as exc:
            regular_spanning_subgraph(mat, left, right, 0.0, 0.0, degree=r)
        assert str(exc.value).startswith(f"max flow {flow} < r*m = {r * m};")
        w = exc.value.witness
        assert w["S1"] == s1 and w["S2"] == [m + q for q in s2]
        rbar = [q for q in range(m) if q not in s2]
        assert w["e(S1,~S2)"] == int(mat[np.ix_(s1, rbar)].sum())
        assert w["r"] == r

    @given(r_factor_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_augmenting_from_any_partial_flow(self, case, rnd):
        # the greedy fill leaves few rows short on small pairs, so start
        # the augmenting paths from a random flow instead
        mat, r = case
        m = len(mat)
        sub = np.zeros((m, m), dtype=np.int64)
        cells = [(p, q) for p in range(m) for q in range(m)
                 for _ in range(int(mat[p, q]))]
        for p, q in rnd.sample(cells, rnd.randint(0, len(cells))):
            if sub[p].sum() < r and sub[:, q].sum() < r:
                sub[p, q] += 1
        held = _row_ints(pack_rows(sub > 0))
        sub, s1, s2 = _augment(mat, sub, r, held)
        flow, ref_s1, ref_s2 = ref_r_factor_flow(mat.tolist(), r)
        assert int(sub.sum()) == flow
        assert (sub >= 0).all() and (sub <= mat).all()
        assert (sub.sum(axis=0) <= r).all() and (sub.sum(axis=1) <= r).all()
        assert held == _row_ints(pack_rows(sub > 0))
        if flow < r * m:
            assert (s1, s2) == (ref_s1, ref_s2)
