"""Classical decomposition primitives used as black boxes elsewhere:
the zig-zag Hamilton decomposition of complete graphs on an odd number
of clusters, the Hamilton decomposition of complete balanced bipartite
graphs on an even number of clusters per side, flow-based extraction of
regular spanning subgraphs, and exact 1-factorization of regular
bipartite multigraphs by repeated Euler splits.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .core import ClusterCycle, Multigraph
from .errors import (DegreeHypothesisViolated, InvalidParameter,
                     MatchingInfeasible)


def walecki_decompose(K: int) -> list[ClusterCycle]:
    """Decompose the complete graph on cluster indices 0..K-1 (K odd) into
    (K-1)/2 edge-disjoint Hamilton cycles.

    Uses the classical zig-zag construction around a fixed hub vertex;
    each cycle is oriented in construction order (any orientation works
    downstream, so a deterministic one is fixed here).
    """
    if K < 3 or K % 2 == 0:
        raise InvalidParameter(f"K must be odd and >= 3, got {K}")
    hub = K - 1
    t = (K - 1) // 2  # number of cycles; ring Z_{2t} on 0..K-2
    ring = K - 1
    base = [0]
    for step in range(1, t + 1):
        base.append(step)
        if len(base) < ring:
            base.append(-step % ring)
    cycles = []
    for j in range(t):
        order = [hub] + [(x + j) % ring for x in base]
        cycles.append(ClusterCycle(tuple(order)))
    return cycles


def bipartite_hamilton_decompose(K: int) -> list[ClusterCycle]:
    """Decompose the complete bipartite graph between A-clusters 0..K-1 and
    B-clusters 0..K-1 (K even) into K/2 Hamilton cycles on the 2K clusters.

    Cluster indices follow the A1..AK, B1..BK convention: A_i is index i
    and B_i is index K + i.  Cycle j alternates a_i -> b_{i+2j} -> a_{i+1},
    using exactly the two difference classes {2j, 2j-1}.
    """
    if K < 2 or K % 2 == 1:
        raise InvalidParameter(f"K must be even and >= 2, got {K}")
    cycles = []
    for j in range(K // 2):
        order = []
        for i in range(K):
            order.append(i)                      # A_i
            order.append(K + (i + 2 * j) % K)    # B_{i+2j}
        cycles.append(ClusterCycle(tuple(order)))
    return cycles


# -- flow-based regular spanning subgraphs -----------------------------------


def regular_spanning_subgraph(gamma_graph: Multigraph, left: Sequence[int],
                              right: Sequence[int], mu: float, rho: float,
                              degree: int | None = None) -> Multigraph:
    """Extract a spanning r-regular subgraph of a bipartite (multi)graph
    with classes ``left`` and ``right`` of equal size m, where
    r = floor((1 - mu - rho) * m) unless ``degree`` overrides it.

    Realized as an integral max-flow on the source/sink network with unit
    (multiplicity) capacities on the graph edges.  If the flow value falls
    short, raises DegreeHypothesisViolated carrying a cut witness (S1, S2)
    with e(S1, right \\ S2) < r * (|S1| - |S2|).
    """
    m = len(left)
    if m != len(right) or m == 0:
        raise InvalidParameter("classes must be nonempty and of equal size")
    if degree is None:
        if not (0 <= mu <= 0.25) or rho < 0:
            raise InvalidParameter(f"need 0 <= mu <= 1/4 and rho >= 0, "
                                   f"got mu={mu}, rho={rho}")
    r = int((1 - mu - rho) * m) if degree is None else degree
    if r < 0 or r > m:
        raise InvalidParameter(f"target degree {r} outside 0..{m}")
    if r == 0:
        return Multigraph(gamma_graph.n)

    mat = pair_matrix(gamma_graph, left, right)
    ii, jj = np.nonzero(mat)
    # network nodes: 0 = source, 1..m = left, m+1..2m = right, 2m+1 = sink
    src, snk = 0, 2 * m + 1
    rows = np.concatenate([ii + 1, np.full(m, src), np.arange(m + 1, snk)])
    cols = np.concatenate([jj + m + 1, np.arange(1, m + 1), np.full(m, snk)])
    caps = np.concatenate([mat[ii, jj], np.full(2 * m, r)]).astype(np.int32)
    graph = csr_matrix((caps, (rows, cols)), shape=(2 * m + 2, 2 * m + 2))
    result = maximum_flow(graph, src, snk)
    if result.flow_value == r * m:
        block = result.flow[1:m + 1, m + 1:2 * m + 1].toarray()
        # the used edges in the order of gamma_graph.edges()
        used = sorted(((left[i], right[j], int(block[i, j]))
                       for i, j in zip(ii.tolist(), jj.tolist())
                       if block[i, j] > 0), key=lambda e: sorted(e[:2]))
        return Multigraph(gamma_graph.n, used)

    # short flow: extract the min cut from residual reachability and
    # translate it into the degree-hypothesis witness
    s1, s2 = _min_cut_witness(graph, result.flow, src, m)
    s1_v = [left[i] for i in sorted(s1)]
    s2_v = [right[i] for i in sorted(s2)]
    rbar = [v for v in right if v not in set(s2_v)]
    e_val = gamma_graph.edges_between(s1_v, rbar)
    raise DegreeHypothesisViolated(
        f"max flow {result.flow_value} < r*m = {r * m}; cut witness "
        f"violates e(S1, ~S2) >= r(|S1|-|S2|): {e_val} < "
        f"{r * (len(s1_v) - len(s2_v))}",
        witness={"S1": s1_v, "S2": s2_v, "r": r, "e(S1,~S2)": e_val})


def _min_cut_witness(graph: csr_matrix, flow: csr_matrix, src: int, m: int):
    """Residual BFS from the source; returns (S1, S2) as index sets into
    the left/right classes."""
    # the flow matrix is antisymmetric, so graph - flow has positive
    # entries exactly on usable forward and backward residual arcs
    residual = (graph - flow).tocsr()
    n = graph.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[src] = True
    queue = deque([src])
    while queue:
        x = queue.popleft()
        row = residual[x]
        for y, c in zip(row.indices, row.data):
            if c > 0 and not seen[y]:
                seen[y] = True
                queue.append(y)
    s1 = [i for i in range(m) if seen[i + 1]]
    s2 = [i for i in range(m) if seen[m + 1 + i]]
    return s1, s2


# -- Hopcroft-Karp maximum matching ------------------------------------------


def hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; adj[u] lists right-neighbours of left
    vertex u.  Returns match_left with match_left[u] = matched right vertex
    or -1.  Deterministic given the adjacency order."""
    n_left = len(adj)
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    # first phase without bfs(): every left vertex is free, so every
    # layer is 0 (as ``dist`` starts) and a path exists iff an arc does
    found = any(adj)
    while found:
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
        found = bfs()
    return match_l


def pair_matrix(graph: Multigraph, left: Sequence[int],
                right: Sequence[int]) -> np.ndarray:
    """The multiplicity matrix of ``graph`` between the disjoint classes
    ``left`` (rows) and ``right`` (columns)."""
    rpos = {v: j for j, v in enumerate(right)}
    adj = graph._adjacency()
    mat = np.zeros((len(left), len(right)), dtype=np.int64)
    for i, u in enumerate(left):
        for w, k in adj.get(u, {}).items():
            if w in rpos:
                mat[i, rpos[w]] = k
    return mat


def take_matching(res: np.ndarray, rows: Sequence[int],
                  cols: Sequence[int]) -> list[int]:
    """A perfect matching of ``rows`` to ``cols`` on the positive entries
    of the residual matrix ``res``, decremented in place; entry p is the
    position in ``cols`` matched to ``rows[p]``.  The orders of ``rows``
    and ``cols`` decide which matching Hopcroft-Karp finds.  Raises
    MatchingInfeasible with a Hall violator ``S`` and its neighbourhood
    ``N(S)``, plus the rows a maximum matching leaves ``unmatched``, all
    given as indices of ``res``.
    """
    sub = res[np.ix_(rows, cols)] > 0
    # row-major nonzero: each row's columns, ascending, one row after another
    flat = np.nonzero(sub)[1].tolist()
    ends = np.cumsum(np.count_nonzero(sub, axis=1)).tolist()
    adj = [flat[a:b] for a, b in zip([0] + ends, ends)]
    match_l = hopcroft_karp(adj, len(cols))
    if -1 in match_l:
        violator = _hall_violator(adj, match_l, len(cols))
        raise MatchingInfeasible(
            f"no perfect matching between classes of size {len(rows)}",
            witness={"S": [rows[p] for p in violator],
                     "N(S)": sorted({cols[q] for p in violator
                                     for q in adj[p]}),
                     "unmatched": [rows[p] for p, q in enumerate(match_l)
                                   if q == -1]})
    res[np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp)[match_l]] -= 1
    return match_l


def perfect_matching(graph: Multigraph, left: Sequence[int],
                     right: Sequence[int]) -> list[tuple[int, int]]:
    """A perfect matching between ``left`` and ``right`` using edges of
    ``graph``; raises MatchingInfeasible with a Hall violator otherwise."""
    try:
        match_l = take_matching(pair_matrix(graph, left, right),
                                range(len(left)), range(len(right)))
    except MatchingInfeasible as e:
        raise MatchingInfeasible(str(e), witness={
            "S": [left[i] for i in e.witness["S"]],
            "N(S)": sorted(right[j] for j in e.witness["N(S)"])}) from None
    return [(left[i], right[j]) for i, j in enumerate(match_l)]


def _hall_violator(adj, match_l, n_right) -> list[int]:
    """Alternating-reachability set from the unmatched left vertices;
    its neighbourhood is smaller than itself."""
    match_r = [-1] * n_right
    for u, v in enumerate(match_l):
        if v != -1:
            match_r[v] = u
    frontier = [u for u, v in enumerate(match_l) if v == -1]
    reach = set(frontier)
    queue = deque(frontier)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            w = match_r[v]
            if w != -1 and w not in reach:
                reach.add(w)
                queue.append(w)
    return sorted(reach)


# -- exact 1-factorization of regular bipartite multigraphs ------------------


def regular_bipartite_to_matchings(graph: Multigraph, left: Sequence[int],
                                   right: Sequence[int]) -> list[Multigraph]:
    """Decompose an r-regular bipartite multigraph exactly into r perfect
    matchings (Euler splits down to matchings, peeling one matching via
    augmenting paths whenever the degree is odd)."""
    left = list(left)
    right = list(right)
    degs = {graph.degree(v) for v in left} | {graph.degree(v) for v in right}
    if len(degs) != 1:
        raise InvalidParameter(f"graph is not regular: degrees {sorted(degs)}")
    r = degs.pop()
    if r == 0:
        return []
    vs = set(left) | set(right)
    for (u, v) in graph.support():
        if not ((u in vs) and (v in vs)):
            raise InvalidParameter("graph has edges outside the two classes")
        if (u in set(left)) == (v in set(left)):
            raise InvalidParameter("graph is not bipartite on the classes")
    matchings = _factorize(graph, left, right, r)
    # exactness check: concatenating outputs reproduces the input
    total = Multigraph(graph.n)
    for m in matchings:
        total = total + m
    if total != graph:
        raise InvalidParameter("internal: factorization does not sum to input")
    return matchings


def _factorize(graph: Multigraph, left, right, r: int) -> list[Multigraph]:
    if r == 0:
        return []
    if r == 1:
        return [graph]
    if r % 2 == 1:
        pm_edges = perfect_matching(graph, left, right)
        pm = Multigraph(graph.n, pm_edges)
        rest = graph - pm
        return [pm] + _factorize(rest, left, right, r - 1)
    g1, g2 = _euler_split(graph)
    return (_factorize(g1, left, right, r // 2)
            + _factorize(g2, left, right, r // 2))


def _euler_split(graph: Multigraph) -> tuple[Multigraph, Multigraph]:
    """Split an even-degree bipartite multigraph into two halves by
    alternately colouring the edges of Eulerian circuits."""
    # explicit edge copies with ids so parallel edges are distinct
    edge_list = []
    adj: dict[int, list[int]] = {}
    for (u, v, k) in graph.edges():
        for _ in range(k):
            eid = len(edge_list)
            edge_list.append((u, v))
            adj.setdefault(u, []).append(eid)
            adj.setdefault(v, []).append(eid)
    used = [False] * len(edge_list)
    ptr = {v: 0 for v in adj}
    color = [0] * len(edge_list)
    for start in sorted(adj):
        while ptr[start] < len(adj[start]):
            if used[adj[start][ptr[start]]]:
                ptr[start] += 1
                continue
            # Hierholzer walk from start; in an even-degree graph the walk
            # can only get stuck back at its start, closing a circuit
            circuit = []
            cur = start
            while True:
                row = adj[cur]
                while ptr.get(cur, 0) < len(row) and used[row[ptr[cur]]]:
                    ptr[cur] += 1
                if ptr.get(cur, 0) >= len(row):
                    break
                eid = row[ptr[cur]]
                used[eid] = True
                circuit.append(eid)
                a, b = edge_list[eid]
                cur = b if cur == a else a
            for i, eid in enumerate(circuit):
                color[eid] = i % 2
    e0 = [edge_list[i] for i in range(len(edge_list)) if color[i] == 0]
    e1 = [edge_list[i] for i in range(len(edge_list)) if color[i] == 1]
    return Multigraph(graph.n, e0), Multigraph(graph.n, e1)

