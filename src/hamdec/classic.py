"""Classical decomposition primitives used as black boxes elsewhere:
the zig-zag Hamilton decomposition of complete graphs on an odd number
of clusters, the Hamilton decomposition of complete balanced bipartite
graphs on an even number of clusters per side, extraction of regular
spanning subgraphs as r-factors, and one loop that peels perfect
matchings off a residual matrix, for random reserve draws and for the
exact 1-factorization of regular bipartite multigraphs.

Perfect matchings and r-factors run on bit-packed rows: ``pack_rows``
packs a boolean matrix into little-endian uint64 words (``cyclic``
counts codegrees and edges between sets on those words), and the
kernels join each row's words into one Python int, on which the greedy
phases, Hopcroft-Karp and the r-factor's augmenting paths work as
bitset operations.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from .core import ClusterCycle, Host, Multigraph
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


# -- regular spanning subgraphs as r-factors on packed rows -------------------


def regular_spanning_subgraph(mat: np.ndarray, left: Sequence[int],
                              right: Sequence[int], mu: float, rho: float,
                              degree: int | None = None) -> np.ndarray:
    """Extract a spanning r-regular subgraph of a bipartite (multi)graph
    given as its multiplicity matrix ``mat`` between the classes ``left``
    (rows) and ``right`` (columns) of equal size m, where
    r = floor((1 - mu - rho) * m) unless ``degree`` overrides it; returns
    the subgraph's multiplicity matrix.

    The subgraph is an r-factor, a maximum flow of value r * m on the
    network source -> row (capacity r) -> column (capacity ``mat``) ->
    sink (capacity r), found by ``_r_factor`` on the rows of ``mat``
    packed into Python ints.  If the flow value falls short, raises
    DegreeHypothesisViolated carrying a cut witness (S1, S2) of vertex ids
    with e(S1, right \\ S2) < r * (|S1| - |S2|): the rows and columns
    that the source reaches in the residual network, the same sets for
    every maximum flow.
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
    sub, s1, s2 = _r_factor(mat, r)
    flow = int(sub.sum())
    if flow == r * m:
        if not ((sub.sum(axis=0) == r).all() and (sub.sum(axis=1) == r).all()
                and (sub >= 0).all() and (sub <= mat).all()):
            raise InvalidParameter("internal: r-factor check failed")
        return sub
    rbar = [j for j in range(m) if j not in set(s2)]
    e_val = int(mat[np.ix_(s1, rbar)].sum())
    raise DegreeHypothesisViolated(
        f"max flow {flow} < r*m = {r * m}; cut witness "
        f"violates e(S1, ~S2) >= r(|S1|-|S2|): {e_val} < "
        f"{r * (len(s1) - len(s2))}",
        witness={"S1": [left[i] for i in s1], "S2": [right[j] for j in s2],
                 "r": r, "e(S1,~S2)": e_val})


def _r_factor(mat: np.ndarray, r: int
              ) -> tuple[np.ndarray, list[int], list[int]]:
    """A maximum flow X of the r-factor network of ``mat`` as an int64
    matrix, and the rows and columns that the source reaches in its
    residual network (both empty when every row of X sums to r).

    First a greedy fill: each row in turn takes one unit of each of its
    first r columns still short of r, counting cyclically from column
    p * r for row p, so the load spreads over the columns.  The column
    counters are bit planes of Python ints, so a row is added a word at a
    time: each counter starts at 2^K - r, with K planes, and a column
    closes when adding a row carries out of the top plane.  The rows
    left short then augment as in ``_augment``.
    """
    m = len(mat)
    every = (1 << m) - 1
    start = (1 << r.bit_length()) - r
    planes = [every if start >> k & 1 else 0
              for k in range(r.bit_length())]
    open_cols, held, short = every, [], False
    for p, row in enumerate(_row_ints(pack_rows(mat > 0))):
        avail = row & open_cols
        count = avail.bit_count()
        if count > r:
            shift = p * r % m
            avail = (avail >> shift | avail << (m - shift)) & every
            avail = _lowest_bits(avail, count, r)
            avail = (avail << shift | avail >> (m - shift)) & every
        else:
            short |= count < r
        held.append(avail)
        carry = avail
        for k, plane in enumerate(planes):
            planes[k], carry = plane ^ carry, plane & carry
        open_cols ^= carry
    sub = _int_rows(held, m).astype(np.int64)
    if not short:
        return sub, [], []
    return _augment(mat, sub, r, held)


def _lowest_bits(bits: int, count: int, keep: int) -> int:
    """The ``keep`` lowest set bits of ``bits``, which has ``count``."""
    if keep <= count - keep:
        out = 0
        for _ in range(keep):
            low = bits & -bits
            out |= low
            bits ^= low
        return out
    for _ in range(count - keep):
        bits ^= 1 << (bits.bit_length() - 1)
    return bits


def _augment(mat: np.ndarray, sub: np.ndarray, r: int, held: list[int]
             ) -> tuple[np.ndarray, list[int], list[int]]:
    """Complete the flow ``sub`` of ``_r_factor`` to a maximum one by
    augmenting paths, in place; ``held[p]`` has bit q set iff
    ``sub[p, q] > 0``.

    Each phase is a BFS from every row still short of r.  A column layer
    is the OR of the frontier's residual rows (bit q of ``fwd[p]`` is set
    iff ``sub[p, q] < mat[p, q]``), and the next row layer is the unseen
    rows that hold a unit of a column in it.  The BFS stops at the first
    layer with columns still short of r.  From each such column a path
    is traced back through the layers, taking the first row that can add
    a unit and the first column that row holds, and is augmented when it
    reaches a short row.  A phase that finds no such column leaves a
    maximum flow, and its layers are the residual-reachable rows and
    columns.  Multiplicities above 1 are counted in ``sub``.
    """
    m = len(sub)
    fwd = _row_ints(pack_rows(sub < mat))
    row_short = (r - sub.sum(axis=1)).tolist()
    col_short = (r - sub.sum(axis=0)).tolist()
    open_cols = sum(1 << q for q in range(m) if col_short[q])
    while True:
        frontier = [p for p in range(m) if row_short[p]]
        unseen = [p for p in range(m) if not row_short[p]]
        rows_at, cols_at, seen, hit = [frontier], [], 0, 0
        while frontier:
            reach = 0
            for p in frontier:
                reach |= fwd[p]
            reach &= ~seen
            if not reach:
                break
            seen |= reach
            cols_at.append(reach)
            hit = reach & open_cols
            if hit:
                break
            frontier = [p for p in unseen if held[p] & reach]
            unseen = [p for p in unseen if not held[p] & reach]
            rows_at.append(frontier)
        if not hit:
            return (sub, sorted(p for layer in rows_at for p in layer),
                    [q for q in range(m) if seen >> q & 1])
        depth = len(cols_at) - 1
        while hit:
            end = (hit & -hit).bit_length() - 1
            hit ^= 1 << end
            # the path alternates (row, column it adds) steps, back from
            # the end column; the row at layer t drops the column it
            # reached through, which the next step adds
            path, q = [], end
            for t in range(depth, -1, -1):
                p = next((p for p in rows_at[t] if fwd[p] >> q & 1
                          and (t or row_short[p])), -1)
                if p < 0:
                    break
                path.append((p, q))
                if not t:
                    break
                drop = held[p] & cols_at[t - 1]
                if not drop:
                    break
                q = (drop & -drop).bit_length() - 1
            if len(path) <= depth:
                continue
            for k, (p, q) in enumerate(path):
                sub[p, q] += 1
                held[p] |= 1 << q
                if sub[p, q] == mat[p, q]:
                    fwd[p] ^= 1 << q
                if k < depth:
                    q = path[k + 1][1]
                    sub[p, q] -= 1
                    fwd[p] |= 1 << q
                    if not sub[p, q]:
                        held[p] ^= 1 << q
            row_short[path[-1][0]] -= 1
            col_short[end] -= 1
            if not col_short[end]:
                open_cols ^= 1 << end


# -- Hopcroft-Karp maximum matching ------------------------------------------


def hopcroft_karp(rows: list[int], n_right: int,
                  match_l: list[int]) -> list[int]:
    """Maximum bipartite matching on row bitsets: bit v of ``rows[u]`` is
    set iff left vertex u is adjacent to right vertex v.  Continues from
    ``match_l`` (match_l[u] = matched right vertex or -1), which must be
    the first phase ``_greedy_matching`` leaves, and completes it in
    place; returns it.

    The same matching as the textbook search on ascending adjacency
    lists: each phase's BFS layers come from OR-ing the frontier's rows
    (layer distances do not depend on visit order), and the augmenting
    DFS, iterative so a path may cross every row, tries columns in
    ascending order.
    """
    n_left = len(rows)
    match_r = [-1] * n_right
    free = (1 << n_right) - 1
    for u, v in enumerate(match_l):
        if v != -1:
            match_r[v] = u
            free ^= 1 << v
    while True:
        # BFS from the free rows; layers[d] holds the columns matched to
        # the rows at alternating distance d
        frontier = [u for u in range(n_left) if match_l[u] == -1]
        layers = [0]
        seen = 0
        while frontier:
            reach = 0
            for u in frontier:
                reach |= rows[u]
            reach &= ~seen
            seen |= reach
            reach &= ~free
            layers.append(reach)
            frontier = []
            while reach:
                low = reach & -reach
                reach ^= low
                frontier.append(match_r[low.bit_length() - 1])
        if not seen & free:
            return match_l
        for root in range(n_left):
            if match_l[root] != -1:
                continue
            # DFS: a row at depth d may step to a free column or to one
            # whose row sits at distance d + 1.  ``layers`` stays exact: a
            # dead-end row leaves its layer, and an augmenting path moves
            # its columns, so a row's candidate set taken on entry holds
            # until the row is left
            path, taken = [root], []
            cand = [rows[root] & (free | layers[1])]
            while path:
                bits = cand[-1]
                if not bits:
                    path.pop()
                    cand.pop()
                    if taken:
                        layers[len(path)] &= ~(1 << taken.pop())
                    continue
                low = bits & -bits
                cand[-1] = bits ^ low
                v = low.bit_length() - 1
                taken.append(v)
                w = match_r[v]
                if w != -1:
                    path.append(w)
                    cand.append(rows[w] & (free | layers[len(path)]))
                    continue
                # augment: path[i], at distance i, takes column taken[i]
                free ^= low
                for i, (x, y) in enumerate(zip(path, taken)):
                    if i:
                        layers[i] &= ~(1 << match_l[x])
                    layers[i] |= 1 << y
                    match_l[x] = y
                    match_r[y] = x
                break


def pair_matrix(graph: Host | Multigraph, left: Sequence[int],
                right: Sequence[int]) -> np.ndarray:
    """The multiplicity matrix of ``graph`` between the classes ``left``
    (rows) and ``right`` (columns) of distinct vertices, as a fresh int64
    array: a block of the host's matrix, or a sparse graph's own edges
    scattered into the block."""
    rows = np.asarray(left, dtype=np.intp)
    cols = np.asarray(right, dtype=np.intp)
    if isinstance(graph, Host):
        return graph.matrix[np.ix_(rows, cols)].astype(np.int64)
    row_of = np.full(graph.n, -1, dtype=np.intp)
    row_of[rows] = np.arange(rows.size)
    col_of = np.full(graph.n, -1, dtype=np.intp)
    col_of[cols] = np.arange(cols.size)
    mat = np.zeros((rows.size, cols.size), dtype=np.int64)
    us, vs, ks = graph._key_arrays()
    # each distinct edge fills at most one cell per orientation
    for tails, heads in ((us, vs), (vs, us)):
        r, c = row_of[tails], col_of[heads]
        keep = (r >= 0) & (c >= 0)
        mat[r[keep], c[keep]] = ks[keep]
    return mat


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """The rows of the boolean matrix ``bits`` as little-endian uint64
    words, zero-padded to at least one word: bit q of word w of row p is
    ``bits[p, 64 * w + q]``."""
    n, m = bits.shape
    packed = np.zeros((n, max(1, -(-m // 64)) * 8), dtype=np.uint8)
    packed[:, :-(-m // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def _row_ints(words: np.ndarray) -> list[int]:
    """One Python int per row of ``pack_rows`` words, bit q set iff bit q
    of the row was."""
    bits = words[:, -1].tolist()
    for w in range(words.shape[1] - 2, -1, -1):
        bits = [b << 64 | low for b, low in zip(bits, words[:, w].tolist())]
    return bits


def _int_rows(ints: list[int], m: int) -> np.ndarray:
    """The boolean matrix with m columns whose row p has the bits of
    ``ints[p]``: the inverse of ``_row_ints(pack_rows(...))``."""
    width = -(-m // 8)
    buf = b"".join(v.to_bytes(width, "little") for v in ints)
    return np.unpackbits(np.frombuffer(buf, np.uint8).reshape(-1, width),
                         axis=1, count=m, bitorder="little").view(bool)


def take_matching(res: np.ndarray, rows: Sequence[int],
                  cols: Sequence[int]) -> list[int]:
    """A perfect matching of ``rows`` to ``cols`` on the positive entries
    of the residual matrix ``res``, decremented in place; entry p is the
    position in ``cols`` matched to ``rows[p]``.  The orders of ``rows``
    and ``cols`` decide which matching Hopcroft-Karp finds.  Raises
    MatchingInfeasible with a Hall violator ``S`` and its neighbourhood
    ``N(S)``, plus the rows a maximum matching leaves ``unmatched``, all
    given as indices of ``res``.

    The block ``res[rows][:, cols]`` is gathered once and packed into
    one Python int per row, bit q set iff the row reaches ``cols[q]``;
    the greedy first phase and Hopcroft-Karp run on those ints, and the
    decrement goes through the same index arrays.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    sub = res.take(rows, 0).take(cols, 1) > 0
    bits = _row_ints(pack_rows(sub))
    match_l = _greedy_matching(bits, len(cols))
    if -1 in match_l:
        match_l = hopcroft_karp(bits, len(cols), match_l)
        if -1 in match_l:
            _raise_infeasible(sub, match_l, rows.tolist(), cols.tolist())
    res[rows, cols[match_l]] -= 1
    return match_l


def _raise_infeasible(sub: np.ndarray, match_l: list[int], rows: list[int],
                      cols: list[int]):
    """MatchingInfeasible for the maximum matching ``match_l`` of the
    boolean block ``sub`` of ``rows`` x ``cols``."""
    # row-major nonzero: each row's columns, ascending
    flat = np.nonzero(sub)[1].tolist()
    ends = np.cumsum(np.count_nonzero(sub, axis=1)).tolist()
    adj = [flat[a:b] for a, b in zip([0] + ends, ends)]
    violator = _hall_violator(adj, match_l, len(cols))
    raise MatchingInfeasible(
        f"no perfect matching between classes of size {len(rows)}",
        witness={"S": [rows[p] for p in violator],
                 "N(S)": sorted({cols[q] for p in violator for q in adj[p]}),
                 "unmatched": [rows[p] for p, q in enumerate(match_l)
                               if q == -1]})


def _greedy_matching(rows: list[int], n_right: int) -> list[int]:
    """Hopcroft-Karp's first phase on row bitsets: each row, in order,
    takes its lowest free column, or -1 when none is left.

    In that phase every left vertex is free, so every layer is 0, no
    augmenting path has more than one arc, and each row in turn takes the
    first free column of its ascending adjacency.
    """
    free = (1 << n_right) - 1
    match = []
    for row in rows:
        avail = row & free
        if avail:
            low = avail & -avail
            free ^= low
            match.append(low.bit_length() - 1)
        else:
            match.append(-1)
    return match


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


# -- peeled perfect matchings: reserve draws and exact 1-factorization ------


def peel_matchings(res: np.ndarray, cols: np.ndarray,
                   row_orders: np.ndarray) -> np.ndarray | None:
    """Edge-disjoint perfect matchings peeled off the positive entries of
    the m x m residual matrix ``res``, one per row of the k x m array
    ``row_orders``, as the k x m intp array whose entry [k, p] is the
    column matched to row p by the k-th; or None when a matching is
    missing.  ``res`` is decremented once, at the end, through a flat
    view, so None leaves it untouched and it must be C-contiguous
    (InvalidParameter otherwise).

    The residual is gathered in the column order ``cols`` and packed
    into one Python int per row once.  The k-th matching takes the rows
    in the order ``row_orders[k]``, and the greedy first phase and
    Hopcroft-Karp run on that list of row ints, so the orders decide
    which matching is found.  After each peel, a row's bit of its matched
    column is cleared once that entry is used up: the entries of
    multiplicity above 1 keep a count of their spare uses in a map.
    """
    if not res.flags.c_contiguous:
        raise InvalidParameter("the residual must be C-contiguous")
    m = len(res)
    block = res.take(cols, 1)
    bits = _row_ints(pack_rows(block > 0))
    ps, qs = np.nonzero(block > 1)
    spare = dict(zip((ps * m + qs).tolist(), (block[ps, qs] - 1).tolist()))
    matches = []
    for rows in row_orders.tolist():
        row_bits = [bits[p] for p in rows]
        match_l = _greedy_matching(row_bits, m)
        if -1 in match_l:
            match_l = hopcroft_karp(row_bits, m, match_l)
            if -1 in match_l:
                return None
        for p, q in zip(rows, match_l):
            bits[p] ^= 1 << q
        if spare:
            # a used entry with a use to spare gets its bit back
            for p, q in zip(rows, match_l):
                left = spare.pop(p * m + q, 0)
                if left:
                    bits[p] |= 1 << q
                    if left > 1:
                        spare[p * m + q] = left - 1
        matches.append(match_l)
    parts = np.empty(row_orders.shape, dtype=np.intp)
    matched = np.array(matches, dtype=np.intp).reshape(parts.shape)
    np.put_along_axis(parts, row_orders, cols[matched], axis=1)
    # a 1-D index and res's own dtype keep ufunc.at on numpy's fast path
    np.subtract.at(res.reshape(-1), (np.arange(m) * m + parts).ravel(),
                   res.dtype.type(1))
    return parts


def regular_bipartite_to_matchings(mat: np.ndarray) -> np.ndarray:
    """Decompose an r-regular bipartite multigraph, given as its m x m
    multiplicity matrix ``mat`` (rows one class, columns the other),
    exactly into r perfect matchings, returned as the r x m array whose
    entry [k, p] is the column matched to row p by the k-th.

    By König's theorem an r-regular bipartite multigraph has a perfect
    matching, and removing it leaves an (r-1)-regular one, so r perfect
    matchings, rows and columns in index order, peel the matchings off one
    by one (``peel_matchings``): the same ones as r calls of
    ``take_matching(res, range(m), range(m))`` on a copy ``res`` of
    ``mat``.
    """
    degs = set(mat.sum(axis=1).tolist()) | set(mat.sum(axis=0).tolist())
    if len(degs) != 1:
        raise InvalidParameter(f"graph is not regular: degrees {sorted(degs)}")
    r = degs.pop()
    idx = np.arange(len(mat))
    res = mat.copy()
    parts = peel_matchings(res, idx, np.broadcast_to(idx, (r, len(mat))))
    # exactness check: perfect matchings that sum to the input
    if (parts is None or (np.sort(parts, axis=1) != idx).any()
            or res.any()):
        raise InvalidParameter("internal: factorization does not sum to input")
    return parts
