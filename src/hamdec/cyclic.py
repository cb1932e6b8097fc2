"""Cyclic systems (blown-up Hamilton cycles), the decompositions that
produce them from a host graph, sparse reservoir extraction, and the
superregularity / robust-outexpansion checkers.

Quota arithmetic: the reserve-graph degrees prescribed by the source
formulas grow like K * sqrt(eps0) * m and exceed the available degree
budget at desk scale, so every quota is computed as
min(formula value, feasible budget); both values are recorded in the
returned parameter block so certificates stay honest.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .classic import (bipartite_hamilton_decompose, pack_rows, pair_matrix,
                      peel_matchings, regular_bipartite_to_matchings,
                      regular_spanning_subgraph, walecki_decompose)
from .core import (MODE_BIPARTITE, MODE_TWO_CLIQUES, ClusterCycle,
                   ClusterPartition, Digraph, Host, Multigraph,
                   OrderedDirectedMatching, derive_seed)
from .errors import InvalidParameter, MalformedInput, SamplingFailed
from .exceptional import (BalancedExceptionalSystem, ExceptionalSystem,
                          FictiveReduction)


@dataclass
class CyclicSystem:
    """A digraph winding around a directed cluster cycle with near-uniform
    degrees into consecutive clusters.

    The arcs are held per cycle edge: ``pairs[p]`` is (tails, heads,
    matrix) for the p-th edge (ci, cj) of ``cycle.edges()``, with tails
    and heads the clusters ci and cj and matrix the 0/1 arc matrix
    tails x heads (uint8 as ``sysdecom`` and ``sysdecombip`` build it).
    """

    n: int
    pairs: list[tuple[tuple[int, ...], tuple[int, ...], np.ndarray]]
    q: ClusterPartition  # plain equipartition
    cycle: ClusterCycle
    mu: float
    eps: float

    def validate(self) -> None:
        self.cycle.validate_spans(self.q)
        m = self.q.m
        lo = (1 - self.mu - self.eps) * m
        hi = (1 - self.mu + self.eps) * m
        edges = self.cycle.edges()
        if len(self.pairs) != len(edges):
            raise MalformedInput(f"{len(self.pairs)} arc matrices for "
                                 f"{len(edges)} cycle edges")
        for (ci, cj), (tails, heads, mat) in zip(edges, self.pairs):
            if (tuple(tails) != self.q.cluster(ci)
                    or tuple(heads) != self.q.cluster(cj)
                    or mat.shape != (len(tails), len(heads))
                    or not np.isin(mat, (0, 1)).all()):
                raise MalformedInput(f"the arc matrix of cycle edge "
                                     f"({ci},{cj}) is not a 0/1 matrix "
                                     f"from cluster {ci} to cluster {cj}")
            checks = ((mat.sum(axis=1), tails, cj, "out-degree", "into"),
                      (mat.sum(axis=0), heads, ci, "in-degree", "from"))
            for (degs, own, other, what, prep) in checks:
                for v, d in zip(own, degs.tolist()):
                    if not (lo <= d <= hi):
                        raise MalformedInput(
                            f"{what} {d} of {v} {prep} cluster {other} "
                            f"outside [{lo:.1f}, {hi:.1f}]")


@dataclass
class SuperregularityReport:
    eps: float
    d: float
    d_star: float
    c: float
    reg1_ok: bool
    reg2_ok: bool
    reg3_ok: bool
    reg4_ok: bool
    reg1_mode: str  # "exhaustive" | "sampled"
    pairs_tested: int
    worst_density_ratio: float
    max_codegree: int
    max_degree: int
    min_degree: int

    @property
    def all_ok(self) -> bool:
        return self.reg1_ok and self.reg2_ok and self.reg3_ok and self.reg4_ok

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "params": {"eps": self.eps, "d": self.d, "d_star": self.d_star,
                       "c": self.c},
            "verdicts": {"Reg1": self.reg1_ok, "Reg2": self.reg2_ok,
                         "Reg3": self.reg3_ok, "Reg4": self.reg4_ok},
            "reg1_mode": self.reg1_mode,
            "pairs_tested": self.pairs_tested,
            "worst_density_ratio": self.worst_density_ratio,
            "max_codegree": self.max_codegree,
            "max_degree": self.max_degree,
            "min_degree": self.min_degree,
        }


EXHAUSTIVE_REG1_LIMIT = 12


def check_superregular(graph: Host | Multigraph, left, right, eps: float,
                       d: float, d_star: float, c: float, mode: str = "auto",
                       trials: int = 200, rng: random.Random | None = None
                       ) -> SuperregularityReport:
    """Verify the four sparse-superregularity conditions on a bipartite
    pair with equal classes.

    The codegree, max-degree and min-degree verdicts are exact; the
    density-uniformity verdict is exhaustive for m <= 12 and sampled
    (``trials`` random set pairs of threshold size and larger) otherwise.
    ``mode`` forces one of the two; InvalidParameter for an unknown mode
    or for "exhaustive" above m = EXHAUSTIVE_REG1_LIMIT.
    """
    left = list(left)
    right = list(right)
    if len(left) != len(right) or not left:
        raise InvalidParameter("classes must be nonempty and of equal size")
    return _superregular_report(
        pair_matrix(graph, left, right), eps, d, d_star, c, mode, trials,
        np.random.default_rng((rng or random.Random(0)).getrandbits(64)))


def _superregular_report(mat: np.ndarray, eps: float, d: float,
                         d_star: float, c: float, mode: str, trials: int,
                         rng: np.random.Generator) -> SuperregularityReport:
    """check_superregular on the pair's m x m multiplicity matrix."""
    m = len(mat)
    if mode not in ("auto", "exhaustive", "sampled"):
        raise InvalidParameter(f"unknown Reg1 mode {mode!r}")
    if mode == "exhaustive" and m > EXHAUSTIVE_REG1_LIMIT:
        raise InvalidParameter(
            f"exhaustive Reg1 enumerates 2^m sets; m = {m} exceeds "
            f"{EXHAUSTIVE_REG1_LIMIT}")
    deg_l = mat.sum(axis=1)
    deg_r = mat.sum(axis=0)
    max_deg = int(max(deg_l.max(), deg_r.max()))
    min_deg = int(min(deg_l.min(), deg_r.min()))
    reg3 = max_deg <= c * m
    reg4 = min_deg >= d_star * m

    # codegrees on both sides (adjacency is 0/1 for codegree purposes)
    adj = mat > 0
    max_codeg = max(int(_codegrees(pack_rows(side)).max(initial=0))
                    for side in (adj, adj.T))
    reg2 = max_codeg <= c * c * m

    thresh = min(m, max(1, math.ceil(eps * m)))
    lo, hi = (1 - eps) * d, (1 + eps) * d
    worst_ratio = 1.0
    reg1 = True
    if mode == "exhaustive" or (mode == "auto" and m <= EXHAUSTIVE_REG1_LIMIT):
        reg1_mode = "exhaustive"
        masks = np.arange(1 << m, dtype=np.uint32)
        sizes = np.zeros(1 << m, dtype=np.int32)
        for b in range(m):
            sizes += ((masks >> b) & 1).astype(np.int32)
        valid = np.nonzero(sizes >= thresh)[0]
        sel = np.zeros((len(valid), m), dtype=np.int64)
        for b in range(m):
            sel[:, b] = (valid >> b) & 1
        area = sizes[valid].astype(np.int64)
        left_counts = sel @ mat  # per A-mask, edges into each right vertex
        pairs_tested = len(valid) ** 2
        for start in range(0, len(valid), 512):
            block = left_counts[start:start + 512] @ sel.T
            dens = block / np.outer(area[start:start + 512], area)
            if d > 0:
                ratios = dens / d
                worst_ratio = max(worst_ratio, float(ratios.max()),
                                  float((1.0 / ratios.clip(1e-12)).max()))
            if not ((dens >= lo - 1e-12) & (dens <= hi + 1e-12)).all():
                reg1 = False
    else:
        reg1_mode = "sampled"
        pairs_tested = trials
        # a uniform permutation's entries below k mark a uniform k-subset;
        # one indicator row per sampled set, e(A, B) = 1_A^T mat 1_B
        size_a = rng.integers(thresh, m, size=trials, endpoint=True)
        size_b = rng.integers(thresh, m, size=trials, endpoint=True)
        ranks = rng.permuted(np.tile(np.arange(m), (2 * trials, 1)), axis=1)
        ind_a = ranks[:trials] < size_a[:, None]
        ind_b = ranks[trials:] < size_b[:, None]
        e_ab = _edge_counts(mat, ind_a, ind_b)
        dens = e_ab / (size_a * size_b)
        if d > 0:
            ratios = dens / d
            inverse = np.divide(1.0, ratios, out=np.full(trials, math.inf),
                                where=ratios > 0)
            worst_ratio = float(max(ratios.max(initial=1.0),
                                    inverse.max(initial=1.0)))
        reg1 = bool(((dens >= lo - 1e-12) & (dens <= hi + 1e-12)).all())
    return SuperregularityReport(
        eps=eps, d=d, d_star=d_star, c=c, reg1_ok=reg1, reg2_ok=reg2,
        reg3_ok=reg3, reg4_ok=reg4, reg1_mode=reg1_mode,
        pairs_tested=pairs_tested, worst_density_ratio=worst_ratio,
        max_codegree=max_codeg, max_degree=max_deg, min_degree=min_deg)


def _codegrees(words: np.ndarray) -> np.ndarray:
    """The int64 codegree matrix of the rows packed in ``pack_rows``
    words: entry (i, j), i != j, is the number of bits rows i and j share,
    and the diagonal is 0.  Popcounts of the rows ANDed together, summed
    one word at a time."""
    co = np.zeros((len(words), len(words)), dtype=np.int64)
    for w in range(words.shape[1]):
        col = words[:, w]
        co += np.bitwise_count(col[:, None] & col)
    np.fill_diagonal(co, 0)
    return co


def _edge_counts(mat: np.ndarray, ind_a: np.ndarray, ind_b: np.ndarray
                 ) -> np.ndarray:
    """e(A_t, B_t) = 1_{A_t}^T mat 1_{B_t} for each row t of the boolean
    set indicators ``ind_a`` (rows of ``mat``) and ``ind_b`` (columns),
    as int64.  Over the bit planes mat = sum_k 2^k P_k, each term is
    sum over a in A_t of |N_k(a) & B_t|, a popcount of packed rows; no
    float product, so no BLAS threads under a jobs=2 process pool."""
    sets = pack_rows(ind_b)
    e_ab = np.zeros(len(ind_a), dtype=np.int64)
    for k in range(int(mat.max(initial=0)).bit_length()):
        plane = pack_rows(((mat >> k) & 1).astype(bool))
        hits = np.zeros((len(sets), len(plane)), dtype=np.int64)
        for w in range(plane.shape[1]):
            hits += np.bitwise_count(sets[:, w, None] & plane[:, w])
        e_ab += (hits * ind_a).sum(axis=1) << k
    return e_ab


EXHAUSTIVE_EXPANDER_LIMIT = 18


@dataclass
class ExpanderVerdict:
    ok: bool
    mode: str
    worst_margin: float
    sets_tested: int
    violating_set: list[int] | None = None

def check_robust_outexpander(d: Digraph, nu: float, tau: float,
                             mode: str = "auto", trials: int = 500,
                             rng: random.Random | None = None,
                             vertices=None) -> ExpanderVerdict:
    """Check the robust (nu, tau)-outexpansion condition: every S with
    tau*n <= |S| <= (1-tau)*n has at least |S| + nu*n vertices with at
    least nu*n in-neighbours in S.  Exhaustive for n <= 18, else sampled.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise InvalidParameter(f"unknown expansion mode {mode!r}")
    verts = sorted(vertices) if vertices is not None \
        else sorted(set(range(d.n)))
    n = len(verts)
    rng = rng or random.Random(0)
    pos = {v: i for i, v in enumerate(verts)}
    in_mask = [0] * n
    for (u, v) in d.arcs():
        if u in pos and v in pos:
            in_mask[pos[v]] |= 1 << pos[u]
    need = nu * n
    lo = tau * n
    hi = (1 - tau) * n

    def margin_for(mask: int, size: int) -> float:
        rn = sum(1 for i in range(n)
                 if (in_mask[i] & mask).bit_count() >= need)
        return rn - (size + nu * n)

    worst = math.inf
    worst_set = None
    if mode == "exhaustive" or (mode == "auto" and n <= EXHAUSTIVE_EXPANDER_LIMIT):
        mode = "exhaustive"
        tested = 0
        for mask in range(1, 1 << n):
            size = mask.bit_count()
            if not (lo <= size <= hi):
                continue
            tested += 1
            mg = margin_for(mask, size)
            if mg < worst:
                worst = mg
                worst_set = mask
    else:
        mode = "sampled"
        sizes = [s for s in range(n + 1) if lo <= s <= hi]
        tested = trials if sizes else 0
        for _ in range(tested):
            size = rng.choice(sizes)
            chosen = rng.sample(range(n), size)
            mask = 0
            for i in chosen:
                mask |= 1 << i
            mg = margin_for(mask, size)
            if mg < worst:
                worst = mg
                worst_set = mask
    # no set in the size window: vacuously expanding
    if worst is math.inf:
        worst = 0.0
    return ExpanderVerdict(
        ok=worst >= 0, mode=mode, worst_margin=worst, sets_tested=tested,
        violating_set=None if worst >= 0 else
        [verts[i] for i in range(n) if (worst_set >> i) & 1])


# -- sparse reservoir (random split of a near-regular pair) -------------------

# sampled Reg1 set pairs per reservoir check, and sparse reservoir draws
REG1_TRIALS = 200
SPARSE_RETRIES = 20


def reserve_sparse(graph: Multigraph, left, right, mu: float, gamma: float,
                   eps: float, rng_seed: int
                   ) -> tuple[Multigraph, Multigraph, SuperregularityReport]:
    """Split a near-regular bipartite pair G into (H, G') by including each
    edge of G in H independently with probability 2*gamma.

    H must pass (eps, 2*gamma, gamma, 3*gamma)-superregularity with exact
    codegree/degree checks and sampled density uniformity, and G' = G - H
    must have all degrees in (1 - mu +- 4*gamma) * m.  Resamples up to
    SPARSE_RETRIES times, then raises SamplingFailed naming the condition
    that kept failing.
    """
    left = list(left)
    right = list(right)
    m = len(left)
    if m != len(right) or m == 0:
        raise InvalidParameter("classes must be nonempty and of equal size")
    if gamma <= 0 or gamma >= 0.5:
        raise InvalidParameter(f"gamma must be in (0, 0.5), got {gamma}")
    if 3 * gamma * m < 1 and gamma * m > 0:
        raise SamplingFailed(
            f"3*gamma*m = {3 * gamma * m:.3f} < 1: an empty H cannot reach "
            f"minimum degree gamma*m = {gamma * m:.3f}",
            failures={"degenerate": SPARSE_RETRIES})
    support = list(graph.support())
    failures: dict[str, int] = {}
    for attempt in range(SPARSE_RETRIES):
        rng = random.Random(derive_seed(rng_seed, "sample", attempt))
        h_edges = [e for e in support if rng.random() < 2 * gamma]
        h = Multigraph(graph.n, h_edges)
        report = check_superregular(h, left, right, eps, 2 * gamma, gamma,
                                    3 * gamma, mode="sampled",
                                    trials=REG1_TRIALS,
                                    rng=random.Random(derive_seed(rng_seed, "reg1", attempt)))
        if not report.reg4_ok:
            failures["Reg4"] = failures.get("Reg4", 0) + 1
            continue
        if not report.reg3_ok:
            failures["Reg3"] = failures.get("Reg3", 0) + 1
            continue
        if not report.reg2_ok:
            failures["Reg2"] = failures.get("Reg2", 0) + 1
            continue
        if not report.reg1_ok:
            failures["Reg1"] = failures.get("Reg1", 0) + 1
            continue
        g_rest = graph - h
        lo = (1 - mu - 4 * gamma) * m
        hi = (1 - mu + 4 * gamma) * m
        degs = [g_rest.degree(v) for v in itertools.chain(left, right)]
        if not all(lo <= dd <= hi for dd in degs):
            failures["degree-window"] = failures.get("degree-window", 0) + 1
            continue
        return h, g_rest, report
    raise SamplingFailed(
        f"no valid sparse reservoir after {SPARSE_RETRIES} attempts "
        f"(improbable under the binomial tail bound at sound parameters; "
        f"check the parameterization)", failures=failures)


def reserve_regular(mat: np.ndarray, degree: int, eps: float,
                    rng_seed: int) -> tuple[np.ndarray, SuperregularityReport]:
    """Exact-degree variant of the sparse reservoir used inside the
    pipeline, on a pair's m x m multiplicity matrix ``mat`` (rows one
    class, columns the other): H is the union of ``degree`` randomly
    extracted perfect matchings, so the min/max degree conditions hold
    with certainty and only the codegree and density checks are
    randomized.  The draw packs ``mat`` once, its columns in one random
    permutation, and peels the matchings off it, each trying the rows in
    a fresh random permutation (``_random_regular_subgraph``).

    One draw: returns (chosen, report), ``chosen[k, p]`` the column
    matched to row p by H's k-th matching, and takes them out of ``mat``
    in place; or raises SamplingFailed, whose ``failures`` names the
    check that failed, and leaves ``mat`` untouched.  The report carries
    the verdicts at the literal parameters (eps, d, d/2, 3d/2) with d =
    degree/m.  The acceptance gate for the codegree uses a scale-aware
    cap max(c^2 m, mean + 5 sd + 3): the literal cap is a fixed multiple
    of the mean, which fluctuations at small m overshoot with constant
    probability, while the wide cap converges to the literal one as m
    grows.
    """
    m = len(mat)
    d = degree / m
    mean_codeg = degree * degree / m
    codeg_cap = max((1.5 * d) ** 2 * m,
                    mean_codeg + 5 * math.sqrt(mean_codeg) + 3)
    res = mat.copy()
    chosen = _random_regular_subgraph(res, degree, np.random.default_rng(
        derive_seed(rng_seed, "reserve_regular", 0)))
    if chosen is None:
        raise SamplingFailed(
            f"cannot extract {degree} edge-disjoint perfect matchings",
            failures={"matching": 1})
    report = _superregular_report(
        mat - res, eps, d, d / 2, 1.5 * d, "sampled", REG1_TRIALS,
        np.random.default_rng(derive_seed(rng_seed, "reserve_regular_reg1",
                                          0)))
    for check, ok in (("degree", report.reg3_ok and report.reg4_ok),
                      ("codegree", report.max_codegree <= codeg_cap),
                      ("Reg1", report.reg1_ok)):
        if not ok:
            raise SamplingFailed(f"the regular reservoir fails its {check} "
                                 f"check", failures={check: 1})
    mat[:] = res
    return chosen, report


def _random_regular_subgraph(res: np.ndarray, degree: int,
                             rng: np.random.Generator) -> np.ndarray | None:
    """``degree`` random perfect matchings taken out of the residual
    matrix ``res`` in place, as the degree x m array (of the smallest type
    that holds a column, so it pickles small) whose entry [k, p] is the
    column matched to row p by the k-th; or None, with ``res`` untouched,
    when the draw starves.

    One draw packs the residual once, its columns in one random
    permutation; each matching then tries the rows in a fresh random
    permutation (``classic.peel_matchings``)."""
    m = len(res)
    cols = rng.permutation(m)
    rows = rng.permuted(np.broadcast_to(np.arange(m), (degree, m)), axis=1)
    parts = peel_matchings(res, cols, rows)
    return None if parts is None else parts.astype(np.min_scalar_type(m - 1))


# -- decomposition into cyclic systems ----------------------------------------


@dataclass
class SlotInfo:
    """One ordered directed matching assigned to one Hamilton cycle slot."""

    es_index: int
    matching: OrderedDirectedMatching
    cluster_index: int  # index into the slice's equipartition


@dataclass
class SliceSide(CyclicSystem):
    """One cyclic system plus its reserve graph and assigned slots;
    ``reserve[ci, cj]``, ci < cj clusters of q, keeps H[V_ci, V_cj] as the
    r_h perfect matchings drawn for it: entry [k, p] is the position in
    V_cj matched to position p of V_ci by the k-th.  A slice carries all
    that its extension and assembly read, ``q`` its one partition, so a
    pool task ships it with eps0 and no partition of the instance."""

    side: str                      # "A", "B", or "AB"
    j: int
    reserve: dict[tuple[int, int], np.ndarray]
    slots: list[SlotInfo]


@dataclass
class DecompositionQuotas:
    """Derived quota values: the formula value from the source analysis and
    the feasibility-clamped value actually used."""

    reserve_degree_formula: int
    reserve_degree_used: int
    slot_bound: float
    matching_size_bound: float
    reserve_inner: int = 0   # bipartite: greedy-extension part of the reserve
    reserve_outer: int = 0   # bipartite: balancing part of the reserve
    notes: list[str] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return asdict(self)


def two_cliques_reserve_degree(K: int, m: int, eps0: float, mu: float,
                               rho: float, max_matching: int = 0
                               ) -> tuple[int, int, list[str]]:
    """Reserve degree for the two-cliques decomposition.

    The formula value is 10*K*sqrt(eps0)*m.  When that exceeds the
    per-slice share of the regular-extraction budget (1-4mu-rho)m, the
    degree falls back to the functional minimum 2*max_matching (the
    balanced extension needs an exactly 2*eps*m-regular graph with
    eps*m >= e(M) for every assigned matching)."""
    formula = math.floor(10 * K * math.sqrt(eps0) * m)
    return _clamp_reserve_degree(
        formula, (K - 1) // 2, m, mu, rho, max(2 * max_matching, 2), 2,
        "increase m or decrease mu/rho or the matching sizes")


def bipartite_reserve_degree(K: int, m: int, eps0: float, mu: float,
                             rho: float, need: int = 6
                             ) -> tuple[int, int, list[str]]:
    """Reserve degree for the bipartite decomposition: formula value
    (11K + 248/K)*eps0*m, falling back to the functional minimum ``need``
    (inner greedy-matching part plus outer balancing part) when the K/2
    slices do not fit the budget."""
    formula = math.floor((11 * K + 248 / K) * eps0 * m)
    return _clamp_reserve_degree(formula, K // 2, m, mu, rho, need, 5,
                                 "increase m or eps0, or decrease mu/rho")


def _clamp_reserve_degree(formula: int, slices: int, m: int, mu: float,
                          rho: float, need: int, least: int, hint: str
                          ) -> tuple[int, int, list[str]]:
    """(formula, used, notes): the formula value when ``slices`` copies fit
    the regular-extraction budget (1-4mu-rho)m, else the functional
    minimum ``need``; raises when the value used exceeds the per-slice
    share or is below ``least``."""
    budget = math.floor((1 - 4 * mu - rho) * m)
    cap = budget // slices if slices else 0
    if formula <= cap:
        used = formula
        notes = []
    else:
        used = need
        notes = [
            f"reserve degree clamped from {formula} to the functional "
            f"minimum {used}: {slices} slices x {formula} exceeds the "
            f"regular-extraction budget {budget}"]
    if used > cap or used < least:
        raise InvalidParameter(
            f"reserve degree {used} infeasible (budget share {cap})",
            hint=hint)
    return formula, used, notes


def _equal_split(items: list, parts: int, offset: int) -> list[list]:
    """Partition ``items`` into ``parts`` lists with sizes as equal as
    possible; ``offset`` rotates which parts receive the extras."""
    out: list[list] = [[] for _ in range(parts)]
    for t, item in enumerate(items):
        out[(t + offset) % parts].append(item)
    return out


def _extract_regular_parts(res: np.ndarray, left, right, parts: int,
                           degree: int, rng: np.random.Generator
                           ) -> list[np.ndarray]:
    """``parts`` edge-disjoint exactly ``degree``-regular spanning
    subgraphs of a near-regular bipartite pair, taken out of its
    multiplicity matrix ``res`` in place, each as its perfect matchings
    in the layout of ``SliceSide.reserve`` (left class first).

    Random perfect-matching extraction keeps the remainder unstructured
    (a deterministic r-factor leaves a remainder on which later Hall
    matchings fail persistently); if the randomized route starves, which
    leaves ``res`` untouched, fall back to one r-factor of the pair
    (``classic.regular_spanning_subgraph``) plus an exact
    1-factorization.
    """
    total = parts * degree
    cols = _random_regular_subgraph(res, total, rng)
    if cols is None:
        sub = regular_spanning_subgraph(res, left, right, 0.0, 0.0,
                                        degree=total)
        res -= sub
        cols = regular_bipartite_to_matchings(sub)
    return [cols[p * degree:(p + 1) * degree] for p in range(parts)]


def sysdecom(g: Host, partition: ClusterPartition,
             systems: list[ExceptionalSystem],
             reductions: list[FictiveReduction],
             mu: float = 0.0, rho: float = 0.1, seed: int = 0
             ) -> tuple[list[SliceSide], list[SliceSide], DecompositionQuotas]:
    """Decompose G[A] and G[B] into (K-1)/2 oriented blown-up Hamilton
    cycles each, with reserve graphs and a localized split of the fictive
    matchings.

    Returns (a_slices, b_slices, quotas); slice j on side A carries the
    cyclic system (G_{A,j,dir}, Q_A, C_{A,j}), the reserve graph H_{A,j}
    whose cluster pairs are exactly reserve-degree-regular, and the slots
    (one per exceptional system assigned to this slice).
    """
    if partition.mode != MODE_TWO_CLIQUES:
        raise InvalidParameter("sysdecom requires a two-cliques partition")
    K, m = partition.K, partition.m
    eps0 = partition.eps0
    if K % 2 == 0:
        raise InvalidParameter("two-cliques mode needs odd K")
    n_slices = (K - 1) // 2
    if any(red.ja_dir is None for red in reductions):
        raise InvalidParameter("two-cliques reductions required")

    max_matching = max((max(len(r.ja_dir), len(r.jb_dir))
                        for r in reductions), default=0)
    formula, r_h, notes = two_cliques_reserve_degree(K, m, eps0, mu, rho,
                                                     max_matching)
    quotas = DecompositionQuotas(
        reserve_degree_formula=formula, reserve_degree_used=r_h,
        slot_bound=(1 - 4 * mu - 3 * rho) * m / K,
        matching_size_bound=5 * K * math.sqrt(eps0) * m, notes=notes)

    # localized cells J_{i,i'} -> per-slice parts, equal as possible
    cell_split = _split_cells(systems, n_slices,
                              lambda pos, cell: cell[0] * K + cell[1])

    bound = quotas.matching_size_bound
    if max_matching > bound:
        raise InvalidParameter(
            f"fictive matching larger than 5*K*sqrt(eps0)*m = {bound:.2f}")

    cycles = walecki_decompose(K)
    sides = []
    for side, q, cell_pos, matchings in (
            ("A", partition.a_side_equipartition(), 0,
             [red.ja_dir for red in reductions]),
            ("B", partition.b_side_equipartition(), 1,
             [red.jb_dir for red in reductions])):
        # reserves per unordered cluster pair of this side
        pairs = [(i, ip, q.cluster(i), q.cluster(ip))
                 for i in range(K) for ip in range(i + 1, K)]
        slices = _cyclic_slices(g, side, q, cycles, pairs, cell_split,
                                matchings, cell_pos, r_h, mu, K, seed)
        for slc in slices:
            per_cluster = Counter(slot.cluster_index for slot in slc.slots)
            for ci, cnt in per_cluster.items():
                if cnt > quotas.slot_bound:
                    raise InvalidParameter(
                        f"slice {slc.j} side {side}: {cnt} systems localized "
                        f"at cluster {ci} exceed the per-cluster bound "
                        f"{quotas.slot_bound:.2f}",
                        hint="spread localities or reduce the system count")
        sides.append(slices)
    return sides[0], sides[1], quotas


def _split_cells(systems: list, n_slices: int, offset: Callable
                 ) -> dict[tuple, list[list[int]]]:
    """Group the systems by locality cell and split every cell over the
    slices as equally as possible; ``offset(position, cell)`` rotates
    which slices receive the extras."""
    cells: dict[tuple, list[int]] = {}
    for idx, es in enumerate(systems):
        if es.locality is None:
            raise InvalidParameter(
                f"exceptional system {idx} lacks a locality tag")
        cells.setdefault(tuple(es.locality), []).append(idx)
    return {cell: _equal_split(idxs, n_slices, offset(pos, cell))
            for pos, (cell, idxs) in enumerate(sorted(cells.items()))}


def _cyclic_slices(g: Host, side: str, q: ClusterPartition,
                   cycles: list[ClusterCycle], pairs: list[tuple],
                   cell_split: dict[tuple, list[list[int]]],
                   matchings: list[OrderedDirectedMatching],
                   cell_pos: int, r_h: int, mu: float, K: int, seed: int
                   ) -> list[SliceSide]:
    """One SliceSide per cluster cycle, shared by both modes.

    Every cluster pair (i, i', X, Y) in ``pairs``, i < i', gives up
    len(cycles) * r_h perfect matchings of G[X, Y], r_h of them the
    reserve of each slice.  What each pair keeps after its reserves are
    removed is oriented along the cluster cycle through it (the oriented
    blow-up) and kept as the slice's 0/1 arc matrix of that cycle edge.
    Slice j gets one slot per system of part j
    of each cell, carrying that system's ordered matching from
    ``matchings`` and localized at cluster ``cell[cell_pos]``.
    """
    n_slices = len(cycles)
    reserves: list[dict] = [{} for _ in range(n_slices)]
    # (tail cluster, head cluster) -> (tails, heads, residual tails x heads)
    residuals = {}
    for (i, ip, left, right) in pairs:
        res = pair_matrix(g, left, right)
        parts = _extract_regular_parts(
            res, list(left), list(right), n_slices, r_h,
            np.random.default_rng(derive_seed(seed, "reserve", side, i, ip)))
        ci, cj = q.cluster_index(left[0]), q.cluster_index(right[0])
        for j, part in enumerate(parts):
            reserves[j][ci, cj] = part
        residuals[ci, cj] = (left, right, res)
        residuals[cj, ci] = (right, left, res.T)

    slices = []
    for j, cyc in enumerate(cycles):
        arc_pairs = []
        for (ci, cj) in cyc.edges():
            tails, heads, res = residuals[ci, cj]
            arc_pairs.append((tails, heads, np.ascontiguousarray(
                res > 0, dtype=np.uint8)))
        slots = []
        for cell, parts in sorted(cell_split.items()):
            for es_idx in parts[j]:
                slots.append(SlotInfo(
                    es_index=es_idx,
                    matching=matchings[es_idx],
                    cluster_index=cell[cell_pos]))
        slices.append(SliceSide(side=side, j=j, q=q, cycle=cyc, n=g.n,
                                pairs=arc_pairs, reserve=reserves[j],
                                slots=slots,
                                mu=4 * mu, eps=5 / K))
    return slices


def sysdecombip(g: Host, partition: ClusterPartition,
                systems: list[BalancedExceptionalSystem],
                reductions: list[FictiveReduction],
                mu: float = 0.0, rho: float = 0.1, seed: int = 0
                ) -> tuple[list[SliceSide], DecompositionQuotas]:
    """Bipartite analogue of sysdecom: K/2 cyclic systems on the 2K
    clusters, each with a reserve graph that is exactly
    reserve-degree-regular on every (A_i, B_i') pair."""
    if partition.mode != MODE_BIPARTITE:
        raise InvalidParameter("sysdecombip requires a bipartite partition")
    K, m = partition.K, partition.m
    eps0 = partition.eps0
    if K % 2 == 1:
        raise InvalidParameter("bipartite mode needs even K")
    n_slices = K // 2
    if any(red.jstar_dir is None for red in reductions):
        raise InvalidParameter("bipartite reductions required")

    # functional minimum: the inner part must survive the greedy matching
    # (cluster share of J* plus e(J*) plus the per-vertex incidence), the
    # outer part hosts the balancing matchings
    need = 3
    for idx, red in enumerate(reductions):
        i1 = systems[idx].locality[0]
        a_i1 = set(partition.a_cluster(i1))
        share = sum(1 for (u, v) in red.jstar_dir.arcs
                    for x in (u, v) if x in a_i1)
        need = max(need, share + len(red.jstar_dir) + 1)
    formula, r_h, notes = bipartite_reserve_degree(K, m, eps0, mu, rho,
                                                   need + 3)
    # split the reserve into the greedy-extension part and the balancing
    # part: proportional to 11K : 248/K but never below the functional
    # minima observed above
    inner = max(need, round(r_h * 11 * K * K / (11 * K * K + 248)))
    inner = min(inner, r_h - 3)
    raw_slot_bound = (1 - 4 * mu - 3 * rho) * m / K ** 4
    quotas = DecompositionQuotas(
        reserve_degree_formula=formula, reserve_degree_used=r_h,
        slot_bound=max(1.0, raw_slot_bound),
        matching_size_bound=3 * eps0 * K * m,
        reserve_inner=inner, reserve_outer=r_h - inner, notes=notes)
    if raw_slot_bound < 1.0:
        quotas.notes.append(
            "per-cell bound (1-4mu-3rho)m/K^4 < 1 at this scale; "
            "cells of size 1 accepted")

    cell_split = _split_cells(systems, n_slices, lambda pos, cell: pos)
    for quad, parts in cell_split.items():
        for part in parts:
            if len(part) > quotas.slot_bound:
                raise InvalidParameter(
                    f"{len(part)} systems in localized cell {quad} exceed "
                    f"the per-cell bound {quotas.slot_bound:.2f}")

    # reserves on every (A_i, B_i') pair
    pairs = [(i, ip, partition.a_cluster(i), partition.b_cluster(ip))
             for i in range(K) for ip in range(K)]
    slices = _cyclic_slices(
        g, "AB", partition.ab_equipartition(), bipartite_hamilton_decompose(K),
        pairs, cell_split, [red.jstar_dir for red in reductions], 0, r_h,
        mu, K, seed)
    return slices, quotas
