"""End-to-end decomposition pipelines, the synthetic instance generator
realizing their hypotheses, and the independent certificate verifier.

The verifier shares nothing with the builders beyond the graph-core
predicates: every verdict in a certificate is recomputed from raw edge
lists.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

from . import core
from .assembly import assemble_slice
from .core import (ClusterPartition, Digraph, Multigraph,
                   canonical_json, cycle_to_perfect_matchings,
                   verify_hamilton_cycle)
# the fictive reductions, decomposers and splices are called by name
# through MODES, so they are imported but not referenced directly
from .cyclic import (CyclicSystem, DecompositionQuotas, SliceSide,
                     reserve_regular, sysdecom, sysdecombip)
from .errors import (HamdecError, HamiltonSearchExhausted, InvalidParameter,
                     MalformedInput, MatchingInfeasible, PipelineError,
                     SamplingFailed)
from .exceptional import (BalancedExceptionalSystem, ExceptionalSystem,
                          build_fictive_bipartite, build_fictive_two_cliques,
                          splice_bipartite, splice_two_cliques)
from .extension import balance_extend_bipartite, balance_extend_cliques

MODE_TWO_CLIQUES = "two-cliques"
MODE_BIPARTITE = "bipartite"


@dataclass
class InstanceConfig:
    """Parameters of a synthetic instance.

    Desk-scale defaults are chosen so that every quota in the pipeline is
    feasible with slack; the classical asymptotic hierarchy is replaced
    by exact post-verification.
    """

    mode: str = MODE_TWO_CLIQUES
    K: int = 5
    m: int = 40
    a0_size: int = 1
    b0_size: int = 1
    eps0: float = 0.005
    mu: float = 0.0125
    rho: float = 0.1
    gamma: float = 0.15
    hes_count: int = 25
    mes_count: int = 0
    bes_count: int = 0
    seed: int = 0

    @classmethod
    def two_cliques_default(cls, seed: int = 0) -> "InstanceConfig":
        return cls(seed=seed)

    @classmethod
    def bipartite_default(cls, seed: int = 0) -> "InstanceConfig":
        return cls(mode=MODE_BIPARTITE, K=4, m=40, a0_size=1, b0_size=1,
                   eps0=0.015, mu=0.0125, rho=0.1, gamma=0.1,
                   hes_count=0, mes_count=0, bes_count=16, seed=seed)

    @property
    def n(self) -> int:
        return 2 * self.K * self.m + self.a0_size + self.b0_size

    @property
    def system_count(self) -> int:
        if self.mode == MODE_BIPARTITE:
            return self.bes_count
        return self.hes_count + self.mes_count

    def validate(self) -> None:
        if self.mode not in (MODE_TWO_CLIQUES, MODE_BIPARTITE):
            raise InvalidParameter(f"unknown mode {self.mode!r}")
        if self.mode == MODE_TWO_CLIQUES and self.K % 2 == 0:
            raise InvalidParameter("two-cliques mode needs odd K")
        if self.mode == MODE_BIPARTITE and self.K % 2 == 1:
            raise InvalidParameter("bipartite mode needs even K")
        if self.K < 2 or self.m < 4:
            raise InvalidParameter("K or m too small")
        limit = (0.25 - self.mu - self.rho) * self.n
        if self.system_count > limit:
            raise InvalidParameter(
                f"{self.system_count} systems exceed (1/4-mu-rho)n = "
                f"{limit:.1f}", hint="reduce the system count")
        if self.eps0 * self.n < self.a0_size + self.b0_size:
            raise InvalidParameter(
                f"|A0 u B0| = {self.a0_size + self.b0_size} exceeds eps0*n "
                f"= {self.eps0 * self.n:.2f}", hint="increase eps0")
        if self.mode == MODE_TWO_CLIQUES:
            if self.mes_count > 0 and (self.K * self.m + self.a0_size) % 2:
                raise InvalidParameter(
                    "matching systems need |A'| = |B'| even",
                    hint="use an even exceptional-set size")
            if self.hes_count > 0 and math.sqrt(self.eps0) * self.n < 2:
                raise InvalidParameter(
                    "Hamilton systems need at least 2 cross connections "
                    "but sqrt(eps0)*n < 2")
        else:
            # each system covers V0 twice, 4 edges minimum
            min_e = 2 * (self.a0_size + self.b0_size)
            if min_e and self.eps0 * self.n < min_e:
                raise InvalidParameter(
                    f"e(J) >= {min_e} exceeds eps0*n = {self.eps0 * self.n:.2f}",
                    hint="increase eps0")

    def to_json_obj(self) -> dict:
        return {"schema": 1, **asdict(self)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InstanceConfig":
        return cls(**{f.name: obj[f.name] for f in fields(cls)
                      if f.name in obj})


# -- instance generation ----------------------------------------------------


def generate_instance(cfg: InstanceConfig
                      ) -> tuple[Multigraph, ClusterPartition, list]:
    """A host graph, partition and exceptional-system family satisfying
    the decomposition hypotheses, built deterministically from the seed.

    Strategy: small exceptional sets with high-degree exceptional
    vertices; every system takes fresh neighbour pairs of each
    exceptional vertex, so edge-disjointness holds by construction.
    """
    cfg.validate()
    rng = random.Random(core.derive_seed(cfg.seed, "instance"))
    K, m = cfg.K, cfg.m
    a0 = list(range(cfg.a0_size))
    b0 = list(range(cfg.a0_size, cfg.a0_size + cfg.b0_size))
    base = cfg.a0_size + cfg.b0_size
    a_clusters = [list(range(base + i * m, base + (i + 1) * m))
                  for i in range(K)]
    b_clusters = [list(range(base + K * m + i * m, base + K * m + (i + 1) * m))
                  for i in range(K)]
    ctor = (ClusterPartition.two_cliques if cfg.mode == MODE_TWO_CLIQUES
            else ClusterPartition.bipartite)
    partition = ctor(a0, a_clusters, b0, b_clusters, cfg.eps0)

    if cfg.mode == MODE_TWO_CLIQUES:
        host, systems = _generate_two_cliques(cfg, partition, rng)
    else:
        host, systems = _generate_bipartite(cfg, partition, rng)
    validate_hypotheses(host, partition, systems)
    return host, partition, systems


def _cluster_pools(partition: ClusterPartition, rng: random.Random):
    """Per-cluster shuffled vertex pools for fresh-vertex allocation."""
    pools = {}
    for side, count in (("A", partition.K), ("B", partition.K)):
        for i in range(count):
            vs = list(partition.a_cluster(i) if side == "A"
                      else partition.b_cluster(i))
            rng.shuffle(vs)
            pools[(side, i)] = vs
    return pools


def _take(pools, side, i, count):
    pool = pools[(side, i)]
    if len(pool) < count:
        raise InvalidParameter(
            f"cluster {side}{i} exhausted while allocating exceptional "
            f"systems", hint="reduce the system count or exceptional degree")
    out = pool[:count]
    del pool[:count]
    return out


def _generate_two_cliques(cfg: InstanceConfig, partition: ClusterPartition,
                          rng: random.Random):
    K, m = cfg.K, cfg.m
    count = cfg.system_count
    # diagonal enumeration of the K^2 cells so that partial families
    # spread evenly over rows and columns (each column receives at most
    # ceil(count / K) systems)
    cells = [(t % K, (t % K + t // K) % K) for t in range(K * K)]
    assignment = [cells[t % len(cells)] for t in range(count)]
    kinds = ["HES"] * cfg.hes_count + ["MES"] * cfg.mes_count
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
        if kinds[t] == "HES":
            xa = _take(pools, "A", i, 2)
            xb = _take(pools, "B", ip, 2)
            edges += [(xa[0], xb[0]), (xa[1], xb[1])]
        graph = Multigraph(partition.n, edges)
        systems.append(ExceptionalSystem(partition, graph, eps0=cfg.eps0,
                                         locality=(i, ip)))
        j_edges_all += edges
    host_edges = list(j_edges_all)
    host_edges += _clique_side_edges(cfg, partition, "A", rng)
    host_edges += _clique_side_edges(cfg, partition, "B", rng)
    return Multigraph(partition.n, host_edges), systems


def _clique_side_edges(cfg: InstanceConfig, partition: ClusterPartition,
                       side: str, rng: random.Random):
    """Near-complete clique side: every cluster pair is an
    (m - round(4*mu*m))-regular bipartite graph (complete minus shifted
    matchings) and every cluster interior is a circulant meeting the
    degree window."""
    K, m = cfg.K, cfg.m
    cluster = (partition.a_cluster if side == "A" else partition.b_cluster)
    edges = []
    for i in range(K):
        for ip in range(i + 1, K):
            edges += _thinned_pair_edges(cfg, cluster(i), cluster(ip), rng)
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


def _generate_bipartite(cfg: InstanceConfig, partition: ClusterPartition,
                        rng: random.Random):
    K = cfg.K
    count = cfg.system_count
    # localized quadruples spread diagonally over K^2 base cells;
    # alternate between single-cluster systems (i, i, i', i') and spread
    # ones (i, i+1, i', i'+1) for structural variety
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
        graph = Multigraph(partition.n, edges)
        systems.append(BalancedExceptionalSystem(
            partition, graph, eps0=cfg.eps0, locality=(i1, i2, i3, i4)))
        j_edges_all += edges
    host_edges = list(j_edges_all)
    for i in range(K):
        for ip in range(K):
            host_edges += _thinned_pair_edges(cfg, partition.a_cluster(i),
                                              partition.b_cluster(ip), rng)
    return Multigraph(partition.n, host_edges), systems


def _thinned_pair_edges(cfg: InstanceConfig, ci, cj, rng: random.Random):
    """The (m - round(4*mu*m))-regular bipartite graph between clusters ci
    and cj: complete minus round(4*mu*m) random shifted matchings."""
    m = cfg.m
    thin = round(4 * cfg.mu * m)
    skips = set(rng.sample(range(m), thin)) if thin else set()
    edges = []
    for x in range(m):
        for y in range(m):
            if (y - x) % m not in skips:
                edges.append((ci[x], cj[y]))
    return edges


# -- hypothesis validation ----------------------------------------------------


def validate_hypotheses(host: Multigraph, partition: ClusterPartition,
                        systems: list) -> None:
    """Check the decomposition hypotheses; raises InvalidParameter naming
    the violated condition."""
    K, m, n = partition.K, partition.m, partition.n
    mode = partition.mode
    # (a): degree window into every cluster
    _degree_window(host, partition)
    # (b): count bound and edge-disjointness; systems valid by construction
    seen: set[tuple[int, int]] = set()
    for idx, es in enumerate(systems):
        for (u, v) in es.graph.support():
            if (u, v) in seen:
                raise InvalidParameter(
                    f"systems share edge ({u},{v})")
            seen.add((u, v))
            if host.multiplicity(u, v) < 1:
                raise InvalidParameter(
                    f"system {idx} edge ({u},{v}) missing from the host")
    # (c): localized cells as equal as possible
    cells: dict[tuple, int] = {}
    for es in systems:
        cells[tuple(es.locality)] = cells.get(tuple(es.locality), 0) + 1
    total_cells = K ** 2 if mode == "two-cliques" else K ** 4
    if cells:
        sizes = sorted(cells.values())
        expected = len(systems) / total_cells
        if sizes[-1] > math.ceil(expected):
            raise InvalidParameter(
                f"localized cell of size {sizes[-1]} exceeds the "
                f"equal-as-possible bound {math.ceil(expected)}")
    # (d)
    if mode == "two-cliques":
        if any(getattr(es, "kind", "") == "MES" for es in systems):
            if (len(partition.A_prime) % 2) or (len(partition.B_prime) % 2):
                raise InvalidParameter(
                    "matching systems present but |A'|, |B'| not both even")
    else:
        limit = 2 * partition.eps0 * n
        incidence: dict[int, int] = {}
        for es in systems:
            for v in es.graph.covered_vertices():
                if partition.cluster_index(v) >= 0:
                    incidence[v] = incidence.get(v, 0) + 1
        hot = {v: c for v, c in incidence.items() if c > limit}
        if hot:
            v, c = sorted(hot.items())[0]
            raise InvalidParameter(
                f"vertex {v} meets {c} systems, above the 2*eps0*n bound "
                f"{limit:.2f}")


def _degree_window(host: Multigraph, partition: ClusterPartition) -> float:
    """Verify the per-cluster degree window d(v, X_i) = (1 - 4mu +- 4/K)m.

    mu is not an input of the validation, so the window is checked
    against the observed mean: every cluster degree must lie within
    4m/K of it.  Returns the inferred mu."""
    K, m = partition.K, partition.m
    mode = partition.mode
    degs = []
    if mode == "two-cliques":
        pairs = [(partition.A, partition.a_cluster),
                 (partition.B, partition.b_cluster)]
    else:
        pairs = [(partition.A, partition.b_cluster),
                 (partition.B, partition.a_cluster)]
    for verts, cluster in pairs:
        for i in range(K):
            target = set(cluster(i))
            for v in verts:
                degs.append(host.degree_into(v, target))
    mean = sum(degs) / len(degs)
    dev = max(abs(d - mean) for d in degs)
    if dev > 4 * m / K:
        raise InvalidParameter(
            f"cluster-degree deviation {dev:.1f} exceeds the window "
            f"half-width 4m/K = {4 * m / K:.1f}")
    return 1 - mean / m


def trim_instance(host: Multigraph, partition: ClusterPartition,
                  systems: list) -> Multigraph:
    """Drop host edges outside G[A] + G[B] (two-cliques) or G[A, B]
    (bipartite) that no exceptional system covers, so the family is an
    exact edge-decomposition of the remainder.  Opt-in policy; the
    pipelines run fine without it."""
    a, b = set(partition.A), set(partition.B)
    if partition.mode == MODE_TWO_CLIQUES:
        def is_core(u, v):
            return (u in a and v in a) or (u in b and v in b)
    else:
        def is_core(u, v):
            return (u in a and v in b) or (u in b and v in a)
    covered: set[tuple[int, int]] = set()
    for es in systems:
        covered.update(es.graph.support())
    edges = []
    for (u, v, k) in host.edges():
        if is_core(u, v) or (u, v) in covered:
            edges.append((u, v, k))
    return Multigraph(host.n, edges)


# -- certificates ------------------------------------------------------------


@dataclass
class DecompositionCertificate:
    """The output bundle: per-slot spanning subgraph plus verifier
    verdicts and global accounting.  Serialization is canonical, so a
    fixed (config, seed) pair reproduces the bytes exactly."""

    mode: str
    params: dict
    slots: list[dict]
    global_report: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"schema": 1, "mode": self.mode, "params": self.params,
                "slots": self.slots, "global": self.global_report}

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DecompositionCertificate":
        return cls(mode=obj["mode"], params=obj["params"],
                   slots=obj["slots"], global_report=obj["global"])


def _edge_hash(edges: list) -> str:
    """Content hash of a slot's edge list; lets consumers compare slots
    for accidental duplication without shipping the lists around."""
    import hashlib
    return hashlib.sha256(canonical_json(edges).encode()).hexdigest()


def _reserve_degree_for(pair_min_degree: int, gamma: float, m: int,
                        q: int) -> int:
    """Reservoir degree: 2*gamma*m clamped so the remaining winding graph
    can still host one perfect matching per slot with slack."""
    want = round(2 * gamma * m)
    cap = pair_min_degree - q - 2
    r = min(want, cap)
    if r < 3:
        raise InvalidParameter(
            f"no room for a merge reservoir: pair degree {pair_min_degree}, "
            f"{q} slots", hint="reduce the system count or mu")
    return r


SLICE_RETRIES = 6


@dataclass(frozen=True)
class ModeSpec:
    """What the shared decomposition skeleton needs to know about a mode.

    The public stage functions are held by name and looked up in this
    module's globals when a stage runs, so a wrapper installed over a
    stage (a tracer, a profiler) sees every call.  ``decomposer`` doubles
    as the PipelineError stage name of the cyclic-system decomposition;
    ``splice`` takes one cycle per slice list the decomposer returns, in
    that order.
    """

    mode: str
    system_class: type
    entry_point: str
    fictive: str
    decomposer: str
    extend: Callable
    splice: str


def _extend_cliques(slc: SliceSide, partition: ClusterPartition, systems,
                    reductions, quotas: DecompositionQuotas):
    """Two-cliques balanced extension of one slice; returns the extension
    and the slot index of each of its path sequences."""
    groups: dict[int, list] = {}
    group_slots: dict[int, list[int]] = {}
    for t, slot in enumerate(slc.slots):
        groups.setdefault(slot.cluster_index, []).append(slot.matching)
        group_slots.setdefault(slot.cluster_index, []).append(t)
    eps_be = quotas.reserve_degree_used / (2 * partition.m)
    be, order = balance_extend_cliques(
        groups, slc.q, slc.cycle, slc.h_reserve, eps_be, slc.g_dir.n)
    return be, [group_slots[ci][gi] for (ci, gi) in order]


def _extend_bipartite(slc: SliceSide, partition: ClusterPartition, systems,
                      reductions, quotas: DecompositionQuotas):
    """Bipartite balanced extension of one slice; its path sequences come
    in slot order."""
    idxs = [slot.es_index for slot in slc.slots]
    be = balance_extend_bipartite(
        [systems[i] for i in idxs], [reductions[i] for i in idxs],
        partition, slc.cycle, slc.h_reserve, partition.eps0,
        quotas.reserve_inner, quotas.reserve_outer)
    return be, list(range(len(slc.slots)))


MODES = {
    MODE_TWO_CLIQUES: ModeSpec(
        MODE_TWO_CLIQUES, ExceptionalSystem, "approx_decompose_two_cliques",
        "build_fictive_two_cliques", "sysdecom", _extend_cliques,
        "splice_two_cliques"),
    MODE_BIPARTITE: ModeSpec(
        MODE_BIPARTITE, BalancedExceptionalSystem,
        "approx_decompose_bipartite", "build_fictive_bipartite",
        "sysdecombip", _extend_bipartite, "splice_bipartite"),
}


def _slice_hamilton_cycles(mode: str, slc: SliceSide,
                           partition: ClusterPartition, systems, reductions,
                           quotas: DecompositionQuotas, gamma: float,
                           seed: int) -> dict[int, Digraph]:
    """Run balanced extension + reservoir split + assembly for one slice;
    returns {es_index: directed Hamilton cycle consistent with its
    fictive matching}."""
    n = slc.g_dir.n
    m = slc.q.m
    q_count = len(slc.slots)
    if q_count == 0:
        return {}
    be, be_to_slot = MODES[mode].extend(slc, partition, systems, reductions,
                                        quotas)

    # merge reservoir carved out of the cyclic system itself; if a Hall
    # matching or a merge search fails, re-roll the reservoir (the bad
    # event is a property of the random draw, not of the instance)
    pair_min = _min_pair_degree(slc)
    r_res = _reserve_degree_for(pair_min, gamma, m, q_count)
    last_error: HamdecError | None = None
    for attempt in range(SLICE_RETRIES):
        res_arcs: set[tuple[int, int]] = set()
        keep_arcs = set(slc.g_dir._arcs)
        for ci in slc.cycle.order:
            cj = slc.cycle.successor(ci)
            tails, heads = list(slc.q.cluster(ci)), list(slc.q.cluster(cj))
            tail_set, head_set = set(tails), set(heads)
            und = Multigraph(n, [(u, v) for (u, v) in slc.g_dir._arcs
                                 if u in tail_set and v in head_set])
            h_res, _rest, _rep = reserve_regular(
                und, tails, heads, r_res, 0.5,
                rng_seed=core.derive_seed(seed, "res", slc.side, slc.j, ci,
                                          attempt))
            for (u, v) in h_res.support():
                a = (u, v) if u in tail_set else (v, u)
                res_arcs.add(a)
                keep_arcs.discard(a)
        reservoir = Digraph(n, res_arcs)
        g_prime = Digraph(n, keep_arcs)
        system = CyclicSystem(g_prime, slc.q, slc.cycle, slc.mu, 1.0)
        try:
            asm = assemble_slice(
                system, be, reservoir,
                seed=core.derive_seed(seed, "asm", slc.side, slc.j, attempt))
        except (MatchingInfeasible, HamiltonSearchExhausted,
                SamplingFailed) as e:
            last_error = e
            continue
        out: dict[int, Digraph] = {}
        for be_pos, cyc in enumerate(asm.cycles):
            slot = slc.slots[be_to_slot[be_pos]]
            out[slot.es_index] = cyc
        return out
    raise last_error


def _min_pair_degree(slc: SliceSide) -> int:
    worst = None
    for ci in slc.cycle.order:
        cj = slc.cycle.successor(ci)
        heads = set(slc.q.cluster(cj))
        for u in slc.q.cluster(ci):
            d = slc.g_dir.out_degree(u, heads)
            worst = d if worst is None else min(worst, d)
    return worst or 0


def _run_slice_tasks(tasks: list[tuple], jobs: int, seed: int) -> list[dict]:
    """Run _slice_hamilton_cycles over independent slices, optionally in
    a process pool; results merge deterministically (disjoint key sets).
    The first failing slice, in task order, raises the PipelineError of
    stage ``assemble`` that names it (side and index, e.g. ``A1``)."""
    def collect(outcomes) -> list[dict]:
        results = []
        for task, outcome in zip(tasks, outcomes):
            try:
                results.append(outcome())
            except HamdecError as e:
                slc = task[1]
                raise PipelineError("assemble", e,
                                    slice_index=f"{slc.side}{slc.j}",
                                    seed=seed) from e
        return results

    if jobs <= 1 or len(tasks) <= 1:
        return collect(functools.partial(_slice_hamilton_cycles, *t)
                       for t in tasks)
    import concurrent.futures as cf
    with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_slice_hamilton_cycles, *t) for t in tasks]
        return collect(f.result for f in futures)


def _decompose(spec: ModeSpec, host: Multigraph, partition: ClusterPartition,
               systems: list, mu: float, rho: float, gamma: float, seed: int,
               jobs: int) -> DecompositionCertificate:
    """The stage sequence shared by both modes: validate, fictive
    reduction, cyclic-system decomposition, per-slice extension and
    assembly, splice, certificate, verification."""
    try:
        validate_hypotheses(host, partition, systems)
    except HamdecError as e:
        raise PipelineError("validate", e, seed=seed) from e
    try:
        fictive = globals()[spec.fictive]
        reductions = [fictive(es) for es in systems]
    except HamdecError as e:
        raise PipelineError("fictive", e, seed=seed) from e
    try:
        *slice_lists, quotas = globals()[spec.decomposer](
            host, partition, systems, reductions, mu, rho, seed)
    except HamdecError as e:
        raise PipelineError(spec.decomposer, e, seed=seed) from e
    owners = [(k, slc) for k, slices in enumerate(slice_lists)
              for slc in slices]
    tasks = [(spec.mode, slc, partition, systems, reductions, quotas, gamma,
              seed) for (_k, slc) in owners]
    results = _run_slice_tasks(tasks, jobs, seed)
    # cycles[k][es_index]: the cycle from slice list k
    cycles: list[dict[int, Digraph]] = [{} for _ in slice_lists]
    for (k, _slc), result in zip(owners, results):
        cycles[k].update(result)
    splice = globals()[spec.splice]
    slots = []
    for idx, es in enumerate(systems):
        try:
            spanning = splice(*(side[idx] for side in cycles), es,
                              reductions[idx])
        except HamdecError as e:
            raise PipelineError("splice", e, slot=idx, seed=seed) from e
        edges = sorted([u, v] for (u, v) in spanning.support())
        slots.append({
            "es_index": idx,
            "kind": es.kind,
            "edges": edges,
            "edges_sha256": _edge_hash(edges),
        })
    params = {
        "mode": spec.mode, "K": partition.K, "m": partition.m,
        "n": partition.n, "mu": mu, "rho": rho, "gamma": gamma,
        "seed": seed, "eps0": partition.eps0,
        "quotas": quotas.to_json_obj(),
    }
    cert = DecompositionCertificate(mode=spec.mode, params=params,
                                    slots=slots)
    report = verify_certificate(host, partition, systems, cert)
    _embed_verdicts(cert, report)
    return cert


def approx_decompose_two_cliques(host: Multigraph,
                                 partition: ClusterPartition,
                                 systems: list[ExceptionalSystem],
                                 mu: float, rho: float, gamma: float,
                                 seed: int = 0,
                                 jobs: int = 1) -> DecompositionCertificate:
    """Extend each exceptional system into a Hamilton cycle (HES) or a
    pair of edge-disjoint perfect matchings (MES), using only edges
    inside the two clique sides, all outputs pairwise edge-disjoint."""
    return _decompose(MODES[MODE_TWO_CLIQUES], host, partition, systems, mu,
                      rho, gamma, seed, jobs)


def approx_decompose_bipartite(host: Multigraph,
                               partition: ClusterPartition,
                               systems: list[BalancedExceptionalSystem],
                               mu: float, rho: float, gamma: float,
                               seed: int = 0,
                               jobs: int = 1) -> DecompositionCertificate:
    """Extend each balanced exceptional system into a Hamilton cycle of
    the host, all cycles pairwise edge-disjoint."""
    return _decompose(MODES[MODE_BIPARTITE], host, partition, systems, mu,
                      rho, gamma, seed, jobs)


def _embed_verdicts(cert: DecompositionCertificate, report: dict) -> None:
    for slot, verdicts in zip(cert.slots, report["slots"]):
        slot["verdicts"] = verdicts
    cert.global_report = report["global"]


# -- the independent verifier -------------------------------------------------


def verify_certificate(host: Multigraph, partition: ClusterPartition,
                       systems: list, cert: DecompositionCertificate) -> dict:
    """Recompute every verdict from the raw edge lists in the certificate:
    exactly one slot per system, per-slot structure (Hamiltonicity or
    matching-pair decomposition, by the kind of the assigned system, which
    the slot must claim), containment of the assigned system, membership
    of every edge in the host, global pairwise edge-disjointness by
    multiset accounting, and the coverage fraction.  A slot that cannot be
    read (not an object, an index that names no system, a missing key, an
    edge that is no vertex pair of the host) gets the verdict
    ``{"ok": false}``."""
    all_vertices = set(partition.vertices())
    a_pr = set(partition.A_prime)
    b_pr = set(partition.B_prime)
    slot_reports = []
    used_edges: list[tuple[int, int, int]] = []
    slot_counts = [0] * len(systems)
    coverage_edges = 0
    failures = []
    for slot in cert.slots:
        idx = slot.get("es_index") if isinstance(slot, dict) else None
        read = None
        # JSON true/false would pass isinstance(idx, int) as 1/0
        if type(idx) is int and 0 <= idx < len(systems):
            slot_counts[idx] += 1
            read = _read_slot(slot, host.n)
        if read is None:
            slot_reports.append({"ok": False})
            failures.append(idx)
            continue
        kind, sub = read
        es = systems[idx]
        verdicts = {}
        verdicts["in_host"] = sub.is_submultigraph_of(host)
        verdicts["contains_system"] = es.graph.is_submultigraph_of(sub)
        if "edges_sha256" in slot:
            verdicts["hash_ok"] = slot["edges_sha256"] == _edge_hash(
                slot["edges"])
        if es.kind == "MES":
            cyc_a = verify_hamilton_cycle(sub.restrict(a_pr), a_pr)
            cyc_b = verify_hamilton_cycle(sub.restrict(b_pr), b_pr)
            cross = sub.edges_between(a_pr, b_pr) == 0
            verdicts["bi_hamiltonian"] = cyc_a and cyc_b and cross
            if len(a_pr) % 2 == 0 and len(b_pr) % 2 == 0:
                verdicts["matching_pair"] = _splits_into_matchings(
                    sub, a_pr, b_pr)
            structure_ok = verdicts["bi_hamiltonian"] and \
                verdicts.get("matching_pair", True)
        else:
            verdicts["hamiltonian"] = verify_hamilton_cycle(sub, all_vertices)
            structure_ok = verdicts["hamiltonian"]
        ok = structure_ok and kind == es.kind and verdicts["in_host"] and \
            verdicts["contains_system"] and verdicts.get("hash_ok", True)
        verdicts["ok"] = ok
        if not ok:
            failures.append(idx)
        slot_reports.append(verdicts)
        used_edges.extend(sub.edges())
        coverage_edges += sub.edge_count() - es.graph.edge_count()
    # every system is extended exactly once: a missing or repeated slot
    # fails the certificate even when each present slot is valid
    failures += [idx for idx, count in enumerate(slot_counts) if count != 1]
    usage = Multigraph(host.n, used_edges)
    edge_disjoint = usage.is_submultigraph_of(host) and usage.is_simple()
    if partition.mode == MODE_TWO_CLIQUES:
        denom = (host.edges_inside(partition.A)
                 + host.edges_inside(partition.B))
    else:
        denom = host.edges_between(partition.A, partition.B)
    coverage = coverage_edges / denom if denom else 0.0
    global_report = {
        "edge_disjoint": edge_disjoint,
        "slot_failures": failures,
        "coverage_fraction": round(coverage, 6),
        "all_ok": edge_disjoint and not failures,
    }
    return {"slots": slot_reports, "global": global_report}


def _read_slot(slot: dict, n: int):
    """(claimed kind, edge multigraph) of a certificate slot, or None when
    the slot cannot be read."""
    try:
        return slot["kind"], Multigraph(n, [tuple(e) for e in slot["edges"]])
    except (KeyError, TypeError, ValueError, MalformedInput):
        return None


def _splits_into_matchings(sub: Multigraph, a_pr, b_pr) -> bool:
    try:
        m1a, m2a = cycle_to_perfect_matchings(sub.restrict(a_pr), a_pr)
        m1b, m2b = cycle_to_perfect_matchings(sub.restrict(b_pr), b_pr)
    except HamdecError:
        return False
    total = m1a + m2a + m1b + m2b
    return total == sub.restrict(a_pr) + sub.restrict(b_pr)
