"""End-to-end decomposition pipelines, the synthetic instance generator
realizing their hypotheses, and the independent certificate verifier.

The verifier shares nothing with the builders beyond the graph-core
predicates: every verdict in a certificate is recomputed from raw edge
lists.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import random
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from . import core
from .assembly import assemble_slice
from .classic import pair_matrix
from .core import (MODE_BIPARTITE, MODE_TWO_CLIQUES, ClusterPartition, Host,
                   Multigraph, canonical_json, undirected_cycle_order,
                   vertex_mask)
# the fictive reductions, decomposers and splices are called by name
# through MODES, so they are imported but not referenced directly
from .cyclic import (DecompositionQuotas, SliceSide, reserve_regular,
                     sysdecom, sysdecombip)
from .errors import (HamdecError, HamiltonSearchExhausted, InvalidParameter,
                     MalformedInput, MatchingInfeasible, PipelineError,
                     SamplingFailed)
from .exceptional import (KIND_HES, KIND_MES, BalancedExceptionalSystem,
                          ExceptionalSystem, build_fictive_bipartite,
                          build_fictive_two_cliques, splice_bipartite,
                          splice_two_cliques)
from .extension import balance_extend_bipartite, balance_extend_cliques


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
        if self.mode == MODE_BIPARTITE and (self.hes_count or self.mes_count):
            raise InvalidParameter(
                f"bipartite mode takes no Hamilton or matching systems, got "
                f"hes_count={self.hes_count}, mes_count={self.mes_count}",
                hint="set hes_count and mes_count to 0 and use bes_count")
        if self.mode == MODE_TWO_CLIQUES and self.bes_count:
            raise InvalidParameter(
                f"two-cliques mode takes no bipartite systems, got "
                f"bes_count={self.bes_count}",
                hint="set bes_count to 0 and use hes_count and mes_count")
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
        """The config of a JSON object; raises MalformedInput on a
        non-object or a field of the wrong type: a mode that is not a
        string, a size, count or seed that is not an exact int, a rate
        that is neither int nor float, or a boolean anywhere."""
        if not isinstance(obj, dict):
            raise MalformedInput("an instance config must be a JSON object")
        accepted = {"str": (str,), "int": (int,), "float": (int, float)}
        for f in fields(cls):
            if f.name in obj and type(obj[f.name]) not in accepted[f.type]:
                raise MalformedInput(f"config field {f.name!r} must be of "
                                     f"type {f.type}, not {obj[f.name]!r}")
        return cls(**{f.name: obj[f.name] for f in fields(cls)
                      if f.name in obj})


# -- instance generation ----------------------------------------------------


def generate_instance(cfg: InstanceConfig
                      ) -> tuple[Host, ClusterPartition, list]:
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
    kinds = [KIND_HES] * cfg.hes_count + [KIND_MES] * cfg.mes_count
    rng.shuffle(kinds)
    pools = _cluster_pools(partition, rng)
    systems = []
    mat = np.zeros((partition.n, partition.n), dtype=np.uint8)
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
        graph = Multigraph(partition.n, edges)
        systems.append(ExceptionalSystem(partition, graph, eps0=cfg.eps0,
                                         locality=(i, ip)))
        _add_graph(mat, graph)
    _add_clique_side(cfg, partition, "A", rng, mat)
    _add_clique_side(cfg, partition, "B", rng, mat)
    return Host.from_matrix(mat), systems


def _add_clique_side(cfg: InstanceConfig, partition: ClusterPartition,
                     side: str, rng: random.Random, mat: np.ndarray) -> None:
    """Add a near-complete clique side to the host matrix ``mat``: every
    cluster pair is an (m - round(4*mu*m))-regular bipartite graph
    (complete minus shifted matchings) and every cluster interior is a
    circulant meeting the degree window."""
    K, m = cfg.K, cfg.m
    cluster = (partition.a_cluster if side == "A" else partition.b_cluster)
    for i in range(K):
        for ip in range(i + 1, K):
            _add_block(mat, cluster(i), cluster(ip),
                       _thinned_pair_block(cfg, rng))
    lo = (1 - 4 * cfg.mu - 4 / K) * m
    d_inner = max(0, math.ceil(lo))
    d_inner += d_inner % 2
    if d_inner >= m:
        raise InvalidParameter("inner-cluster degree demand exceeds m - 1")
    # the edges x -> x + shift, shift = 1..d_inner/2; _add_block adds the
    # transpose too
    shifts = _shifts(m)
    circulant = (shifts >= 1) & (shifts <= d_inner // 2)
    for i in range(K):
        _add_block(mat, cluster(i), cluster(i), circulant)


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
    mat = np.zeros((partition.n, partition.n), dtype=np.uint8)
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
        _add_graph(mat, graph)
    for i in range(K):
        for ip in range(K):
            _add_block(mat, partition.a_cluster(i), partition.b_cluster(ip),
                       _thinned_pair_block(cfg, rng))
    return Host.from_matrix(mat), systems


def _shifts(m: int) -> np.ndarray:
    """The m x m matrix of (y - x) mod m."""
    return (np.arange(m)[None, :] - np.arange(m)[:, None]) % m


def _thinned_pair_block(cfg: InstanceConfig, rng: random.Random
                        ) -> np.ndarray:
    """The (m - round(4*mu*m))-regular bipartite graph between two
    clusters, as a boolean m x m block: complete minus round(4*mu*m)
    random shifted matchings."""
    m = cfg.m
    thin = round(4 * cfg.mu * m)
    skips = rng.sample(range(m), thin) if thin else []
    return ~np.isin(_shifts(m), skips)


def _add_graph(mat: np.ndarray, graph: Multigraph) -> None:
    """Add the edges of a sparse graph to the symmetric matrix ``mat``."""
    us, vs, ks = graph.key_arrays()
    mat[us, vs] += ks.astype(np.uint8)
    mat[vs, us] += ks.astype(np.uint8)


def _add_block(mat: np.ndarray, rows, cols, block: np.ndarray) -> None:
    """Add the edges x ~ y with block[i, j] = 1, x = rows[i], y = cols[j],
    to the symmetric matrix ``mat``."""
    mat[np.ix_(rows, cols)] += block
    mat[np.ix_(cols, rows)] += block.T


# -- hypothesis validation ----------------------------------------------------


def validate_hypotheses(host: Host, partition: ClusterPartition,
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
    total_cells = K ** 2 if mode == MODE_TWO_CLIQUES else K ** 4
    if cells:
        sizes = sorted(cells.values())
        expected = len(systems) / total_cells
        if sizes[-1] > math.ceil(expected):
            raise InvalidParameter(
                f"localized cell of size {sizes[-1]} exceeds the "
                f"equal-as-possible bound {math.ceil(expected)}")
    # (d)
    if mode == MODE_TWO_CLIQUES:
        if any(getattr(es, "kind", "") == KIND_MES for es in systems):
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


def _degree_window(host: Host, partition: ClusterPartition) -> float:
    """Verify the per-cluster degree window d(v, X_i) = (1 - 4mu +- 4/K)m.

    mu is not an input of the validation, so the window is checked
    against the observed mean: every cluster degree must lie within
    4m/K of it.  Returns the inferred mu."""
    K, m = partition.K, partition.m
    a_side, b_side = partition.clusters[:K], partition.clusters[K:]
    # the targets are clusters 0..K-1 of one side, m columns each
    pairs = [(a_side, partition.A), (b_side, partition.B)] \
        if partition.mode == MODE_TWO_CLIQUES \
        else [(a_side, partition.B), (b_side, partition.A)]
    degs = []
    for clusters, targets in pairs:
        for cluster in clusters:
            degs.extend(pair_matrix(host, cluster, targets).reshape(
                m, K, m).sum(axis=2).ravel().tolist())
    mean = sum(degs) / len(degs)
    dev = max(abs(d - mean) for d in degs)
    if dev > 4 * m / K:
        raise InvalidParameter(
            f"cluster-degree deviation {dev:.1f} exceeds the window "
            f"half-width 4m/K = {4 * m / K:.1f}")
    return 1 - mean / m


# -- certificates ------------------------------------------------------------


def _is_rate(value) -> bool:
    return type(value) is int or (type(value) is float
                                  and math.isfinite(value))


# the certificate params that the instance does not determine, with the
# type each must have
_PARAM_TYPES = (
    ("seed", lambda v: type(v) is int, "an int"),
    *((key, _is_rate, "a finite int or float")
      for key in ("mu", "rho", "gamma")),
    ("quotas", lambda v: isinstance(v, dict), "an object"),
)


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
        """Raises MalformedInput on a missing key, a ``schema`` other than
        the int 1, non-list slots, or params of the wrong type: a
        ``seed`` that is not an int, a ``mu``, ``rho`` or
        ``gamma`` that is not a finite int or float, or ``quotas`` that
        are not an object (a boolean is none of these)."""
        if not isinstance(obj, dict):
            raise MalformedInput("a certificate must be a JSON object")
        for key in ("schema", "mode", "params", "slots", "global"):
            if key not in obj:
                raise MalformedInput(f"certificate lacks the key {key!r}")
        if type(obj["schema"]) is not int or obj["schema"] != 1:
            raise MalformedInput(f"certificate schema {obj['schema']!r} != 1")
        if not isinstance(obj["slots"], list):
            raise MalformedInput("certificate slots must be a list")
        params = obj["params"] if isinstance(obj["params"], dict) else {}
        for key, ok, what in _PARAM_TYPES:
            if key in params and not ok(params[key]):
                raise MalformedInput(f"certificate params.{key} "
                                     f"{params[key]!r} is not {what}")
        return cls(mode=obj["mode"], params=obj["params"],
                   slots=obj["slots"], global_report=obj["global"])


def _edge_hash(text: str) -> str:
    """Content hash of a slot's edge list, given as its canonical JSON
    text; lets consumers compare slots for accidental duplication without
    shipping the lists around."""
    return hashlib.sha256(text.encode()).hexdigest()


def instance_sha256(host: Host, partition: ClusterPartition,
                    systems: list) -> str:
    """The digest that binds a certificate to its instance: sha256 over
    the bytes of the host matrix (row-major, as ``matrix.tobytes()``
    gives them), then the canonical JSON of the partition and of the
    systems."""
    digest = hashlib.sha256(np.ascontiguousarray(host.matrix).data)
    digest.update(canonical_json({
        "partition": partition.to_json_obj(),
        "systems": [es.to_json_obj() for es in systems]}).encode())
    return digest.hexdigest()


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


def _extend_cliques(slc: SliceSide, eps0: float,
                    quotas: DecompositionQuotas):
    """Two-cliques balanced extension of one slice; returns the extension
    and the slot index of each of its path sequences; ``eps0`` is unused."""
    groups: dict[int, list] = {}
    group_slots: dict[int, list[int]] = {}
    for t, slot in enumerate(slc.slots):
        groups.setdefault(slot.cluster_index, []).append(slot.matching)
        group_slots.setdefault(slot.cluster_index, []).append(t)
    eps_be = quotas.reserve_degree_used / (2 * slc.q.m)
    be, order = balance_extend_cliques(
        groups, slc.q, slc.cycle, slc.reserve, eps_be)
    return be, [group_slots[ci][gi] for (ci, gi) in order]


def _extend_bipartite(slc: SliceSide, eps0: float,
                      quotas: DecompositionQuotas):
    """Bipartite balanced extension of one slice; its path sequences come
    in slot order."""
    be = balance_extend_bipartite(
        [slot.matching for slot in slc.slots],
        [slot.cluster_index for slot in slc.slots], slc.q, slc.cycle,
        slc.reserve, eps0, quotas.reserve_inner, quotas.reserve_outer)
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


def _slice_hamilton_cycles(mode: str, slc: SliceSide, eps0: float,
                           quotas: DecompositionQuotas, gamma: float,
                           seed: int) -> dict[int, list[int]]:
    """Run balanced extension + reservoir split + assembly for one slice;
    returns {es_index: directed Hamilton cycle consistent with its
    fictive matching, as its vertex order}.  Orders are plain int lists,
    so a result that comes back from a pool worker pickles small."""
    m = slc.q.m
    q_count = len(slc.slots)
    if q_count == 0:
        return {}
    be, be_to_slot = MODES[mode].extend(slc, eps0, quotas)

    # merge reservoir carved out of the cyclic system itself; if a carve
    # fails its gate, or a Hall matching or a merge search fails, re-roll
    # the reservoir (the bad event is a property of the random draw, not
    # of the instance)
    pair_min = min(int(mat.sum(axis=1).min()) for (_t, _h, mat) in slc.pairs)
    r_res = _reserve_degree_for(pair_min, gamma, m, q_count)
    last_error: HamdecError | None = None
    for attempt in range(SLICE_RETRIES):
        try:
            # the reservoir as one boolean block per cycle edge: what
            # reserve_regular takes out of the pair matrix
            reservoir: list[np.ndarray] = []
            kept = []
            for (ci, _cj), (tails, heads, mat) in zip(slc.cycle.edges(),
                                                      slc.pairs):
                rest = mat.copy()
                reserve_regular(
                    rest, r_res, 0.5,
                    rng_seed=core.derive_seed(seed, "res", slc.side, slc.j,
                                              ci, attempt))
                reservoir.append(mat > rest)
                kept.append((tails, heads, rest))
            asm = assemble_slice(
                dataclasses.replace(slc, pairs=kept), be, reservoir,
                seed=core.derive_seed(seed, "asm", slc.side, slc.j, attempt))
        except (MatchingInfeasible, HamiltonSearchExhausted,
                SamplingFailed) as e:
            last_error = e
            continue
        out: dict[int, list[int]] = {}
        for be_pos, cyc in enumerate(asm.cycles):
            slot = slc.slots[be_to_slot[be_pos]]
            out[slot.es_index] = cyc
        return out
    raise last_error


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


def _decompose(spec: ModeSpec, host: Host, partition: ClusterPartition,
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
    # a task ships its slice and eps0: no system, reduction or partition
    tasks = [(spec.mode, slc, partition.eps0, quotas, gamma, seed)
             for (_k, slc) in owners]
    results = _run_slice_tasks(tasks, jobs, seed)
    # cycles[k][es_index]: the cycle from slice list k
    cycles: list[dict[int, list[int]]] = [{} for _ in slice_lists]
    for (k, _slc), result in zip(owners, results):
        cycles[k].update(result)
    splice = globals()[spec.splice]
    # one int object per vertex, shared by the edge lists of all slots
    vertex = np.arange(host.n, dtype=object)
    slots = []
    for idx, es in enumerate(systems):
        try:
            spanning = splice(*(side[idx] for side in cycles), es,
                              reductions[idx])
        except HamdecError as e:
            raise PipelineError("splice", e, slot=idx, seed=seed) from e
        # the splice lists the distinct edges in sorted order
        us, vs, _ks = spanning.key_arrays()
        edges = vertex[np.stack((us, vs), axis=1)].tolist()
        slots.append({
            "es_index": idx,
            "kind": es.kind,
            "edges": edges,
            "edges_sha256": _edge_hash(canonical_json(edges)),
        })
    params = {
        "mode": spec.mode, "K": partition.K, "m": partition.m,
        "n": partition.n, "mu": mu, "rho": rho, "gamma": gamma,
        "seed": seed, "eps0": partition.eps0,
        "quotas": quotas.to_json_obj(),
        "instance_sha256": instance_sha256(host, partition, systems),
    }
    cert = DecompositionCertificate(mode=spec.mode, params=params,
                                    slots=slots)
    report = verify_certificate(host, partition, systems, cert)
    _embed_verdicts(cert, report)
    return cert


def approx_decompose_two_cliques(host: Host,
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


def approx_decompose_bipartite(host: Host,
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


def verify_certificate(host: Host, partition: ClusterPartition,
                       systems: list, cert: DecompositionCertificate) -> dict:
    """Recompute every verdict from the raw edge lists in the certificate:
    exactly one slot per system, per-slot structure (Hamiltonicity or
    matching-pair decomposition, by the kind of the assigned system, which
    the slot must claim), containment of the assigned system, membership
    of every edge in the host, global pairwise edge-disjointness by
    multiset accounting, the coverage fraction, and ``instance_match``:
    the certificate's ``params.instance_sha256`` must be the
    ``instance_sha256`` of the given instance, and its ``mode``,
    ``params.mode``, ``.K``, ``.m``, ``.n`` and ``.eps0`` the
    partition's (exact types).  Embedded verdicts are never read.  A slot
    that cannot be read (not an object, an index that names no system, a
    missing key, an edge that is not a pair of distinct int vertices of
    the host) gets the verdict ``{"ok": false}``.

    Each slot's edge list is serialized once to canonical JSON; that text
    is type-checked, parsed into int64 (lo, hi) arrays and hashed for
    ``hash_ok``.  An edge is the key lo * base + hi, and the host's
    multiplicities come from its matrix.  Raises MalformedInput when the
    partition names a vertex outside the host."""
    n = host.n
    everything = vertex_mask(partition.vertices(), n)
    if everything is None:
        raise MalformedInput("the partition names a vertex outside the host")
    a_pr, b_pr = partition.A_prime, partition.B_prime
    a_mask, b_mask = vertex_mask(a_pr, n), vertex_mask(b_pr, n)
    mat = host.matrix
    # an edge (u, v) is the key u * base + v; a base past every system's
    # vertex range keeps a system edge off the host from matching a slot
    base = max([n] + [es.graph.n for es in systems])
    slot_reports = []
    used_keys = [np.empty(0, dtype=np.int64)]
    slot_counts = [0] * len(systems)
    coverage_edges = 0
    failures = []
    for slot in cert.slots:
        idx = slot.get("es_index") if isinstance(slot, dict) else None
        read = None
        # JSON true/false would pass isinstance(idx, int) as 1/0
        if type(idx) is int and 0 <= idx < len(systems):
            slot_counts[idx] += 1
            read = _read_slot(slot, n)
        if read is None:
            slot_reports.append({"ok": False})
            failures.append(idx)
            continue
        kind, lo, hi, text = read
        es = systems[idx]
        slot_keys = lo * base + hi
        keys, counts = np.unique(slot_keys, return_counts=True)
        verdicts = {}
        verdicts["in_host"] = bool(
            (mat[keys // base, keys % base] >= counts).all())
        # a system is a path system, so its edges are simple
        sys_lo, sys_hi = es.graph.edge_arrays()
        want = sys_lo * base + sys_hi
        pos = np.searchsorted(keys, want)
        verdicts["contains_system"] = bool(
            (pos < keys.size).all() and (keys[pos] == want).all())
        if "edges_sha256" in slot:
            verdicts["hash_ok"] = slot["edges_sha256"] == _edge_hash(text)
        if es.kind == KIND_MES:
            cyc_a = undirected_cycle_order(lo, hi, a_mask) is not None
            cyc_b = undirected_cycle_order(lo, hi, b_mask) is not None
            verdicts["bi_hamiltonian"] = cyc_a and cyc_b and not (
                (a_mask[lo] & b_mask[hi]) | (b_mask[lo] & a_mask[hi])).any()
            if len(a_pr) % 2 == 0 and len(b_pr) % 2 == 0:
                # each side's walk order has even length, and its edges at
                # even and at odd positions are two perfect matchings
                verdicts["matching_pair"] = cyc_a and cyc_b
            structure_ok = verdicts["bi_hamiltonian"] and \
                verdicts.get("matching_pair", True)
        else:
            verdicts["hamiltonian"] = \
                undirected_cycle_order(lo, hi, everything) is not None
            structure_ok = verdicts["hamiltonian"]
        ok = structure_ok and kind == es.kind and verdicts["in_host"] and \
            verdicts["contains_system"] and verdicts.get("hash_ok", True)
        verdicts["ok"] = ok
        if not ok:
            failures.append(idx)
        slot_reports.append(verdicts)
        used_keys.append(slot_keys)
        coverage_edges += lo.size - es.graph.edge_count()
    # every system is extended exactly once: a missing or repeated slot
    # fails the certificate even when each present slot is valid
    failures += [idx for idx, count in enumerate(slot_counts) if count != 1]
    keys, counts = np.unique(np.concatenate(used_keys), return_counts=True)
    edge_disjoint = bool((counts == 1).all()
                         and (mat[keys // base, keys % base] >= 1).all())
    a_side = np.asarray(partition.A, dtype=np.intp)
    b_side = np.asarray(partition.B, dtype=np.intp)
    if partition.mode == MODE_TWO_CLIQUES:
        # the matrix is symmetric with a zero diagonal: each edge twice
        denom = int(mat[np.ix_(a_side, a_side)].sum(dtype=np.int64)
                    + mat[np.ix_(b_side, b_side)].sum(dtype=np.int64)) // 2
    else:
        denom = int(mat[np.ix_(a_side, b_side)].sum(dtype=np.int64))
    coverage = coverage_edges / denom if denom else 0.0
    params = cert.params if isinstance(cert.params, dict) else {}
    claims = [cert.mode] + [params.get(key) for key in (
        "mode", "K", "m", "n", "eps0", "instance_sha256")]
    truth = [partition.mode, partition.mode, partition.K, partition.m,
             partition.n, partition.eps0,
             instance_sha256(host, partition, systems)]
    # exact types: JSON true and 5.0 would equal the ints 1 and 5
    instance_match = [(type(c), c) for c in claims] == \
        [(type(t), t) for t in truth]
    global_report = {
        "edge_disjoint": edge_disjoint,
        "instance_match": instance_match,
        "slot_failures": failures,
        "coverage_fraction": round(coverage, 6),
        "all_ok": edge_disjoint and instance_match and not failures,
    }
    return {"slots": slot_reports, "global": global_report}


_DIGITS = str.maketrans("", "", "0123456789")
_BRACKETS = str.maketrans("", "", "[]")


def _read_slot(slot: dict, n: int):
    """(claimed kind, lo, hi, text) of a certificate slot: one int64 entry
    of lo and hi per listed edge, lo < hi, and the canonical JSON text of
    its edge list; or None when the slot cannot be read: a missing key,
    an edge list that cannot be serialized or has no length, or an edge
    that is not a pair of distinct ints in 0..n-1.  An empty list, string
    or object is an empty edge list."""
    try:
        kind, edges = slot["kind"], slot["edges"]
        text = canonical_json(edges)
        count = len(edges)
    except (KeyError, TypeError):
        return None
    if not count:
        pairs = np.empty((0, 2), dtype=np.int64)
    # a list of pairs of non-negative ints prints as digits between
    # exactly these brackets and commas; JSON true, 1.0, -1, "1", null and
    # nested lists each print some other character or bracket
    elif text.translate(_DIGITS) != "[[,]" + ",[,]" * (count - 1) + "]":
        return None
    else:
        # the parse saturates at 2**63 - 1, so a larger vertex is out of
        # range too
        pairs = np.fromstring(text.translate(_BRACKETS), dtype=np.int64,
                              sep=",").reshape(-1, 2)
        if pairs.max() >= n:
            return None
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    if (lo == hi).any():
        return None
    return kind, lo, hi, text
