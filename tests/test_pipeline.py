import copy
import hashlib
import io
import json
import math
import os
import pickle
import pickletools
import subprocess
import sys

import numpy as np
import pytest

import hamdec
from hamdec import pipeline
from hamdec.cli import _load_instance, main as cli_main
from hamdec.core import (MODE_PLAIN, ClusterPartition, Host, Multigraph,
                         canonical_json, derive_seed)
from hamdec.errors import (HamiltonSearchExhausted, InvalidParameter,
                           MalformedInput, MatchingInfeasible, PipelineError,
                           SamplingFailed)
from hamdec.pipeline import (DecompositionCertificate, InstanceConfig,
                             approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance,
                             validate_hypotheses, verify_certificate)


def _pruned(host, graph):
    """The host less the edges of a sparse graph."""
    return Host(host.n, (Multigraph(host.n, host.edges()) - graph).edges())


@pytest.fixture(scope="module")
def small_two_cliques():
    cfg = InstanceConfig(mode="two-cliques", K=3, m=24, a0_size=1, b0_size=1,
                         eps0=0.02, mu=0.0, rho=0.1, gamma=0.18,
                         hes_count=5, mes_count=0, seed=9)
    host, P, systems = generate_instance(cfg)
    cert = approx_decompose_two_cliques(host, P, systems, cfg.mu, cfg.rho,
                                        cfg.gamma, seed=9)
    return cfg, host, P, systems, cert


@pytest.fixture(scope="module")
def small_bipartite():
    cfg = InstanceConfig(mode="bipartite", K=4, m=32, a0_size=1, b0_size=1,
                         eps0=0.02, mu=0.0, rho=0.1, gamma=0.12,
                         hes_count=0, bes_count=8, seed=9)
    host, P, systems = generate_instance(cfg)
    cert = approx_decompose_bipartite(host, P, systems, cfg.mu, cfg.rho,
                                      cfg.gamma, seed=9)
    return cfg, host, P, systems, cert


class TestGenerator:
    def test_hypotheses_hold(self, small_two_cliques):
        cfg, host, P, systems, _ = small_two_cliques
        validate_hypotheses(host, P, systems)  # must not raise
        assert len(systems) == cfg.system_count
        seen = set()
        for es in systems:
            for e in es.graph.support():
                assert e not in seen
                seen.add(e)

    def test_bipartite_hypotheses(self, small_bipartite):
        cfg, host, P, systems, _ = small_bipartite
        validate_hypotheses(host, P, systems)
        # per-vertex incidence condition
        incidence = {}
        for es in systems:
            for v in es.graph.covered_vertices():
                if P.cluster_index(v) >= 0:
                    incidence[v] = incidence.get(v, 0) + 1
        assert max(incidence.values()) <= 2 * cfg.eps0 * P.n

    @pytest.mark.parametrize("fixture", ["small_two_cliques",
                                         "small_bipartite"])
    def test_degree_window_matches_a_per_vertex_count(self, fixture,
                                                      request):
        cfg, host, P, systems, _ = request.getfixturevalue(fixture)
        into = {"two-cliques": {"A": "A", "B": "B"},
                "bipartite": {"A": "B", "B": "A"}}[cfg.mode]
        clusters = {"A": [P.a_cluster(i) for i in range(P.K)],
                    "B": [P.b_cluster(i) for i in range(P.K)]}
        degs = [sum(host.multiplicity(v, w) for w in cluster)
                for side in ("A", "B") for cluster in clusters[into[side]]
                for v in getattr(P, side)]
        assert pipeline._degree_window(host, P) == \
            1 - (sum(degs) / len(degs)) / P.m

    def test_count_bound_rejected(self):
        cfg = InstanceConfig(mode="two-cliques", K=3, m=8, hes_count=100,
                             eps0=0.05, seed=1)
        with pytest.raises(InvalidParameter):
            cfg.validate()

    def test_parity_rejected(self):
        # |A'| odd with MES present
        cfg = InstanceConfig(mode="two-cliques", K=3, m=8, a0_size=1,
                             b0_size=1, eps0=0.1, hes_count=0, mes_count=2,
                             seed=1)
        with pytest.raises(InvalidParameter):
            cfg.validate()

    @pytest.mark.parametrize("counts", [
        dict(mode="bipartite", K=4, hes_count=25, bes_count=8),
        dict(mode="bipartite", K=4, hes_count=0, mes_count=2, bes_count=8),
        dict(mode="two-cliques", K=5, hes_count=5, bes_count=1)],
        ids=["bipartite-hes", "bipartite-mes", "two-cliques-bes"])
    def test_other_modes_system_counts_rejected(self, counts):
        cfg = InstanceConfig(m=40, eps0=0.015, seed=1, **counts)
        with pytest.raises(InvalidParameter, match="hint: set"):
            cfg.validate()

    def test_exceptional_budget_rejected(self):
        cfg = InstanceConfig(mode="two-cliques", K=3, m=40, a0_size=4,
                             b0_size=4, eps0=0.001, hes_count=2, seed=1)
        with pytest.raises(InvalidParameter):
            cfg.validate()

    def test_kind_mix(self):
        cfg = InstanceConfig(mode="two-cliques", K=3, m=24, a0_size=2,
                             b0_size=2, eps0=0.03, mu=0.0, rho=0.1,
                             gamma=0.18, hes_count=4, mes_count=5, seed=3)
        host, P, systems = generate_instance(cfg)
        kinds = sorted(es.kind for es in systems)
        assert kinds.count("HES") == 4 and kinds.count("MES") == 5

    @pytest.mark.parametrize("obj", [
        [1], {"mode": 1}, {"K": "five"}, {"K": 5.0}, {"m": True},
        {"seed": False}, {"gamma": "0.15"}, {"rho": None}, {"mu": True}])
    def test_mistyped_config_rejected(self, obj):
        with pytest.raises(MalformedInput):
            InstanceConfig.from_json_obj(obj)

    def test_config_roundtrip(self):
        cfg = InstanceConfig(mode="bipartite", gamma=1, seed=3)
        assert InstanceConfig.from_json_obj(cfg.to_json_obj()) == cfg


class TestVerifierSoundness:
    def test_all_green(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        report = verify_certificate(host, P, systems, cert)
        assert report["global"]["all_ok"]
        assert all(v["ok"] for v in report["slots"])

    def test_tampered_edge_rejected(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        tampered = DecompositionCertificate.from_json_obj(
            json.loads(cert.to_json()))
        edges = tampered.slots[0]["edges"]
        # move one edge endpoint
        (u, v) = edges[0]
        edges[0] = [u, v + 1 if v + 1 != u and v + 1 < P.n else v - 1]
        report = verify_certificate(host, P, systems, tampered)
        assert not report["global"]["all_ok"]
        assert 0 in report["global"]["slot_failures"]

    def test_hash_mismatch_rejected(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        tampered = DecompositionCertificate.from_json_obj(
            json.loads(cert.to_json()))
        tampered.slots[0]["edges_sha256"] = "0" * 64
        report = verify_certificate(host, P, systems, tampered)
        assert not report["slots"][0]["hash_ok"]
        assert 0 in report["global"]["slot_failures"]

    def test_duplicated_slot_breaks_disjointness(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        dup = DecompositionCertificate.from_json_obj(
            json.loads(cert.to_json()))
        dup.slots[1]["edges"] = dup.slots[0]["edges"]
        report = verify_certificate(host, P, systems, dup)
        assert not report["global"]["edge_disjoint"]

    def test_wrong_host_rejected(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        pruned = _pruned(host, Multigraph(
            host.n, [tuple(cert.slots[0]["edges"][0])]))
        report = verify_certificate(pruned, P, systems, cert)
        assert not report["global"]["all_ok"]

    def test_coverage_fraction_bounds(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        report = verify_certificate(host, P, systems, cert)
        frac = report["global"]["coverage_fraction"]
        assert 0.0 < frac <= 1.0

    def test_bipartite_all_green(self, small_bipartite):
        cfg, host, P, systems, cert = small_bipartite
        report = verify_certificate(host, P, systems, cert)
        assert report["global"]["all_ok"]

    def test_no_slots_rejected(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        empty = DecompositionCertificate.from_json_obj(
            json.loads(cert.to_json()))
        empty.slots = []
        report = verify_certificate(host, P, systems, empty)
        assert not report["global"]["all_ok"]
        assert report["global"]["slot_failures"] == list(range(len(systems)))

    def test_missing_slots_rejected(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        partial = DecompositionCertificate.from_json_obj(
            json.loads(cert.to_json()))
        partial.slots = partial.slots[:2]
        report = verify_certificate(host, P, systems, partial)
        assert all(v["ok"] for v in report["slots"])
        assert not report["global"]["all_ok"]
        assert report["global"]["slot_failures"] == \
            list(range(2, len(systems)))

    def test_out_of_range_index_rejected(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        bad = DecompositionCertificate.from_json_obj(
            json.loads(cert.to_json()))
        bad.slots[0]["es_index"] = 99
        report = verify_certificate(host, P, systems, bad)
        assert report["slots"][0] == {"ok": False}
        assert not report["global"]["all_ok"]
        assert 99 in report["global"]["slot_failures"]
        assert 0 in report["global"]["slot_failures"]


SEED4_CONFIG = InstanceConfig(
    mode="two-cliques", K=3, m=24, a0_size=1, b0_size=1, eps0=0.02, mu=0.0,
    rho=0.1, gamma=0.18, hes_count=5, seed=4)


@pytest.fixture(scope="module")
def seed4_files(tmp_path_factory):
    """The instance and certificate files `hamdec gen` and `hamdec
    decompose` write for SEED4_CONFIG, plus the instance objects."""
    tmp = tmp_path_factory.mktemp("seed4")
    params, inst, cert = tmp / "params.json", tmp / "inst.json", \
        tmp / "cert.json"
    params.write_text(json.dumps(SEED4_CONFIG.to_json_obj()))
    assert cli_main(["gen", "--params", str(params), "--seed", "4",
                     "--out", str(inst)]) == 0
    assert cli_main(["decompose", str(inst), "--out", str(cert)]) == 0
    return inst, json.loads(cert.read_text()), \
        generate_instance(SEED4_CONFIG)


def _swap_in_host_non_edge(obj, host, systems):
    """Replace one non-system edge of slot 0 by a host non-edge, keeping
    the slot's hash consistent so only the edge itself is wrong."""
    slot = obj["slots"][0]
    edges = slot["edges"]
    in_system = set(systems[0].graph.support())
    j = next(j for j, (u, v) in enumerate(edges)
             if (min(u, v), max(u, v)) not in in_system)
    edges[j] = next([u, v] for u in range(host.n) for v in range(u + 1, host.n)
                    if host.multiplicity(u, v) == 0 and [u, v] not in edges)
    slot["edges_sha256"] = hashlib.sha256(
        canonical_json(edges).encode()).hexdigest()


def _set(key, value):
    def mutate(obj, host, systems):
        obj["slots"][0][key] = value
    return mutate


def _delete(key):
    def mutate(obj, host, systems):
        del obj["slots"][0][key]
    return mutate


def _slot_to_list(obj, host, systems):
    obj["slots"][0] = obj["slots"][0]["edges"]


def _retyped_vertex(value):
    """Write vertex 1 of slot 0 as ``value``, which equals 1 as a dict key
    (JSON true, 1.0), keeping the slot's hash consistent."""
    def mutate(obj, host, systems):
        slot = obj["slots"][0]
        edge = next(e for e in slot["edges"] if 1 in e)
        edge[edge.index(1)] = value
        slot["edges_sha256"] = hashlib.sha256(
            canonical_json(slot["edges"]).encode()).hexdigest()
    return mutate


def _triple_edge(value):
    """Write the first edge of slot 0 as the triple [u, v, value], keeping
    the slot's hash consistent: an edge is a pair, not an edge with a
    multiplicity."""
    def mutate(obj, host, systems):
        slot = obj["slots"][0]
        slot["edges"][0] = slot["edges"][0][:2] + [value]
        slot["edges_sha256"] = hashlib.sha256(
            canonical_json(slot["edges"]).encode()).hexdigest()
    return mutate


def _first_edge(edge):
    def mutate(obj, host, systems):
        obj["slots"][0]["edges"][0] = edge
    return mutate


# each mutation must fail the verdict; the malformed ones must fail
# slot 0 with {"ok": false} instead of raising
MALFORMED = {
    "no-edges": _delete("edges"),
    "no-kind": _delete("kind"),
    "edges-not-a-list": _set("edges", "x"),
    "slot-is-a-list": _slot_to_list,
    "vertex-out-of-range": _first_edge([0, 1000000]),
    "boolean-index": _set("es_index", False),
    "boolean-vertex": _retyped_vertex(True),
    "float-vertex": _retyped_vertex(1.0),
    "triple-edge-int": _triple_edge(1),
    "triple-edge-float": _triple_edge(1.0),
    "triple-edge-true": _triple_edge(True),
    "huge-vertex": _first_edge([2 ** 70, 3]),
    "negative-vertex": _first_edge([-1, 3]),
    "string-vertex": _first_edge(["1", 3]),
    "null-vertex": _first_edge([None, 3]),
    "nested-vertex": _first_edge([[1], 3]),
    "one-vertex-edge": _first_edge([1]),
    "loop-edge": _first_edge([3, 3]),
}
TAMPERED = {
    "drop-slot": lambda obj, host, systems: obj["slots"].pop(0),
    "duplicate-slot": lambda obj, host, systems: obj["slots"].append(
        copy.deepcopy(obj["slots"][0])),
    "reindex-slot": _set("es_index", 1),
    "host-non-edge": _swap_in_host_non_edge,
    "kind-BES": _set("kind", "BES"),
    "kind-MES": _set("kind", "MES"),
}


class TestVerifierTampering:
    def test_untampered_verifies(self, seed4_files):
        inst, obj, (host, P, systems) = seed4_files
        cert = DecompositionCertificate.from_json_obj(copy.deepcopy(obj))
        assert verify_certificate(host, P, systems, cert)["global"]["all_ok"]

    @pytest.mark.parametrize("name", sorted(MALFORMED) + sorted(TAMPERED))
    def test_mutation_fails(self, name, seed4_files, tmp_path):
        inst, obj, (host, P, systems) = seed4_files
        obj = copy.deepcopy(obj)
        {**MALFORMED, **TAMPERED}[name](obj, host, systems)
        report = verify_certificate(
            host, P, systems, DecompositionCertificate.from_json_obj(obj))
        assert not report["global"]["all_ok"]
        assert 0 in report["global"]["slot_failures"]
        if name in MALFORMED:
            assert report["slots"][0] == {"ok": False}
        bad = tmp_path / "cert.json"
        bad.write_text(json.dumps(obj))
        assert cli_main(["verify", str(inst), str(bad)]) == 1

    def test_structure_follows_the_system_kind(self, seed4_files):
        # an HES slot relabelled MES is still checked for Hamiltonicity
        inst, obj, (host, P, systems) = seed4_files
        obj = copy.deepcopy(obj)
        obj["slots"][0]["kind"] = "MES"
        report = verify_certificate(
            host, P, systems, DecompositionCertificate.from_json_obj(obj))
        assert report["slots"][0]["hamiltonian"]
        assert "bi_hamiltonian" not in report["slots"][0]
        assert not report["slots"][0]["ok"]


def _without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _params(**values):
    return lambda obj: {**obj, "params": {**obj["params"], **values}}


# certificate objects that are no certificate; each gets a failed verdict
MALFORMED_OBJECTS = {
    "schema-only": lambda obj: {"schema": 1},
    "no-mode": _without("mode"),
    "no-params": _without("params"),
    "no-slots": _without("slots"),
    "no-global": _without("global"),
    "slots-not-a-list": lambda obj: {**obj, "slots": "x"},
    "not-an-object": lambda obj: [obj],
    "no-schema": _without("schema"),
    "schema-2": lambda obj: {**obj, "schema": 2},
    "schema-string": lambda obj: {**obj, "schema": "1"},
    "schema-float": lambda obj: {**obj, "schema": 1.0},
    "schema-true": lambda obj: {**obj, "schema": True},
    # the params that the instance does not fix must still have their types
    "params-seed-string": _params(seed="x"),
    "params-seed-true": _params(seed=True),
    "params-seed-float": _params(seed=4.0),
    "params-mu-string": _params(mu="0"),
    "params-rho-nan": _params(rho=math.nan),
    "params-gamma-infinite": _params(gamma=math.inf),
    "params-gamma-true": _params(gamma=True),
    "params-quotas-null": _params(quotas=None),
    "params-quotas-list": _params(quotas=[]),
}


class TestMalformedCertificate:
    @pytest.mark.parametrize("name", sorted(MALFORMED_OBJECTS))
    def test_verify_exits_1(self, name, seed4_files, tmp_path, capsys):
        inst, obj, _ = seed4_files
        bad_obj = MALFORMED_OBJECTS[name](copy.deepcopy(obj))
        with pytest.raises(MalformedInput) as exc:
            DecompositionCertificate.from_json_obj(bad_obj)
        if name.startswith("no-"):
            assert repr(name[3:]) in str(exc.value)
        bad = tmp_path / "cert.json"
        bad.write_text(json.dumps(bad_obj))
        assert cli_main(["verify", str(inst), str(bad)]) == 1
        out = capsys.readouterr().out
        assert json.loads(out.strip().splitlines()[-1])["all_ok"] is False

    def test_negative_seed_verifies(self, tmp_path, capsys):
        # any int seeds the generator, so a certificate made at a
        # negative seed is one that verify accepts
        params, inst, cert = tmp_path / "params.json", \
            tmp_path / "inst.json", tmp_path / "cert.json"
        params.write_text(json.dumps(SEED4_CONFIG.to_json_obj()))
        assert cli_main(["gen", "--params", str(params), "--seed", "-1",
                         "--out", str(inst)]) == 0
        assert cli_main(["decompose", str(inst), "--out", str(cert)]) == 0
        assert json.loads(cert.read_text())["params"]["seed"] == -1
        assert cli_main(["verify", str(inst), str(cert)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.strip().splitlines()[-1])["all_ok"] is True

    def test_unparsable_file_exits_1(self, seed4_files, tmp_path, capsys):
        inst, _obj, _ = seed4_files
        bad = tmp_path / "cert.json"
        bad.write_text('{"schema": 1, "slots": [')
        assert cli_main(["verify", str(inst), str(bad)]) == 1
        assert json.loads(capsys.readouterr().out)["all_ok"] is False


def _claim(key, value):
    """Set the certificate's claim ``key`` (a top-level key, or
    ``params.<key>``) to ``value(old value)``; a value of None deletes
    it."""
    def mutate(obj):
        *parent, last = key.split(".")
        target = obj[parent[0]] if parent else obj
        if value is None:
            del target[last]
        else:
            target[last] = value(target[last])
    return mutate


# certificate claims about the instance that disagree with it; each must
# clear instance_match while every slot still verifies
WRONG_CLAIMS = {
    "mode": _claim("mode", lambda v: "bipartite"),
    "params-mode": _claim("params.mode", lambda v: "bipartite"),
    "params-K": _claim("params.K", lambda v: v + 2),
    "params-m": _claim("params.m", lambda v: v + 1),
    "params-n": _claim("params.n", lambda v: v - 1),
    "params-K-float": _claim("params.K", float),
    "params-m-true": _claim("params.m", lambda v: True),
    "params-n-missing": _claim("params.n", None),
    "params-eps0": _claim("params.eps0", lambda v: -1),
    "params-eps0-string": _claim("params.eps0", str),
    "params-eps0-off-by-an-ulp": _claim("params.eps0",
                                        lambda v: math.nextafter(v, 1)),
}


class TestCertificateClaims:
    @pytest.mark.parametrize("name", sorted(WRONG_CLAIMS))
    def test_wrong_claim_fails_instance_match(self, name, seed4_files,
                                              tmp_path, capsys):
        inst, obj, (host, P, systems) = seed4_files
        obj = copy.deepcopy(obj)
        WRONG_CLAIMS[name](obj)
        report = verify_certificate(
            host, P, systems, DecompositionCertificate.from_json_obj(obj))
        assert report["global"]["instance_match"] is False
        assert report["global"]["all_ok"] is False
        assert report["global"]["slot_failures"] == []
        bad = tmp_path / "cert.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli_main(["verify", str(inst), str(bad)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["instance_match"] is False
        assert "Traceback" not in captured.err

    def test_embedded_verdicts_are_advisory(self, seed4_files):
        # verify recomputes every verdict: embedded ones that say the
        # opposite change nothing, either way round
        inst, obj, (host, P, systems) = seed4_files
        truth = verify_certificate(
            host, P, systems, DecompositionCertificate.from_json_obj(obj))
        assert truth["global"]["all_ok"]
        lying = copy.deepcopy(obj)
        lying["global"] = {"all_ok": False, "instance_match": False,
                           "slot_failures": [0], "coverage_fraction": 0.0}
        for slot in lying["slots"]:
            slot["verdicts"] = {"ok": False}
        assert verify_certificate(
            host, P, systems,
            DecompositionCertificate.from_json_obj(lying)) == truth
        tampered = copy.deepcopy(obj)
        tampered["slots"].pop(0)
        assert tampered["global"]["all_ok"] is True
        assert tampered["slots"][0]["verdicts"]["ok"] is True
        report = verify_certificate(
            host, P, systems, DecompositionCertificate.from_json_obj(tampered))
        assert report["global"]["all_ok"] is False


INSTANCE_KEYS = ("config", "graph", "partition", "exceptional_systems")


def _edit(path, value):
    """An edit of an instance object: the entry at ``path`` (keys and
    indices from the top) becomes ``value(entry)``."""
    def edit(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value(obj[last])
    return edit


# instance objects with a part that is not an exact int, or with an
# invalid exceptional system; a float or boolean once verified as the int
# it equals
INSTANCE_EDITS = {
    "partition-vertex-float": _edit(("partition", "A", 0, 0), float),
    "n-float": _edit(("graph", "n"), float),
    "n-missing": lambda obj: obj["graph"].pop("n"),
    "config-gamma-string": _edit(("config", "gamma"), str),
    "edge-vertex-half": _edit(("graph", "edges", -1, 0), lambda u: u + 0.5),
    "multiplicity-true": _edit(("graph", "edges", -1, 2), lambda k: True),
    "multiplicity-float": _edit(("graph", "edges", -1, 2), lambda k: 1.5),
    "system-path-float": _edit(("exceptional_systems", 0, "paths", 0, 0),
                               float),
    "system-invalid": _edit(("exceptional_systems", 0, "paths"),
                            lambda paths: []),
    # the host is an n x n uint8 matrix: n must be the partition's vertex
    # count before anything is allocated, and a multiplicity must fit
    "n-huge": _edit(("graph", "n"), lambda n: 1000000),
    "multiplicity-256": _edit(("graph", "edges", -1, 2), lambda k: 256),
    "multiplicity-0": _edit(("graph", "edges", -1, 2), lambda k: 0),
    "duplicates-past-255": _edit(("graph", "edges"), lambda edges: edges + [
        [*edges[-1][:2], 200], [*edges[-1][:2], 55]]),
    "edge-loop": _edit(("graph", "edges", -1), lambda e: [e[0], e[0], 1]),
    "edge-vertex-outside": _edit(("graph", "edges", -1, 1),
                                 lambda v: 10 ** 6),
}


class TestMalformedInstance:
    """A malformed instance file gets a failed verdict from ``verify``
    (exit 1) and a HamdecError exit from ``decompose`` (exit 2)."""

    @pytest.fixture(params=[f"no-{key}" for key in INSTANCE_KEYS]
                    + ["not-json", "schema-only", "not-an-object"]
                    + sorted(INSTANCE_EDITS))
    def bad_instance(self, request, seed4_files, tmp_path):
        inst, _obj, _ = seed4_files
        name = request.param
        bad = tmp_path / "inst.json"
        if name == "not-json":
            bad.write_text('{"schema": 1, "config": ')
        elif name == "schema-only":
            bad.write_text(json.dumps({"schema": 1}))
        elif name == "not-an-object":
            bad.write_text(json.dumps([1, 2]))
        else:
            obj = json.loads(inst.read_text())
            if name in INSTANCE_EDITS:
                INSTANCE_EDITS[name](obj)
            else:
                del obj[name[3:]]
            bad.write_text(json.dumps(obj))
        return name, bad

    def test_load_names_the_missing_key(self, bad_instance):
        name, bad = bad_instance
        with pytest.raises(MalformedInput) as exc:
            _load_instance(str(bad))
        if name.startswith("no-"):
            assert repr(name[3:]) in str(exc.value)
        if name == "schema-only":
            assert "'config'" in str(exc.value)

    def test_verify_exits_1(self, bad_instance, seed4_files, tmp_path,
                            capsys):
        _inst, obj, _ = seed4_files
        _name, bad = bad_instance
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(obj))
        assert cli_main(["verify", str(bad), str(cert)]) == 1
        verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert verdict["all_ok"] is False and verdict["malformed"]

    def test_partition_outside_the_host(self, seed4_files, tmp_path,
                                        capsys):
        # the host loses its last vertex, which the partition still names
        inst, obj, _ = seed4_files
        bad_obj = json.loads(inst.read_text())
        graph = bad_obj["graph"]
        graph["n"] -= 1
        graph["edges"] = [e for e in graph["edges"] if graph["n"] not in e]
        bad, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        bad.write_text(json.dumps(bad_obj))
        cert.write_text(json.dumps(obj))
        assert cli_main(["verify", str(bad), str(cert)]) == 1
        verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert verdict["all_ok"] is False
        assert "outside the host" in verdict["malformed"]

    def test_decompose_exits_2(self, bad_instance, tmp_path, capsys):
        _name, bad = bad_instance
        out = tmp_path / "cert.json"
        assert cli_main(["decompose", str(bad), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestCertificates:
    def test_slots_complete(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        assert len(cert.slots) == len(systems)
        assert sorted(s["es_index"] for s in cert.slots) == \
            list(range(len(systems)))

    def test_spanning_subgraphs(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        verts = set(P.vertices())
        for slot in cert.slots:
            sub = Multigraph(host.n, [tuple(e) for e in slot["edges"]])
            covered = sub.covered_vertices()
            assert covered == verts

    def test_quotas_recorded(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        q = cert.params["quotas"]
        assert q["reserve_degree_formula"] == math.floor(
            10 * cfg.K * math.sqrt(cfg.eps0) * cfg.m)
        assert q["reserve_degree_used"] >= 2

    def test_json_roundtrip(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        back = DecompositionCertificate.from_json_obj(
            json.loads(cert.to_json()))
        assert back.to_json() == cert.to_json()


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        out = []
        for _ in range(2):
            cfg = InstanceConfig(mode="two-cliques", K=3, m=24, a0_size=1,
                                 b0_size=1, eps0=0.02, mu=0.0, rho=0.1,
                                 gamma=0.18, hes_count=5, seed=33)
            host, P, systems = generate_instance(cfg)
            cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                                cfg.rho, cfg.gamma, seed=33)
            out.append(cert.to_json())
        assert out[0] == out[1]

    def test_different_seed_differs(self):
        certs = []
        for seed in (1, 2):
            cfg = InstanceConfig(mode="two-cliques", K=3, m=24, a0_size=1,
                                 b0_size=1, eps0=0.02, mu=0.0, rho=0.1,
                                 gamma=0.18, hes_count=5, seed=seed)
            host, P, systems = generate_instance(cfg)
            cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                                cfg.rho, cfg.gamma, seed=seed)
            certs.append(cert.to_json())
        assert certs[0] != certs[1]


class TestJobs:
    def test_parallel_slices_identical(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        cert2 = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                             cfg.rho, cfg.gamma, seed=9,
                                             jobs=2)
        assert cert2.to_json() == cert.to_json()

    @pytest.mark.parametrize("fixture", ["small_two_cliques",
                                         "small_bipartite"])
    def test_slice_results_are_vertex_orders(self, fixture, request,
                                             monkeypatch):
        # what the slice tasks return is what crosses the pool at jobs=2:
        # {es_index: vertex order}, plain ints in plain lists, no Digraph
        cfg, host, P, systems, cert = request.getfixturevalue(fixture)
        run = pipeline._run_slice_tasks
        returned = {}

        def recording(tasks, jobs, seed):
            assert len(tasks) > 1  # so jobs=2 really runs the pool
            returned[jobs] = run(tasks, jobs, seed)
            return returned[jobs]

        monkeypatch.setattr(pipeline, "_run_slice_tasks", recording)
        decompose = (approx_decompose_bipartite if cfg.mode == "bipartite"
                     else approx_decompose_two_cliques)
        for jobs in (1, 2):
            cert_j = decompose(host, P, systems, cfg.mu, cfg.rho, cfg.gamma,
                               seed=9, jobs=jobs)
            assert cert_j.to_json() == cert.to_json()
        assert returned[1] == returned[2]
        for result in returned[2]:
            assert type(result) is dict
            for es_index, order in result.items():
                assert type(es_index) is int
                assert type(order) is list
                assert all(type(v) is int for v in order)

    def test_dense_slice_tasks_pickle_small(self, monkeypatch):
        # bench/run.py's tc-dense and bip-dense configs: each task ships
        # its slice alone to a pool worker, with the slice's pair matrices
        # as uint8, and no exceptional system, reduction or Multigraph;
        # the one partition it pickles is the slice's equipartition
        run = pipeline._run_slice_tasks
        sizes = []
        names = set()

        class Recorder(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(obj, ClusterPartition):
                    partitions.append(obj)
                return NotImplemented

        def recording(tasks, jobs, seed):
            for task in tasks:
                blob = pickle.dumps(task)
                sizes.append(len(blob))
                names.update(arg for _op, arg, _pos in
                             pickletools.genops(blob) if type(arg) is str)
                assert all(mat.dtype == np.uint8
                           for (_t, _h, mat) in task[1].pairs)
                assert not any(isinstance(item, ClusterPartition)
                               for item in task)
                partitions.clear()
                Recorder(io.BytesIO()).dump(task)
                assert [id(p) for p in partitions] == [id(task[1].q)]
                assert task[1].q.mode == MODE_PLAIN
            return run(tasks, jobs, seed)

        partitions = []

        monkeypatch.setattr(pipeline, "_run_slice_tasks", recording)
        for config, decompose in (
                (TC_DENSE, approx_decompose_two_cliques),
                (dict(mode="bipartite", K=4, m=80, eps0=0.015, gamma=0.1,
                      hes_count=0, bes_count=16),
                 approx_decompose_bipartite)):
            cfg = InstanceConfig(seed=11, **config)
            host, P, systems = generate_instance(cfg)
            certs = [decompose(host, P, systems, cfg.mu, cfg.rho, cfg.gamma,
                               seed=cfg.seed, jobs=jobs).to_json()
                     for jobs in (1, 2)]
            assert certs[0] == certs[1]
        # 4 + 2 slices, each recorded under jobs=1 and jobs=2
        assert len(sizes) == 12 and max(sizes) < 100_000
        assert "SliceSide" in names
        assert not names & {"ExceptionalSystem", "BalancedExceptionalSystem",
                            "FictiveReduction", "Multigraph"}


class TestCli:
    def test_gen_decompose_verify(self, tmp_path):
        inst = tmp_path / "inst.json"
        cert = tmp_path / "cert.json"
        params = tmp_path / "params.json"
        params.write_text(json.dumps(InstanceConfig(
            mode="two-cliques", K=3, m=24, a0_size=1, b0_size=1, eps0=0.02,
            mu=0.0, rho=0.1, gamma=0.18, hes_count=5, seed=4).to_json_obj()))
        assert cli_main(["gen", "--params", str(params), "--seed", "4",
                         "--out", str(inst)]) == 0
        assert cli_main(["decompose", str(inst), "--out", str(cert)]) == 0
        assert cli_main(["verify", str(inst), str(cert)]) == 0
        obj = json.loads(cert.read_text())
        assert obj["schema"] == 1

    def test_verify_rejects_tampering(self, tmp_path):
        inst = tmp_path / "inst.json"
        cert = tmp_path / "cert.json"
        params = tmp_path / "params.json"
        params.write_text(json.dumps(InstanceConfig(
            mode="two-cliques", K=3, m=24, a0_size=1, b0_size=1, eps0=0.02,
            mu=0.0, rho=0.1, gamma=0.18, hes_count=5, seed=4).to_json_obj()))
        cli_main(["gen", "--params", str(params), "--seed", "4",
                  "--out", str(inst)])
        cli_main(["decompose", str(inst), "--out", str(cert)])
        obj = json.loads(cert.read_text())
        obj["slots"][0]["edges"] = obj["slots"][1]["edges"]
        cert.write_text(json.dumps(obj))
        assert cli_main(["verify", str(inst), str(cert)]) == 1

    def test_env_seed_override(self, tmp_path, monkeypatch):
        inst1 = tmp_path / "a.json"
        inst2 = tmp_path / "b.json"
        monkeypatch.setenv("HAMDEC_SEED", "77")
        cli_main(["gen", "--mode", "two-cliques", "--out", str(inst1)])
        monkeypatch.delenv("HAMDEC_SEED")
        cli_main(["gen", "--mode", "two-cliques", "--seed", "77",
                  "--out", str(inst2)])
        assert inst1.read_text() == inst2.read_text()

    def test_export_dot(self, tmp_path):
        inst = tmp_path / "inst.json"
        dot = tmp_path / "g.dot"
        assert cli_main(["gen", "--seed", "4", "--out", str(inst)]) == 0
        assert cli_main(["export-dot", str(inst), "--out", str(dot)]) == 0
        # one "u -- v;" line per unit of multiplicity of the host
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == \
            "166cec0b8ca5dd5358f6fc2452f42f1040c6c108c822e4f263438ad7efe11833"

    @pytest.mark.parametrize("name", ["partition-vertex-float",
                                      "edge-vertex-half", "n-missing"])
    def test_export_dot_rejects_a_malformed_instance(self, name, seed4_files,
                                                     tmp_path, capsys):
        inst, _obj, _ = seed4_files
        obj = json.loads(inst.read_text())
        INSTANCE_EDITS[name](obj)
        bad, dot = tmp_path / "inst.json", tmp_path / "g.dot"
        bad.write_text(json.dumps(obj))
        assert cli_main(["export-dot", str(bad), "--out", str(dot)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not dot.exists()

    @pytest.mark.parametrize("text", ['{"K": ', '{"K": "five"}'])
    def test_gen_rejects_a_malformed_config(self, text, tmp_path, capsys):
        params, inst = tmp_path / "p.json", tmp_path / "inst.json"
        params.write_text(text)
        assert cli_main(["gen", "--params", str(params), "--out",
                         str(inst)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not inst.exists()

    @pytest.mark.parametrize("missing", ["instance", "certificate"])
    def test_verify_answers_a_missing_file(self, missing, seed4_files,
                                           tmp_path, capsys):
        inst, obj, _ = seed4_files
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(obj))
        args = {"instance": str(inst), "certificate": str(cert)}
        args[missing] = str(tmp_path / "nope.json")
        assert cli_main(["verify", args["instance"],
                         args["certificate"]]) == 1
        verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert verdict["all_ok"] is False
        assert "nope.json" in verdict["malformed"]

    @pytest.mark.parametrize("argv", [
        ["decompose", "{nope}", "--out", "{out}"],
        ["export-dot", "{nope}", "--out", "{out}"],
        ["gen", "--params", "{nope}", "--out", "{out}"]],
        ids=["decompose", "export-dot", "gen-params"])
    def test_a_missing_file_exits_2(self, argv, tmp_path, capsys):
        paths = {"nope": tmp_path / "nope.json", "out": tmp_path / "out"}
        assert cli_main([a.format(**paths) for a in argv]) == 2
        assert "error:" in capsys.readouterr().err
        assert not paths["out"].exists()

    def test_gen_rejects_the_other_modes_system_count(self, tmp_path,
                                                      capsys):
        # bipartite mode with the two-cliques default of 25 Hamilton
        # systems once wrote an instance with no systems at all
        params, out = tmp_path / "params.json", tmp_path / "inst.json"
        params.write_text(json.dumps({"mode": "bipartite", "K": 4, "m": 40,
                                      "eps0": 0.015}))
        assert cli_main(["gen", "--params", str(params),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bipartite mode takes no Hamilton")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", ""], ids=["abc", "empty"])
    def test_a_non_integer_env_seed_exits_2(self, value, seed4_files,
                                            tmp_path, monkeypatch, capsys):
        # an empty HAMDEC_SEED is set too, so it is read like any other
        inst, _obj, _ = seed4_files
        out = tmp_path / "cert.json"
        monkeypatch.setenv("HAMDEC_SEED", value)
        assert cli_main(["decompose", str(inst), "--out", str(out)]) == 2
        assert f"error: HAMDEC_SEED must be an integer, not {value!r}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_selftest_with_a_non_integer_env_seed_exits_2(self, monkeypatch,
                                                          capsys):
        # the seed is read before any check runs, so a bad one is an
        # input error, not two failed pipeline checks
        monkeypatch.setenv("HAMDEC_SEED", "")
        assert cli_main(["selftest"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: HAMDEC_SEED must be an integer, " \
                               "not ''\n"
        assert "FAIL" not in captured.out

    def test_import_loads_no_scipy(self):
        # hamdec needs no scipy, so importing it should not pay for one
        src = os.path.dirname(os.path.dirname(hamdec.__file__))
        code = ("import sys, hamdec.cli; sys.exit(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy')[:3] or 0)")
        out = subprocess.run([sys.executable, "-c", code], timeout=60,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr

    def test_gen_decompose_verify_load_no_scipy(self, tmp_path):
        # both modes, decomposed on one and on two workers; a `scipy`
        # package that fails to import shadows any installed one, so a
        # worker process that imports it fails the run too
        poison = tmp_path / "poison" / "scipy"
        poison.mkdir(parents=True)
        (poison / "__init__.py").write_text(
            "raise ImportError('scipy is imported')\n")
        src = os.path.dirname(os.path.dirname(hamdec.__file__))
        code = (
            "import sys\n"
            "from hamdec.cli import main\n"
            "for mode in ('two-cliques', 'bipartite'):\n"
            "    assert main(['gen', '--mode', mode, '--seed', '4', "
            "'--out', 'inst.json']) == 0\n"
            "    for jobs in ('1', '2'):\n"
            "        assert main(['decompose', 'inst.json', '--jobs', jobs, "
            "'--out', 'cert.json']) == 0\n"
            "        assert main(['verify', 'inst.json', 'cert.json']) == 0\n"
            "sys.exit(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')[:3] or 0)\n")
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, timeout=120,
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join([str(poison.parent), src])})
        assert out.returncode == 0, out.stdout + out.stderr


def _reversed_ids(obj):
    """The instance object with every vertex id v replaced by n - 1 - v,
    so B-side ids sit below A-side ids."""
    n = obj["graph"]["n"]

    def flip(vs):
        return [n - 1 - v for v in vs]

    obj["graph"]["edges"] = [[n - 1 - u, n - 1 - v, k]
                             for (u, v, k) in obj["graph"]["edges"]]
    part = obj["partition"]
    part["A0"], part["B0"] = flip(part["A0"]), flip(part["B0"])
    part["A"] = [flip(c) for c in part["A"]]
    part["B"] = [flip(c) for c in part["B"]]
    for es in obj["exceptional_systems"]:
        es["paths"] = [flip(path) for path in es["paths"]]
        es["isolated"] = flip(es["isolated"])
    return obj


class TestReversedVertexIds:
    @pytest.mark.parametrize("config", [
        dict(mode="two-cliques", K=3, m=24, gamma=0.18, hes_count=5),
        dict(mode="bipartite", K=4, m=32, gamma=0.12, hes_count=0,
             bes_count=8),
    ], ids=["two-cliques", "bipartite"])
    def test_decompose_and_verify(self, tmp_path, config):
        # the selftest configurations with every vertex id reversed
        params, inst, cert = (tmp_path / "params.json",
                              tmp_path / "inst.json", tmp_path / "cert.json")
        params.write_text(json.dumps(InstanceConfig(
            a0_size=1, b0_size=1, eps0=0.02, mu=0.0, rho=0.1, seed=0,
            **config).to_json_obj()))
        assert cli_main(["gen", "--params", str(params), "--seed", "0",
                         "--out", str(inst)]) == 0
        inst.write_text(json.dumps(_reversed_ids(json.loads(
            inst.read_text()))))
        _cfg, _host, partition, _systems = _load_instance(str(inst))
        assert max(partition.B) < min(partition.A)
        assert cli_main(["decompose", str(inst), "--out", str(cert)]) == 0
        assert json.loads(cert.read_text())["global"]["all_ok"]
        assert cli_main(["verify", str(inst), str(cert)]) == 0


class TestLargerClusterCounts:
    def test_two_cliques_k7(self):
        cfg = InstanceConfig(mode="two-cliques", K=7, m=30, a0_size=1,
                             b0_size=1, eps0=0.005, mu=0.0125, rho=0.1,
                             gamma=0.15, hes_count=21, mes_count=0, seed=5)
        host, P, systems = generate_instance(cfg)
        cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                            cfg.rho, cfg.gamma, seed=5)
        assert cert.global_report["all_ok"]
        assert len(cert.slots) == 21

    def test_bipartite_k6(self):
        cfg = InstanceConfig(mode="bipartite", K=6, m=48, a0_size=1,
                             b0_size=1, eps0=0.01, mu=0.0125, rho=0.1,
                             gamma=0.1, hes_count=0, bes_count=18, seed=5)
        host, P, systems = generate_instance(cfg)
        cert = approx_decompose_bipartite(host, P, systems, cfg.mu,
                                          cfg.rho, cfg.gamma, seed=5)
        assert cert.global_report["all_ok"]
        assert len(cert.slots) == 18


class TestPipelineErrors:
    def test_stage_tagging(self):
        cfg = InstanceConfig(mode="two-cliques", K=3, m=24, a0_size=1,
                             b0_size=1, eps0=0.02, mu=0.0, rho=0.1,
                             gamma=0.18, hes_count=5, seed=2)
        host, P, systems = generate_instance(cfg)
        bad_host = _pruned(host, systems[0].graph)
        with pytest.raises(PipelineError) as exc:
            approx_decompose_two_cliques(bad_host, P, systems, cfg.mu,
                                         cfg.rho, cfg.gamma, seed=2)
        assert exc.value.stage == "validate"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_assemble_failure_names_its_slice(self, jobs, monkeypatch):
        # the pool workers are forked after the patch, so they see it too
        def infeasible(*args, **kwargs):
            raise MatchingInfeasible("forced")

        monkeypatch.setattr(pipeline, "assemble_slice", infeasible)
        cfg = InstanceConfig(mode="two-cliques", K=3, m=24, a0_size=1,
                             b0_size=1, eps0=0.02, mu=0.0, rho=0.1,
                             gamma=0.18, hes_count=5, seed=3)
        host, P, systems = generate_instance(cfg)
        with pytest.raises(PipelineError) as exc:
            approx_decompose_two_cliques(host, P, systems, cfg.mu, cfg.rho,
                                         cfg.gamma, seed=3, jobs=jobs)
        assert exc.value.stage == "assemble"
        assert isinstance(exc.value.cause, MatchingInfeasible)
        assert exc.value.slice_index == "A0"
        assert "slice=A0" in str(exc.value)

    def test_merge_exhaustion_is_retried(self, monkeypatch):
        # a slice whose first assembly runs out of 2-switches and
        # replacements re-rolls its reservoir and succeeds
        calls = []
        assemble = pipeline.assemble_slice

        def exhausted_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise HamiltonSearchExhausted("slot 0: forced")
            return assemble(*args, **kwargs)

        monkeypatch.setattr(pipeline, "assemble_slice", exhausted_once)
        cfg = InstanceConfig(mode="two-cliques", K=3, m=24, a0_size=1,
                             b0_size=1, eps0=0.02, mu=0.0, rho=0.1,
                             gamma=0.18, hes_count=5, seed=3)
        host, P, systems = generate_instance(cfg)
        cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                            cfg.rho, cfg.gamma, seed=3)
        assert cert.global_report["all_ok"]
        assert len(calls) == 3  # two slices, one of them twice

    def test_failed_carve_is_retried(self, monkeypatch):
        # a reservoir carve that fails its gate re-rolls the whole slice,
        # carve and assembly, with the next attempt's seeds
        seeds = []
        carve = pipeline.reserve_regular

        def fails_once(*args, rng_seed, **kwargs):
            seeds.append(rng_seed)
            if len(seeds) == 1:
                raise SamplingFailed("forced", failures={"Reg1": 1})
            return carve(*args, rng_seed=rng_seed, **kwargs)

        monkeypatch.setattr(pipeline, "reserve_regular", fails_once)
        cfg = SEED4_CONFIG
        host, P, systems = generate_instance(cfg)
        cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                            cfg.rho, cfg.gamma, seed=4)
        assert cert.global_report["all_ok"]
        # the first carve is slice A0's at its first cycle edge, and the
        # next one that edge's again, at attempt 1
        first = [ci for ci in range(cfg.K)
                 if seeds[0] == derive_seed(4, "res", "A", 0, ci, 0)]
        assert len(first) == 1
        assert seeds[1] == derive_seed(4, "res", "A", 0, first[0], 1)

    def test_carve_failing_every_attempt_names_its_slice(self,
                                                         monkeypatch):
        calls = []

        def always_fails(*args, **kwargs):
            calls.append(args)
            raise SamplingFailed("forced", failures={"codegree": 1})

        monkeypatch.setattr(pipeline, "reserve_regular", always_fails)
        cfg = SEED4_CONFIG
        host, P, systems = generate_instance(cfg)
        with pytest.raises(PipelineError) as exc:
            approx_decompose_two_cliques(host, P, systems, cfg.mu, cfg.rho,
                                         cfg.gamma, seed=4)
        assert exc.value.stage == "assemble"
        assert exc.value.slice_index == "A0"
        assert isinstance(exc.value.cause, SamplingFailed)
        # each attempt stops at its first carve
        assert len(calls) == pipeline.SLICE_RETRIES


TC_DENSE = dict(mode="two-cliques", K=5, m=80, hes_count=25)


class TestInstanceBinding:
    @pytest.fixture(scope="class")
    def tc_dense_files(self, tmp_path_factory):
        """Instance files of the tc-dense config at seeds 11 and 12, and
        the certificate `hamdec decompose` writes for seed 11."""
        tmp = tmp_path_factory.mktemp("binding")
        params = tmp / "params.json"
        params.write_text(json.dumps(InstanceConfig(**TC_DENSE).to_json_obj()))
        insts = {}
        for seed in (11, 12):
            insts[seed] = tmp / f"inst{seed}.json"
            assert cli_main(["gen", "--params", str(params), "--seed",
                             str(seed), "--out", str(insts[seed])]) == 0
        cert = tmp / "cert11.json"
        assert cli_main(["decompose", str(insts[11]), "--out",
                         str(cert)]) == 0
        return insts, cert

    def test_certificate_of_another_instance_fails(self, tc_dense_files,
                                                   capsys):
        insts, cert = tc_dense_files
        obj = DecompositionCertificate.from_json_obj(
            json.loads(cert.read_text()))
        for seed, match in ((11, True), (12, False)):
            _cfg, host, P, systems = _load_instance(str(insts[seed]))
            report = verify_certificate(host, P, systems, obj)
            assert report["global"]["instance_match"] is match
            assert report["global"]["all_ok"] is match
        capsys.readouterr()
        assert cli_main(["verify", str(insts[12]), str(cert)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out.splitlines()[0])["instance_match"] is False
        assert "Traceback" not in err

    def test_only_the_instance_key_fails(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        obj = cert.to_json_obj()
        obj["params"] = {**obj["params"], "instance_sha256": "0" * 64}
        report = verify_certificate(
            host, P, systems, DecompositionCertificate.from_json_obj(obj))
        assert report["global"]["instance_match"] is False
        assert report["global"]["edge_disjoint"]
        assert not report["global"]["slot_failures"]
        assert not report["global"]["all_ok"]

    def test_unbound_certificate_fails(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        for params in ({}, "x"):
            obj = {**cert.to_json_obj(), "params": params}
            report = verify_certificate(
                host, P, systems, DecompositionCertificate.from_json_obj(obj))
            assert report["global"]["instance_match"] is False
            assert not report["global"]["all_ok"]


class TestOneWalkPerSystem:
    def test_generate_and_decompose_walk_each_system_once(self,
                                                          monkeypatch):
        # validation walks J once and keeps its paths; the AB-path count,
        # J*_AB and the instance digest read them
        calls = []
        walk = Multigraph._walk_paths
        monkeypatch.setattr(Multigraph, "_walk_paths",
                            lambda g: calls.append(g) or walk(g))
        cfg = InstanceConfig(mode="two-cliques", K=3, m=24, a0_size=2,
                             b0_size=2, eps0=0.03, mu=0.0, rho=0.1,
                             gamma=0.18, hes_count=4, mes_count=5, seed=3)
        host, P, systems = generate_instance(cfg)
        assert len(calls) == len(systems)
        cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                            cfg.rho, cfg.gamma, seed=3)
        assert cert.global_report["all_ok"]
        assert len(calls) == len(systems)


class TestHypothesisBound:
    """Configs near the (1/4 - mu - rho)n bound, where the later slots of
    a slice find few unused reservoir arcs for their merge and reorder
    moves."""

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_k5_m40_with_40_systems(self, seed):
        cfg = InstanceConfig(K=5, m=40, hes_count=40, seed=seed)
        host, P, systems = generate_instance(cfg)
        cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                            cfg.rho, cfg.gamma, seed=seed)
        assert cert.global_report["all_ok"]

    def test_crowded_needs_no_slice_retry(self, monkeypatch):
        calls = []
        assemble = pipeline.assemble_slice
        monkeypatch.setattr(pipeline, "assemble_slice",
                            lambda *args, **kwargs: calls.append(args)
                            or assemble(*args, **kwargs))
        cfg = InstanceConfig(mode="two-cliques", K=5, m=40, a0_size=2,
                             b0_size=2, eps0=0.01, hes_count=14,
                             mes_count=14, seed=5)
        host, P, systems = generate_instance(cfg)
        cert = approx_decompose_two_cliques(host, P, systems, cfg.mu,
                                            cfg.rho, cfg.gamma, seed=5)
        assert cert.global_report["all_ok"]
        # (K - 1)/2 = 2 slices per side, each assembled once
        assert len(calls) == 4
