import copy
import hashlib
import json
import math

import pytest

from hamdec import pipeline
from hamdec.cli import main as cli_main
from hamdec.core import Multigraph, canonical_json
from hamdec.errors import InvalidParameter, MatchingInfeasible, PipelineError
from hamdec.pipeline import (DecompositionCertificate, InstanceConfig,
                             approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance,
                             trim_instance, validate_hypotheses,
                             verify_certificate)


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
                         bes_count=8, seed=9)
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
        pruned = host - Multigraph(
            host.n, [tuple(cert.slots[0]["edges"][0])])
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
    j = next(j for j, (u, v) in enumerate(edges)
             if systems[0].graph.multiplicity(u, v) == 0)
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


def _vertex_out_of_range(obj, host, systems):
    obj["slots"][0]["edges"][0] = [0, 1000000]


# each mutation must fail the verdict; the malformed ones must fail
# slot 0 with {"ok": false} instead of raising
MALFORMED = {
    "no-edges": _delete("edges"),
    "no-kind": _delete("kind"),
    "edges-not-a-list": _set("edges", "x"),
    "slot-is-a-list": _slot_to_list,
    "vertex-out-of-range": _vertex_out_of_range,
    "boolean-index": _set("es_index", False),
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


class TestTrim:
    def test_trim_removes_uncovered_cross_edges(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        a0 = P.a0[0]
        extra = Multigraph(host.n, [(a0, P.b0[0])])
        host2 = host + extra
        trimmed = trim_instance(host2, P, systems)
        assert trimmed == host  # the added cross edge is uncovered

    def test_trim_keeps_side_edges(self, small_two_cliques):
        cfg, host, P, systems, cert = small_two_cliques
        assert trim_instance(host, P, systems) == host


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
        cli_main(["gen", "--mode", "two-cliques", "--seed", "1",
                  "--out", str(inst)])
        assert cli_main(["export-dot", str(inst), "--out", str(dot)]) == 0
        assert dot.read_text().startswith("graph")


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
                             gamma=0.1, bes_count=18, seed=5)
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
        bad_host = host - systems[0].graph
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
