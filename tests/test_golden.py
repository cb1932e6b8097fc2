"""Golden certificate pins.

The sha256 of the canonical certificate JSON for fixed (config, seed)
pairs.  A refactor that keeps every random draw must keep these bytes;
a change that alters the draws on purpose re-pins them and says why.
"""

import hashlib

import pytest

from hamdec.pipeline import (InstanceConfig, approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance)

GOLDEN = [
    ("two-cliques-default", InstanceConfig.two_cliques_default(seed=7),
     "219773614e4a63d78c0a74b8b89ca75cdfe7a9a04afe9141ed0a537ff8304da6"),
    ("bipartite-default", InstanceConfig.bipartite_default(seed=7),
     "8d16cdc5582368f164bb870c06ade066bc4b1ee41f62a7c086c3531f2e3ec018"),
    ("two-cliques-mixed",
     InstanceConfig(mode="two-cliques", K=5, m=40, a0_size=2, b0_size=2,
                    eps0=0.01, hes_count=6, mes_count=6, seed=7),
     "e4e4a341cfcfa6fb59034520ff5e3acb875149495d0d4237285e5fb4bbbe8f0b"),
]


@pytest.mark.parametrize("name,cfg,digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_certificate_bytes_pinned(name, cfg, digest):
    host, partition, systems = generate_instance(cfg)
    decompose = (approx_decompose_bipartite if cfg.mode == "bipartite"
                 else approx_decompose_two_cliques)
    cert = decompose(host, partition, systems, cfg.mu, cfg.rho, cfg.gamma,
                     seed=cfg.seed)
    assert cert.global_report["all_ok"]
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest
