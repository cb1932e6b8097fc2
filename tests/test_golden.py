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
     "417ce58dcd64f92b0d92a8ec52d3833bcf9c4ddd2871e3d8d95632f4aeba37e3"),
    ("bipartite-default", InstanceConfig.bipartite_default(seed=7),
     "69846cd7aa2ba249687ab5e8d871c1d116958c79d39fce42376432fb421cfdb1"),
    ("two-cliques-mixed",
     InstanceConfig(mode="two-cliques", K=5, m=40, a0_size=2, b0_size=2,
                    eps0=0.01, hes_count=6, mes_count=6, seed=7),
     "6cd006bb3d9ecbb5c05fa7d5df65f0fc22abf81ff7b7c35b7e2e0925b4ff9aac"),
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
