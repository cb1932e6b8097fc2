"""Golden certificate pins.

The sha256 of the canonical certificate JSON for fixed (config, seed)
pairs.  A refactor that keeps every random draw must keep these bytes;
a change that alters the draws on purpose re-pins them and says why.

Last re-pin: `classic.regular_spanning_subgraph` now finds its r-factor
by a greedy fill and augmenting paths on packed rows instead of a
max-flow library call.  The random streams are the same, but the bulk
slots' 1-factors come from a different, equally valid r-factor, so every
certificate's bytes change while its verdict does not.
"""

import hashlib

import pytest

from hamdec.pipeline import (InstanceConfig, approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance)

GOLDEN = [
    ("two-cliques-default", InstanceConfig.two_cliques_default(seed=7),
     "cd135888540d9fede32141f4ade78e930570b604afe9c7f90ccaee88c442959d"),
    ("bipartite-default", InstanceConfig.bipartite_default(seed=7),
     "f8f4c685fbb646c57b9f1c5062db45fcad2cf60a8380ceeaa3eab148beb31a46"),
    ("two-cliques-mixed",
     InstanceConfig(mode="two-cliques", K=5, m=40, a0_size=2, b0_size=2,
                    eps0=0.01, hes_count=6, mes_count=6, seed=7),
     "71dd0db9b7c81fe85a0c094abac365ecf05ec378cea2befd9991e87b9b7df9b3"),
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
