"""Golden certificate pins.

The sha256 of the canonical certificate JSON for fixed (config, seed)
pairs.  A refactor that keeps every random draw must keep these bytes;
a change that alters the draws on purpose re-pins them and says why.

Last re-pin: `classic.regular_bipartite_to_matchings` now peels r
Hopcroft-Karp perfect matchings off an r-regular pair instead of
splitting it along Euler circuits.  The random streams are the same, but
the 1-factors they choose among differ, so every certificate's bytes
change while its verdict does not.
"""

import hashlib

import pytest

from hamdec.pipeline import (InstanceConfig, approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance)

GOLDEN = [
    ("two-cliques-default", InstanceConfig.two_cliques_default(seed=7),
     "50075efa35e85d6a65a23e0aa96d2b57ef16533a36ccaceb4d7f89a2937ed224"),
    ("bipartite-default", InstanceConfig.bipartite_default(seed=7),
     "abf2c53e05dcafbda37c869dd95e2d567b2a7552f91c759b70559a31a798773f"),
    ("two-cliques-mixed",
     InstanceConfig(mode="two-cliques", K=5, m=40, a0_size=2, b0_size=2,
                    eps0=0.01, hes_count=6, mes_count=6, seed=7),
     "f4b566b9960c6350ba0c6edf50d5f6674efd82a1be188d40714dc4bc3db7e89e"),
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
