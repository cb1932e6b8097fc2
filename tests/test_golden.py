"""Golden certificate pins.

The sha256 of the canonical certificate JSON for fixed (config, seed)
pairs.  A refactor that keeps every random draw must keep these bytes;
a change that alters the draws on purpose re-pins them and says why.

Last re-pin: each slice keeps its reserve graph as the perfect matchings
sysdecom drew for it, and the balanced extensions take their pools from
those matchings instead of re-factorizing the reserve.  The random
streams are the same, but the extensions use different, equally valid
reserve matchings, so every certificate's bytes change while its verdict
does not.
"""

import hashlib

import pytest

from hamdec.pipeline import (InstanceConfig, approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance)

GOLDEN = [
    ("two-cliques-default", InstanceConfig.two_cliques_default(seed=7),
     "73f456a1d1c74e3b948e559fe991a82987b4e91d93f5c20328bed0fe3a4d27ae"),
    ("bipartite-default", InstanceConfig.bipartite_default(seed=7),
     "a1a092f14095539f83c9b3347a112caea89ed105ef4b757bd5e4eb19844be731"),
    ("two-cliques-mixed",
     InstanceConfig(mode="two-cliques", K=5, m=40, a0_size=2, b0_size=2,
                    eps0=0.01, hes_count=6, mes_count=6, seed=7),
     "5191aeff49122777674a893f9c78997213f25cb2efec800b6148c9d50e8f17e0"),
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
