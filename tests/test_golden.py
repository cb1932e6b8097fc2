"""Golden certificate pins.

The sha256 of the canonical certificate JSON for fixed (config, seed)
pairs.  A refactor that keeps every random draw must keep these bytes;
a change that alters the draws on purpose re-pins them and says why.

Last re-pin: each reservoir draw packs its residual once, with its
columns in one random permutation, and peels its perfect matchings off
it, each trying the rows in a fresh random permutation; before, every
matching drew a fresh permutation of the columns as well.  Every
reserve and merge reservoir is a different, equally valid draw, so
every certificate's bytes change while its verdict does not.
"""

import hashlib

import pytest

from hamdec.pipeline import (InstanceConfig, approx_decompose_bipartite,
                             approx_decompose_two_cliques, generate_instance)

GOLDEN = [
    ("two-cliques-default", InstanceConfig.two_cliques_default(seed=7),
     "0bee0c753d9b795b5576ee67131c2a33ee6b7a150b1a9886015598b54b59f48e"),
    ("bipartite-default", InstanceConfig.bipartite_default(seed=7),
     "ad9cf68cef9308ca30800be30b107357d6148aa2a6719f0f5081c78fbb73b485"),
    ("two-cliques-mixed",
     InstanceConfig(mode="two-cliques", K=5, m=40, a0_size=2, b0_size=2,
                    eps0=0.01, hes_count=6, mes_count=6, seed=7),
     "9d1966547cf724ebd4acd730174bdedc0d9084754d9dec6bf9db8b075ff65aa4"),
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
