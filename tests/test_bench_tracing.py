"""Drive bench/tracing.py the way `bench/run.py --trace 1` does, so that a
refactor removing a name the tracer wraps fails here, not in a benchmark
run."""

import importlib.util
import os

import pytest

import hamdec

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("warm", [0, 1], ids=["two-cliques", "bipartite"])
def test_traced_warmup_decomposition(warm):
    run, tracing = _load("run"), _load("tracing")
    config, _jobs = run.WARMUP[warm]
    cfg = hamdec.InstanceConfig(seed=1, **config)
    host, part, systems = hamdec.generate_instance(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up after install, so this is the wrapped entry point
        fn = (hamdec.approx_decompose_bipartite if cfg.mode == "bipartite"
              else hamdec.approx_decompose_two_cliques)
        cert, first = tracer.call("warm-up", fn, host, part, systems, cfg.mu,
                                  cfg.rho, cfg.gamma, seed=cfg.seed, jobs=1)
    finally:
        tracer.uninstall()
    assert cert.global_report["all_ok"]
    metrics = tracing.call_metrics(tracer.spans, first)
    for name in ("assembly.merge_calls", "cyclic.sysdecom_s",
                 "exceptional.fictive_s"):
        assert metrics[name] > 0, name
    # the pipeline keeps its path sequences as successor maps
    assert metrics["core.digraph_builds"] == 0
