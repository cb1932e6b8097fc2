"""Command-line surface: generate instances, decompose them, verify
certificates, run the invariant self-tests, and export DOT files.

All JSON artifacts carry a "schema": 1 field.  The HAMDEC_SEED
environment variable overrides any configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from . import pipeline
from .core import ClusterPartition, Host, canonical_json
from .errors import HamdecError, InvalidParameter, MalformedInput
from .pipeline import (MODES, DecompositionCertificate, InstanceConfig,
                       MODE_BIPARTITE, MODE_TWO_CLIQUES, generate_instance,
                       verify_certificate)


INSTANCE_KEYS = ("config", "graph", "partition", "exceptional_systems")


def _require_ints(values, what: str) -> None:
    """Raise MalformedInput unless every value is an exact int: JSON true
    and 1.0 would pass as the int 1."""
    if not set(map(type, values)) <= {int}:
        raise MalformedInput(f"instance {what} holds a value that is not "
                             f"an int")


def _read_json(path: str, what: str):
    """The JSON value in the file ``path``; raises MalformedInput when the
    file cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read the {what} file: {exc}") from None
    except ValueError as exc:
        raise MalformedInput(f"{what} file is not JSON: {exc}") from None


def _load_instance(path: str):
    """(config, host, partition, systems) of an instance file; raises
    MalformedInput when the file cannot be read, is not JSON, is not an
    object, lacks one of INSTANCE_KEYS or holds a part that cannot be
    read: among them a vertex count, vertex id or multiplicity that is not
    an exact int, a multiplicity outside 1..255, and a partition whose
    vertices are not exactly the host's 0..n-1 (checked before the n x n
    host matrix is allocated)."""
    obj = _read_json(path, "instance")
    if not isinstance(obj, dict):
        raise MalformedInput("an instance must be a JSON object")
    for key in INSTANCE_KEYS:
        if key not in obj:
            raise MalformedInput(f"instance lacks the key {key!r}")
    graph, part = obj["graph"], obj["partition"]
    try:
        _require_ints([graph["n"]], "vertex count")
        _require_ints(chain.from_iterable(graph["edges"]), "edge")
        _require_ints(chain(part.get("A0", ()), part.get("B0", ()),
                            *part.get("A", ()), *part.get("B", ()),
                            *part.get("clusters", ())), "partition")
        for es in obj["exceptional_systems"]:
            _require_ints(chain(es.get("isolated", ()), *es["paths"]),
                          "exceptional system")
        cfg = InstanceConfig.from_json_obj(obj["config"])
        partition = ClusterPartition.from_json_obj(part)
        n = graph["n"]
        if partition.n != n or partition.vertices() != list(range(n)):
            raise MalformedInput(
                f"the partition's {partition.n} vertices are not the host's "
                f"0..{n - 1}: a vertex lies outside the host or outside "
                f"the partition")
        host = Host.from_json_obj(graph)
        ctor = MODES[cfg.mode].system_class
        systems = [ctor.from_json_obj(o, partition)
                   for o in obj["exceptional_systems"]]
    except MalformedInput:
        raise
    except (HamdecError, AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise MalformedInput(
            f"instance unreadable: {type(exc).__name__}: {exc}") from None
    return cfg, host, partition, systems


def _dump_instance(path: str, cfg, host, partition, systems):
    obj = {
        "schema": 1,
        "config": cfg.to_json_obj(),
        "graph": host.to_json_obj(),
        "partition": partition.to_json_obj(),
        "exceptional_systems": [es.to_json_obj() for es in systems],
    }
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def _decomposer(mode: str):
    """The public decomposition entry point of ``mode``."""
    return getattr(pipeline, MODES[mode].entry_point)


def _effective_seed(args) -> int:
    env = os.environ.get("HAMDEC_SEED")
    try:
        return args.seed if env is None else int(env)
    except ValueError:
        raise InvalidParameter(
            f"HAMDEC_SEED must be an integer, not {env!r}") from None


def cmd_gen(args) -> int:
    seed = _effective_seed(args)
    if args.params:
        cfg = InstanceConfig.from_json_obj(_read_json(args.params, "config"))
        cfg.seed = seed
    elif args.mode == MODE_BIPARTITE:
        cfg = InstanceConfig.bipartite_default(seed=seed)
    else:
        cfg = InstanceConfig.two_cliques_default(seed=seed)
    if args.K:
        cfg.K = args.K
    if args.m:
        cfg.m = args.m
    host, partition, systems = generate_instance(cfg)
    _dump_instance(args.out, cfg, host, partition, systems)
    print(f"wrote instance: n={partition.n}, e={host.edge_count()}, "
          f"systems={len(systems)} -> {args.out}")
    return 0


def cmd_decompose(args) -> int:
    cfg, host, partition, systems = _load_instance(args.instance)
    seed = _effective_seed(args) if (args.seed is not None or
                                     "HAMDEC_SEED" in os.environ) \
        else cfg.seed
    cert = _decomposer(cfg.mode)(host, partition, systems, cfg.mu, cfg.rho,
                                 cfg.gamma, seed, jobs=args.jobs)
    with open(args.out, "w") as fh:
        fh.write(cert.to_json())
    ok = cert.global_report.get("all_ok", False)
    print(f"wrote certificate: {len(cert.slots)} slots, all_ok={ok} "
          f"-> {args.out}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    try:
        cfg, host, partition, systems = _load_instance(args.instance)
        cert = DecompositionCertificate.from_json_obj(
            _read_json(args.certificate, "certificate"))
        report = verify_certificate(host, partition, systems, cert)
    except MalformedInput as exc:
        print(canonical_json({"all_ok": False, "malformed": str(exc)}))
        print(f"input unreadable: {exc}", file=sys.stderr)
        return 1
    print(canonical_json(report["global"]))
    if not report["global"]["all_ok"]:
        for idx, verdicts in enumerate(report["slots"]):
            if not verdicts["ok"]:
                print(f"slot {idx} failed: {canonical_json(verdicts)}",
                      file=sys.stderr)
        return 1
    return 0


def cmd_selftest(args) -> int:
    """Run the invariant suites on small built-in configurations."""
    from .classic import walecki_decompose, bipartite_hamilton_decompose
    # an unusable HAMDEC_SEED is an input error, not a failed check
    seed = _effective_seed(args)
    failures = []

    def check(name, fn):
        try:
            fn()
            print(f"  ok   {name}")
        except Exception as exc:  # report, keep going
            failures.append((name, exc))
            print(f"  FAIL {name}: {exc}")

    def walecki():
        for K in (3, 5, 7):
            cycles = walecki_decompose(K)
            seen = set()
            for c in cycles:
                for e in c.undirected_edge_set():
                    assert e not in seen
                    seen.add(e)
            assert len(seen) == K * (K - 1) // 2

    def bipartite():
        for K in (2, 4, 6):
            cycles = bipartite_hamilton_decompose(K)
            seen = set()
            for c in cycles:
                seen |= c.undirected_edge_set()
            assert len(seen) == K * K

    def tiny_pipeline(**config):
        def run():
            cfg = InstanceConfig(a0_size=1, b0_size=1, eps0=0.02, mu=0.0,
                                 rho=0.1, seed=seed, **config)
            host, partition, systems = generate_instance(cfg)
            cert = _decomposer(cfg.mode)(host, partition, systems, cfg.mu,
                                         cfg.rho, cfg.gamma, seed)
            assert cert.global_report["all_ok"]
        return run

    print("selftest:")
    check("walecki-cover", walecki)
    check("bipartite-cover", bipartite)
    check("two-cliques-pipeline",
          tiny_pipeline(mode=MODE_TWO_CLIQUES, K=3, m=24, gamma=0.18,
                        hes_count=5, mes_count=0))
    check("bipartite-pipeline",
          tiny_pipeline(mode=MODE_BIPARTITE, K=4, m=32, gamma=0.12,
                        hes_count=0, bes_count=8))
    return 1 if failures else 0


def cmd_export_dot(args) -> int:
    """Write the host of a checked instance file as a DOT graph, one
    ``u -- v;`` line per unit of multiplicity."""
    _cfg, host, _partition, _systems = _load_instance(args.input)
    with open(args.out, "w") as fh:
        fh.write("graph G {\n")
        for (u, v, k) in host.edges():
            fh.write(f"  {u} -- {v};\n" * k)
        fh.write("}\n")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hamdec",
        description="Approximate Hamilton decompositions with certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a synthetic instance as JSON")
    g.add_argument("--mode", choices=[MODE_TWO_CLIQUES, MODE_BIPARTITE],
                   default=MODE_TWO_CLIQUES)
    g.add_argument("--K", type=int, default=0)
    g.add_argument("--m", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--params", help="JSON file with an InstanceConfig")
    g.add_argument("--out", default="instance.json")
    g.set_defaults(fn=cmd_gen)

    d = sub.add_parser("decompose",
                       help="instance JSON -> certificate JSON")
    d.add_argument("instance")
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent slices")
    d.add_argument("--out", default="certificate.json")
    d.set_defaults(fn=cmd_decompose)

    v = sub.add_parser("verify",
                       help="instance + certificate -> report (exit 0/1)")
    v.add_argument("instance")
    v.add_argument("certificate")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("selftest", help="run the invariant suites")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_selftest)

    e = sub.add_parser("export-dot", help="instance JSON -> DOT of its host")
    e.add_argument("input")
    e.add_argument("--out", default="graph.dot")
    e.set_defaults(fn=cmd_export_dot)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HamdecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
