"""hamdec benchmark: certified decompositions per workload, end to end or
traced per module.

    python3 bench/run.py --workload tc-dense --seed 1 --seconds 38 --trace 0

    for w in tc-dense bip-dense tc-crowded; do
        python3 bench/run.py --workload $w --seed 1 --seconds 38; done

Run from the repository root; the library is imported from ``src/``.
Each run generates instances from ``--seed`` (instance k gets a seed
derived from the workload name, the workload seed and k) and works in a
closed loop, one instance at a time; it starts another instance while the
last one's duration still fits in ``--seconds``.

``--trace 0`` decomposes every instance with ``jobs=1`` and ``jobs=2``,
re-verifies each certificate after a canonical-JSON round trip, and
prints the end-to-end metrics.  ``--trace 1`` decomposes every instance
once untraced and once with spans recorded around every public hamdec
function (jobs=1 only: pool workers would lose their spans), the two in
alternating order from one instance to the next, prints the per-module
metrics and writes the spans to ``.bench_out/``.

Every certificate must be ``all_ok``, pass ``verify_certificate`` again
after the round trip, and be byte-identical to every other certificate
of the same (instance, seed), whatever ``jobs`` or tracing.  Anything
else is counted as failed, with its reason (and the ``PipelineError``
stage) printed.  A metric with no successful sample is left out of the
result and makes ``correct`` false.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Workload configs; unnamed InstanceConfig fields keep their defaults.
# The reasons for each choice are in BENCHMARK.json.
WORKLOADS = {
    "tc-dense": dict(mode="two-cliques", K=5, m=80, hes_count=25),
    "bip-dense": dict(mode="bipartite", K=4, m=80, eps0=0.015, gamma=0.1,
                      hes_count=0, bes_count=16),
    # 24 systems, not 28: at 28, slice retries made one decomposition take
    # 2 to 10 s depending on the seed, too uneven for a steady 38 s run
    "tc-crowded": dict(mode="two-cliques", K=5, m=40, a0_size=2, b0_size=2,
                       eps0=0.01, hes_count=12, mes_count=12),
}
# Small instances of both modes (with both system kinds and, through two
# slices, the process pool), decomposed before the first timed call so
# that lazy imports and first-call costs land in setup_s.  setup_s is the
# median of SETUP_SAMPLES set-ups (imports plus this warm-up: this
# process's own and those of fresh processes started before the loop),
# plus the median instance generation: the set-up a one-instance run pays
# before its first timed call.
WARMUP = [
    (dict(mode="two-cliques", K=3, m=24, a0_size=2, b0_size=2, eps0=0.06,
          mu=0.0, gamma=0.18, hes_count=3, mes_count=2), (1, 2)),
    (dict(mode="bipartite", K=2, m=20, eps0=0.05, mu=0.0, gamma=0.15,
          hes_count=0, bes_count=2), (1,)),
]


SETUP_SAMPLES = 5

# a verification takes well under 0.2 s, so each certificate is verified
# this many times to give verify_s enough samples
VERIFY_REPEATS = 3


def instance_seed(workload: str, seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class Gate:
    """Runs decompositions and checks every certificate they return."""

    def __init__(self, hamdec, workload: str, load):
        self.hd = hamdec
        self.workload = workload
        self.load = load  # config -> freshly generated (cfg, host, ...)
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong_outputs = 0
        self.reference: dict[str, str] = {}  # instance config -> sha256
        self.verify_s: list[float] = []

    def decompose(self, cfg, jobs: int, call=None):
        """One decomposition; returns (wall seconds, certificate or None).
        ``call`` runs the decompose function (the tracer passes its own)."""
        _, host, part, systems = self.load(cfg)
        fn = (self.hd.approx_decompose_bipartite if cfg.mode == "bipartite"
              else self.hd.approx_decompose_two_cliques)
        call = call or (lambda f, *a, **kw: f(*a, **kw))
        self.attempted += 1
        where = f"instance seed {cfg.seed}, jobs={jobs}"
        t0 = time.perf_counter()
        try:
            cert = call(fn, host, part, systems, cfg.mu, cfg.rho, cfg.gamma,
                        seed=cfg.seed, jobs=jobs)
        except Exception as exc:  # every raise is a counted failure
            wall = time.perf_counter() - t0
            stage = getattr(exc, "stage", None)
            self.fail(f"{where}: {type(exc).__name__}"
                      f"{f' stage={stage}' if stage else ''}: {exc}")
            return wall, None
        wall = time.perf_counter() - t0
        return wall, cert if self.check(cfg, cert, where) else None

    def check(self, cfg, cert, where: str) -> bool:
        text = cert.to_json()
        if not cert.global_report.get("all_ok"):
            return self.fail(f"{where}: certificate not all_ok", wrong=True)
        _, host, part, systems = self.load(cfg)  # as `hamdec verify` loads
        # verification builds no cache on the instance, so repeats on the
        # same objects time what a fresh `hamdec verify` does
        for _ in range(VERIFY_REPEATS):
            t0 = time.perf_counter()
            parsed = self.hd.DecompositionCertificate.from_json_obj(
                json.loads(text))
            report = self.hd.verify_certificate(host, part, systems, parsed)
            self.verify_s.append(time.perf_counter() - t0)
            if not report["global"]["all_ok"]:
                return self.fail(f"{where}: re-verification failed: "
                                 f"{report['global']}", wrong=True)
        sha = hashlib.sha256(text.encode()).hexdigest()
        ref = self.reference.setdefault(
            json.dumps(cfg.to_json_obj(), sort_keys=True), sha)
        if sha != ref:
            return self.fail(f"{where}: certificate sha256 {sha[:12]} differs "
                             f"from {ref[:12]} of the same instance and seed",
                             wrong=True)
        return True

    def fail(self, reason: str, wrong: bool = False) -> bool:
        self.failures.append(reason)
        self.wrong_outputs += wrong
        print(f"FAIL {self.workload}: {reason}", flush=True)
        return False


def median_of(values: list[float]):
    """Median of the successful samples, or None when there are none."""
    return statistics.median(values) if values else None


def run_e2e(gate: Gate, configs, seconds: float) -> dict:
    j1, j1_all, j2, j2_all, coverage = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    for cfg in configs:
        t_iter = time.perf_counter()
        wall, cert = gate.decompose(cfg, jobs=1)
        j1_all.append(wall)
        if cert is not None:
            j1.append(wall)
            coverage.append(cert.global_report["coverage_fraction"])
        wall, cert = gate.decompose(cfg, jobs=2)
        j2_all.append(wall)
        if cert is not None:
            j2.append(wall)
        last = time.perf_counter() - t_iter
        if time.perf_counter() + last > deadline:
            break
    print(f"{gate.workload}: {len(j1_all)} instances, jobs=1 times "
          f"{[round(t, 3) for t in j1_all]}, jobs=2 times "
          f"{[round(t, 3) for t in j2_all]}")
    return {
        "decompose_s": (median_of(j1), "s", len(j1)),
        "decompose_jobs2_s": (median_of(j2), "s", len(j2)),
        "verify_s": (median_of(gate.verify_s), "s", len(gate.verify_s)),
        # jobs=1 certificates per minute of jobs=1 decompose time
        "certified_per_min": (60.0 * len(j1) / sum(j1_all), "1/min",
                              len(j1_all)),
        # over every decomposition, jobs=1 and jobs=2: 1 - failed_fraction
        "certified_fraction": ((len(j1) + len(j2)) / gate.attempted,
                               "fraction", gate.attempted),
        "coverage_fraction": (statistics.fmean(coverage) if coverage
                              else None, "fraction", len(coverage)),
    }


def run_traced(gate: Gate, configs, seconds: float, out_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, per_call = [], [], []
    deadline = time.perf_counter() + seconds
    for k, cfg in enumerate(configs):
        t_iter = time.perf_counter()
        box = {}

        def call(fn, *args, **kwargs):
            # fn is looked up after install, so it is the wrapper
            out, box["first"] = tracer.call(f"{gate.workload}/{k}", fn,
                                            *args, **kwargs)
            return out

        def run_traced_once():
            tracer.install()
            try:
                return gate.decompose(cfg, jobs=1, call=call)
            finally:
                tracer.uninstall()

        # alternate which of the pair goes first, so that a drift in the
        # machine's speed does not read as tracing overhead
        if k % 2 == 0:
            plain, cert_plain = gate.decompose(cfg, jobs=1)
            wall, cert = run_traced_once()
        else:
            wall, cert = run_traced_once()
            plain, cert_plain = gate.decompose(cfg, jobs=1)
        if cert is not None and cert_plain is not None:
            untraced.append(plain)
            traced.append(wall)
            per_call.append(tracing.call_metrics(tracer.spans, box["first"]))
        last = time.perf_counter() - t_iter
        if time.perf_counter() + last > deadline:
            break
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tracer.write(out_path)
    print(f"{gate.workload}: {len(traced)} traced decompositions, "
          f"{len(tracer.spans)} spans -> {os.path.relpath(out_path, ROOT)}")
    if not per_call:
        return {"trace.decompose_s": (None, "s", 0)}
    metrics = {name: statistics.fmean(c[name] for c in per_call)
               for name in sorted(per_call[0])}
    overhead = statistics.fmean(traced) - statistics.fmean(untraced)
    metrics["trace.overhead_s"] = overhead
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    print(f"{gate.workload}: per-layer self times sum to {self_sum:.3f} s "
          f"(the traced decompose span, by construction); untraced "
          f"decompose {statistics.fmean(untraced):.3f} s; self-time sum "
          f"minus untraced {self_sum - statistics.fmean(untraced):+.3f} s; "
          f"trace.overhead_s {overhead:+.3f} s over {len(traced)} pairs")
    if overhead <= 0:
        print(f"{gate.workload}: note: trace.overhead_s is not positive, so "
              f"timing noise exceeds the tracer's cost on this run; it is "
              f"no measure of overhead here")
    return {name: (value, tracing.unit_of(name), len(per_call))
            for name, value in metrics.items()}


class SetUpError(Exception):
    pass


def set_up():
    """Import hamdec from ``src/`` and decompose the warm-up instances;
    returns (hamdec, import seconds, warm-up seconds)."""
    if not os.path.isfile(os.path.join(SRC, "hamdec", "__init__.py")):
        raise SetUpError(f"no hamdec sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import hamdec
    if not os.path.abspath(hamdec.__file__).startswith(SRC + os.sep):
        raise SetUpError(f"imported hamdec from {hamdec.__file__}, not {SRC}")
    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_gate = Gate(hamdec, "warm-up",
                     lambda cfg: (cfg, *hamdec.generate_instance(cfg)))
    for warm, jobs_list in WARMUP:
        for jobs in jobs_list:
            warm_gate.decompose(hamdec.InstanceConfig(seed=1, **warm), jobs)
    if warm_gate.failures:
        raise SetUpError("warm-up decomposition failed")
    return hamdec, import_s, time.perf_counter() - t0


def set_up_samples(import_s: float, warmup_s: float) -> list[float]:
    """Set-up seconds (imports plus warm-up) of this process and of
    SETUP_SAMPLES - 1 fresh processes that run set_up() and exit."""
    code = (f"import sys; sys.path.insert(0, {BENCH!r}); import run; "
            f"_, i, w = run.set_up(); print(i + w)")
    samples = [import_s + warmup_s]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        hamdec, import_s, warmup_s = set_up()
    except SetUpError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    gen_s: list[float] = []

    def load(cfg):
        # Every decomposition and verification gets freshly generated
        # objects, as a loaded instance file gives them: objects used
        # before would carry the lazy adjacency caches of the first call.
        t = time.perf_counter()
        inst = (cfg, *hamdec.generate_instance(cfg))
        gen_s.append(time.perf_counter() - t)
        return inst

    gate = Gate(hamdec, args.workload, load)
    configs = (hamdec.InstanceConfig(
        seed=instance_seed(args.workload, args.seed, k), **spec)
        for k in itertools.count())
    if args.trace:
        out_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = run_traced(gate, configs, args.seconds, out_path)
    else:
        setups = set_up_samples(import_s, warmup_s)
        print(f"{args.workload}: set-ups (imports + warm-up) "
              f"{[round(t, 3) for t in setups]}")
        metrics = run_e2e(gate, configs, args.seconds)
        metrics["setup_s"] = (
            statistics.median(setups) + statistics.median(gen_s), "s",
            len(setups))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1)

    empty = [name for name, (value, _u, _n) in metrics.items()
             if value is None]
    for name in empty:
        print(f"FAIL {args.workload}: {name} has no successful sample")
        del metrics[name]
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<38} {value:>12.6g} {unit:<9} n={samples}")
    print(f"  {'failed_fraction':<38} "
          f"{len(gate.failures) / gate.attempted:>12.6g} {'fraction':<9} "
          f"n={gate.attempted}")
    result = {
        "correct": gate.wrong_outputs == 0 and not empty,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
