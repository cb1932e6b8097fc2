"""Span tracing of hamdec from outside the library.

`Tracer.install` replaces every public function of the hamdec modules,
in every module namespace that holds a reference to it (so a call such as
`perfect_matching` from `cyclic` or `verify_hamilton_cycle` from
`assembly` is seen), plus the constructors and operators of `Digraph`
and `Multigraph`, with a wrapper that records a span while a traced call
is open.  Spans stay in memory as `[name, start, end, parent, instance,
error, result]` lists and are written out once, at the end of the run.
The library itself is not modified on disk; `uninstall` restores it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("pipeline", "exceptional", "cyclic", "classic", "extension",
          "assembly", "core")
CLASS_METHODS = {
    "Digraph": ("__init__", "__add__", "__sub__", "without_arcs",
                "with_arcs"),
    "Multigraph": ("__init__", "__add__", "__sub__"),
}
# spans whose return value the count metrics are derived from
KEEP_RESULT = {"assembly.extend_to_one_factors", "assembly.assemble_slice",
               "cyclic.sysdecom", "cyclic.sysdecombip"}

# units of the metrics that are neither times (``_s``) nor counts
UNITS = {
    "pipeline.slice_attempts_per_slice": "attempts",
    "cyclic.reservoir_accept_ratio": "ratio",
    "assembly.cycles_per_factor": "cycles",
    "assembly.reservoir_arcs_per_slot": "arcs",
    "assembly.reservoir_arcs_per_join": "arcs",
}

NAME, START, END, PARENT, INSTANCE, ERROR, RESULT = range(7)


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"hamdec.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        namespaces = list(modules.values()) + [sys.modules["hamdec"]]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._undo.append((ns, name, obj))
                    setattr(ns, name, wrappers[id(obj)])
        core = modules["core"]
        for cls_name, methods in CLASS_METHODS.items():
            cls = getattr(core, cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"core.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        keep = name in KEEP_RESULT
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.instance is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.instance, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                rec[ERROR] = type(exc).__name__
                raise
            else:
                rec[END] = clock()
                if keep:
                    rec[RESULT] = out
                return out
            finally:
                stack.pop()

        return traced

    # -- recording ------------------------------------------------------

    def call(self, instance: str, fn, *args, **kwargs):
        """Run the installed (wrapped) public function ``fn`` as the root
        span of ``instance``; returns (result, index of the root span)."""
        first = len(self.spans)
        self.instance = instance
        try:
            return fn(*args, **kwargs), first
        finally:
            self.instance = None

    def write(self, path: str) -> None:
        """Spans as JSON lines; kept results are dropped."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:RESULT]) + "\n")


# -- derived metrics --------------------------------------------------------


def _cycle_count(factor) -> int:
    succ = dict(factor.arcs())
    seen: set[int] = set()
    count = 0
    for v in succ:
        if v in seen:
            continue
        count += 1
        while v not in seen:
            seen.add(v)
            v = succ[v]
    return count


def call_metrics(spans: list[list], first: int) -> dict[str, float]:
    """Per-layer metrics of the traced call whose root span is
    ``spans[first]``; the spans of the call are ``spans[first:]``."""
    call = spans[first:]
    child_time = [0.0] * len(call)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    failures: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    names = [rec[NAME] for rec in call]
    parents = [rec[PARENT] - first if rec[PARENT] >= 0 else -1
               for rec in call]
    for i, rec in enumerate(call):
        dur = rec[END] - rec[START]
        if parents[i] >= 0:
            child_time[parents[i]] += dur
        calls[names[i]] += 1
        if rec[ERROR] is not None:
            failures[names[i]] += 1
        # a recursive call is already inside its outermost span
        p = parents[i]
        while p >= 0 and names[p] != names[i]:
            p = parents[p]
        if p < 0:
            inclusive[names[i]] += dur
    for i, rec in enumerate(call):
        layer_self[names[i].split(".")[0]] += \
            rec[END] - rec[START] - child_time[i]

    m: dict[str, float] = {f"{layer}.self_s": layer_self[layer]
                           for layer in LAYERS}
    m["trace.decompose_s"] = call[0][END] - call[0][START]

    def under_root(name: str) -> float:
        return sum(rec[END] - rec[START] for i, rec in enumerate(call)
                   if names[i] == name and parents[i] >= 0
                   and names[parents[i]].startswith("pipeline.approx_"))

    m["pipeline.validate_s"] = under_root("pipeline.validate_hypotheses")
    m["verify.in_decompose_s"] = under_root("pipeline.verify_certificate")
    m["exceptional.fictive_s"] = (
        inclusive["exceptional.build_fictive_two_cliques"]
        + inclusive["exceptional.build_fictive_bipartite"])
    m["exceptional.splice_s"] = (inclusive["exceptional.splice_two_cliques"]
                                 + inclusive["exceptional.splice_bipartite"])
    m["cyclic.sysdecom_s"] = (inclusive["cyclic.sysdecom"]
                              + inclusive["cyclic.sysdecombip"])
    m["cyclic.reserve_regular_s"] = inclusive["cyclic.reserve_regular"]
    m["cyclic.check_superregular_s"] = inclusive["cyclic.check_superregular"]
    m["classic.perfect_matching_s"] = inclusive["classic.perfect_matching"]
    m["classic.perfect_matching_calls"] = calls["classic.perfect_matching"]
    m["classic.regular_spanning_subgraph_s"] = \
        inclusive["classic.regular_spanning_subgraph"]
    m["classic.one_factorize_s"] = \
        inclusive["classic.regular_bipartite_to_matchings"]
    m["classic.hopcroft_karp_s"] = inclusive["classic.hopcroft_karp"]
    m["extension.balance_extend_s"] = (
        inclusive["extension.balance_extend_cliques"]
        + inclusive["extension.balance_extend_bipartite"])
    m["assembly.assemble_slice_s"] = inclusive["assembly.assemble_slice"]
    m["assembly.one_factor_s"] = inclusive["assembly.extend_to_one_factors"]
    m["assembly.merge_s"] = inclusive["assembly.merge_to_hamilton"]
    m["assembly.merge_calls"] = calls["assembly.merge_to_hamilton"]
    m["assembly.reorder_s"] = inclusive["assembly.reorder_for_consistency"]
    m["assembly.ordered_hamilton_s"] = \
        inclusive["assembly.find_ordered_hamilton"]
    m["assembly.ordered_hamilton_calls"] = \
        calls["assembly.find_ordered_hamilton"]
    m["assembly.ordered_hamilton_failures"] = \
        failures["assembly.find_ordered_hamilton"]
    m["core.digraph_builds"] = calls["core.Digraph.__init__"]
    m["core.digraph_build_s"] = inclusive["core.Digraph.__init__"]
    m["core.multigraph_sub_s"] = inclusive["core.Multigraph.__sub__"]
    m["core.multigraph_add_s"] = inclusive["core.Multigraph.__add__"]
    m["core.hamilton_check_s"] = inclusive["core.verify_hamilton_cycle"]

    # counts derived from what the public calls returned
    slices = 0
    factors = 0
    cycles = 0
    joins = 0
    res_arcs = 0
    slots = 0
    for i, rec in enumerate(call):
        name, out = names[i], rec[RESULT]
        if out is None:
            continue
        if name == "cyclic.sysdecom":
            slices += sum(1 for side in out[:2] for s in side if s.slots)
        elif name == "cyclic.sysdecombip":
            slices += sum(1 for s in out[0] if s.slots)
        elif name == "assembly.extend_to_one_factors":
            counts = [_cycle_count(f) for f in out]
            factors += len(counts)
            cycles += sum(counts)
            parent = parents[i]
            if parent >= 0 and call[parent][RESULT] is not None:
                # this factor set belongs to an assembly that succeeded
                joins += sum(c - 1 for c in counts)
        elif name == "assembly.assemble_slice":
            slots += len(out.reservoir_usage)
            res_arcs += sum(len(u) for u in out.reservoir_usage)
    for rec in call:
        rec[RESULT] = None
    m["pipeline.slice_attempts_per_slice"] = (
        calls["assembly.assemble_slice"] / slices if slices else 0.0)
    # every check_superregular call is one reservoir draw; a returning
    # reserve_regular accepted exactly one of them
    accepted = (calls["cyclic.reserve_regular"]
                - failures["cyclic.reserve_regular"])
    checks = calls["cyclic.check_superregular"]
    m["cyclic.reservoir_accept_ratio"] = accepted / checks if checks else 0.0
    m["assembly.cycles_per_factor"] = cycles / factors if factors else 0.0
    m["assembly.reservoir_arcs_per_slot"] = res_arcs / slots if slots else 0.0
    m["assembly.reservoir_arcs_per_join"] = res_arcs / joins if joins else 0.0
    return m
