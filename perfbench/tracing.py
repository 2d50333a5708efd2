"""Span tracer that wraps coded_aoi's public functions from outside the library.

Every traced function is replaced, in every ``coded_aoi`` namespace that
binds it, by a wrapper that records one span (name, start, end, parent) per
call while the tracer is enabled.  The modules import each other with
``from .x import y``, so a function is reachable under several names; all of
them are rebound, otherwise calls made through an unwrapped alias would
silently drop out of a layer.

Spans live in flat arrays for the whole pass and are reduced to per-layer
numbers when the pass ends.  A span's self time is its duration minus the
durations of its direct children; calls run on one thread, so children are
disjoint and properly nested inside their parent.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Optional

SCHEME_LABELS = {"Uncoded": "uncoded", "Repetition": "repetition",
                 "MDS": "mds", "MultiMDS": "mm-mds"}

BYTES_PER_DRAW = 8  # float64; bytes are computed from array sizes, not measured


class Tracer:
    """In-memory span store plus exact counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.sample_ns: dict[str, float] = {}  # per-scheme sampler time, ns

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open_name(self) -> Optional[str]:
        """Name of the innermost open span, or None outside every span."""
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def duration(self, idx: int) -> float:
        return self.t1[idx] - self.t0[idx]

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps({"id": i, "name": self.names[self.name[i]],
                                     "parent": self.parent[i], "start": self.t0[i],
                                     "end": self.t1[i]}) + "\n")


def _wrap(tracer: Tracer, span: str, fn: Callable, instrumented: Optional[Callable],
          after: Optional[Callable]) -> Callable:
    nid = tracer.name_id(span)
    body = instrumented or fn

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            out = body(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, idx, args, kwargs, out)
        return out

    return traced


def _after_sample_batch(tracer, idx, args, kwargs, out):
    tracer.count("order_stats.sample_batch.draws", out.size)
    if tracer.open_name() == "schemes.sample_service_batch":
        tracer.count("schemes.worker_draws", out.size)


def _after_sample_service_batch(tracer, idx, args, kwargs, out):
    label = SCHEME_LABELS[type(args[0]).__name__]
    tracer.count("schemes.sample_service_batch.samples", len(out))
    tracer.count(f"schemes.sample.{label}.samples", len(out))
    tracer.sample_ns[label] = tracer.sample_ns.get(label, 0.0) + tracer.duration(idx) * 1e9


def _after_run_parallel(signature):
    def after(tracer, idx, args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        reps = bound.arguments["reps"]
        tracer.count("simulate.cycles", out.cycles)
        tracer.count("simulate.reps", reps)
        if out.dropped_fraction is not None:
            # The report carries dropped/arrivals only; each replication sees
            # cycles + 1 + dropped arrivals, so the integer counts follow.
            f = out.dropped_fraction
            dropped = round(f * (out.cycles + reps) / (1.0 - f))
            arrivals = out.cycles + reps + dropped
            if dropped / arrivals != f:
                raise ValueError(f"cannot recover drop counts from fraction {f!r}")
            tracer.count("simulate.dropped", dropped)
            tracer.count("simulate.arrivals", arrivals)
    return after


def _counting_refine(tracer: Tracer, refine: Callable) -> Callable:
    def instrumented(age_fn, *args, **kwargs):
        def counted(k):
            tracer.count("optimize.refine_discrete.evals")
            return age_fn(k)
        return refine(counted, *args, **kwargs)
    return instrumented


def _targets():
    """(span name, defining module, attribute, instrumented factory, after hook)."""
    from coded_aoi import age, cli, levels, optimize, order_stats, schemes, simulate
    return [
        ("order_stats.harmonic", order_stats, "harmonic", None, None),
        ("order_stats.sample_batch", order_stats, "sample_batch", None, _after_sample_batch),
        ("schemes.sample_service_batch", schemes, "sample_service_batch", None,
         _after_sample_service_batch),
        ("schemes.service_moments", schemes, "service_moments", None, None),
        ("levels.solve_levels", levels, "solve_levels", None, None),
        ("levels.chain_alphas", levels, "chain_alphas", None, None),
        ("age.age_of", age, "age_of", None, None),
        ("optimize.opt_repetition", optimize, "opt_repetition", None, None),
        ("optimize.opt_mds", optimize, "opt_mds", None, None),
        ("optimize.opt_mm_mds", optimize, "opt_mm_mds", None, None),
        ("optimize.refine_discrete", optimize, "refine_discrete", _counting_refine, None),
        ("simulate.run_parallel", simulate, "run_parallel", None,
         _after_run_parallel(inspect.signature(simulate.run_parallel))),
        ("simulate.batch_means_ci", simulate, "batch_means_ci", None, None),
        ("cli.main", cli, "main", None, None),
    ]


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every traced function in every coded_aoi namespace that binds it.

    Returns span name -> the qualified names that were rebound.  Raises
    LookupError when a traced function is bound nowhere, so a renamed
    function fails the pass instead of zeroing its layer.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "coded_aoi" or name.startswith("coded_aoi."))]
    bindings: dict[str, list[str]] = {}
    for span, module, attr, instrumented, after in _targets():
        fn = getattr(module, attr)
        wrapper = _wrap(tracer, span, fn,
                        instrumented(tracer, fn) if instrumented else None, after)
        bound = []
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapper)
                    bound.append(f"{m.__name__}.{key}")
        if not bound:
            raise LookupError(f"traced function {span} is bound in no coded_aoi module")
        bindings[span] = sorted(bound)
    return bindings


def reduce_spans(tracer: Tracer) -> dict:
    """Per-span-name calls, total and self seconds, plus the simulator split.

    ``service_in_sim_s`` is the time of sampler spans nested (at any depth)
    inside run_parallel; ``top_s`` is the summed duration of root spans,
    which equals the summed self time of all spans.
    """
    n = len(tracer.name)
    child_s = [0.0] * n
    in_sim = [False] * n
    sim_id = tracer._ids.get("simulate.run_parallel", -1)
    top_s = 0.0
    for i in range(n):
        p = tracer.parent[i]
        d = tracer.duration(i)
        if p < 0:
            top_s += d
        else:
            child_s[p] += d
            in_sim[i] = in_sim[p] or tracer.name[p] == sim_id
    by_name: dict[str, dict[str, float]] = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in tracer.names}
    service_in_sim_s = 0.0
    sampler_id = tracer._ids.get("schemes.sample_service_batch", -1)
    for i in range(n):
        agg = by_name[tracer.names[tracer.name[i]]]
        d = tracer.duration(i)
        agg["calls"] += 1
        agg["s"] += d
        agg["self_s"] += d - child_s[i]
        if in_sim[i] and tracer.name[i] == sampler_id:
            service_in_sim_s += d
    return {"spans": by_name, "service_in_sim_s": service_in_sim_s, "top_s": top_s}


def layer_metrics(tracer: Tracer, ops_s: float, cli_rows: int) -> dict:
    """Per-layer timings (s, ns), exact counts and span calls of one traced pass.

    ``ops_s`` is the pass's traced wall time; what the root spans do not
    cover is reported as ``trace.unaccounted_s``.
    """
    reduced = reduce_spans(tracer)
    spans = reduced["spans"]  # every installed span name, zero when never called

    def s(name: str) -> float:
        return spans[name]["s"]

    def calls(name: str) -> int:
        return spans[name]["calls"]

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for n, v in spans.items() if n.split(".")[0] == layer)

    counts = tracer.counts
    draws = counts.get("order_stats.sample_batch.draws", 0)
    samples = counts.get("schemes.sample_service_batch.samples", 0)
    timings = {
        "order_stats.harmonic.s": s("order_stats.harmonic"),
        "order_stats.sample_batch.s": s("order_stats.sample_batch"),
        "order_stats.self_s": layer_self("order_stats"),
        "schemes.sample_service_batch.s": s("schemes.sample_service_batch"),
        "schemes.service_moments.s": s("schemes.service_moments"),
        "schemes.self_s": layer_self("schemes"),
        "levels.solve_levels.s": s("levels.solve_levels"),
        "levels.self_s": layer_self("levels"),
        "age.age_of.s": s("age.age_of"),
        "age.self_s": layer_self("age"),
        "optimize.opt_mds.s": s("optimize.opt_mds"),
        "optimize.opt_mm_mds.s": s("optimize.opt_mm_mds"),
        "optimize.refine_discrete.s": s("optimize.refine_discrete"),
        "optimize.self_s": layer_self("optimize"),
        "simulate.run_parallel.s": s("simulate.run_parallel"),
        "simulate.service_s": reduced["service_in_sim_s"],
        "simulate.self_s": spans["simulate.run_parallel"]["self_s"],
        "simulate.batch_means_ci.s": s("simulate.batch_means_ci"),
        "cli.main.s": s("cli.main"),
        "cli.self_s": layer_self("cli"),
        "trace.spans_s": reduced["top_s"],
        "trace.unaccounted_s": ops_s - reduced["top_s"],
    }
    for label in ("uncoded", "repetition", "mds", "mm-mds"):
        n = counts.get(f"schemes.sample.{label}.samples", 0)
        timings[f"schemes.sample.{label}.ns_per_sample"] = (
            tracer.sample_ns.get(label, 0.0) / n if n else 0.0)
    exact = {
        "order_stats.harmonic.calls": calls("order_stats.harmonic"),
        "order_stats.sample_batch.draws": draws,
        "order_stats.sample_batch.bytes_computed": draws * BYTES_PER_DRAW,
        "schemes.sample_service_batch.calls": calls("schemes.sample_service_batch"),
        "schemes.sample_service_batch.samples": samples,
        "schemes.worker_draws_per_sample": (
            counts.get("schemes.worker_draws", 0) / samples if samples else 0.0),
        "schemes.service_moments.calls": calls("schemes.service_moments"),
        "levels.solve_levels.calls": calls("levels.solve_levels"),
        "levels.chain_alphas.calls": calls("levels.chain_alphas"),
        "age.age_of.calls": calls("age.age_of"),
        "optimize.opt_mm_mds.calls": calls("optimize.opt_mm_mds"),
        "optimize.refine_discrete.evals": counts.get("optimize.refine_discrete.evals", 0),
        "simulate.run_parallel.calls": calls("simulate.run_parallel"),
        "simulate.cycles": counts.get("simulate.cycles", 0),
        "simulate.arrivals": counts.get("simulate.arrivals", 0),
        "simulate.dropped": counts.get("simulate.dropped", 0),
        "simulate.reps": counts.get("simulate.reps", 0),
        "cli.rows": cli_rows,
    }
    return {"timings": timings, "counts": exact,
            "span_calls": {n: v["calls"] for n, v in spans.items()}}
