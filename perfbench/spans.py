"""Span recorder for the traced run, and the per-layer metrics computed from it.

``install`` wraps the public latblock functions that the per-layer metrics
name (``TRACED``) and rebinds each wrapper under every name that refers to
the function in any latblock namespace (``harness`` holds its own
``build_plan``, ``cli`` its own ``b0`` alias, and so on).  Helpers such as
``v_weight`` stay untraced: their time counts in the self time of the
named function that called them, and wrapping a helper called 10^5 times
would add a quarter to ``shape_constants``.  A span is (id, name, start,
end, parent id, thread id); the parent is the innermost open span on the
same thread, so a span's self time is its duration minus its direct
children's.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

SELF_ONLY = ("cli.main", "harness.mse_study", "harness.phi_study", "harness.emit_csv")
COUNTED = (
    "geometry.lattice_sites",
    "geometry.enumerate_ol",
    "geometry.enumerate_nol",
    "estimators.build_plan",
    "estimators.estimate_from_plan",
    "estimators.estimate",
    "fieldsim.build_generator",
    "fieldsim.sample_field",
    "covariance.exact_tau_n_sq_window",
    "scaling.npi_scaling",
    "scaling.hj_scaling",
    "constants.k0_numeric",
    "constants.b0",
    "constants.v_weight_numeric",
)
TRACED = SELF_ONLY + COUNTED

# Work done once per replicate inside a study; their spans measure how busy
# the replicate threads are.
REPLICATE_WORK = frozenset(
    {
        "fieldsim.sample_field",
        "estimators.estimate_from_plan",
        "scaling.npi_scaling",
        "scaling.hj_scaling",
    }
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _design_key(args, kwargs, result):
    return (_arg(args, kwargs, 1, "region"), _arg(args, kwargs, 2, "spec"))


def _bytes_gathered(args, kwargs, result):
    plan = _arg(args, kwargs, 0, "plan")
    p = _arg(args, kwargs, 1, "sample").values.shape[1]
    if plan.row_matrix is not None:
        return plan.row_matrix.size * p * 8
    return sum(len(rows) for rows in plan.row_lists) * p * 8


def _is_cholesky(args, kwargs, result):
    return result.method == "cholesky"


def _selector_outcome(args, kwargs, result):
    clamped = result.lambda_opt_int != math.floor(result.lambda_opt_real + 0.5)
    diag = result.diagnostics
    usable = len(diag.get("candidates", ()))
    return clamped, usable, usable + len(diag.get("dropped", ()))


# Facts read from a call's arguments or result.  They rely on the argument
# and attribute names of the code they observe; when those change, the hook
# records None and the metric built on it reads 0 instead of failing the run.
HOOKS = {
    "estimators.build_plan": _design_key,
    "estimators.estimate_from_plan": _bytes_gathered,
    "fieldsim.build_generator": _is_cholesky,
    "scaling.npi_scaling": _selector_outcome,
    "scaling.hj_scaling": _selector_outcome,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.facts = {name: [] for name in HOOKS}
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        facts = self.facts.get(name)
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
            if hook is not None:
                try:
                    facts.append(hook(args, kwargs, result))
                except (AttributeError, KeyError, IndexError, TypeError):
                    facts.append(None)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Trace the functions in ``TRACED`` wherever latblock refers to them."""
    wrappers = {}
    for name in TRACED:
        modname, attr = name.split(".")
        fn = getattr(importlib.import_module(f"latblock.{modname}"), attr, None)
        if fn is not None:  # a later refactor may remove one; its metrics then read 0
            wrappers[fn] = tracer.wrap(name, fn)
    for modname, mod in list(sys.modules.items()):
        if modname == "latblock" or modname.startswith("latblock."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PERCENTILES = (
    ("estimators.estimate_from_plan", (("p50_us", 0.5), ("p90_us", 0.9)), 1e6, "us"),
    ("fieldsim.sample_field", (("p50_us", 0.5),), 1e6, "us"),
    ("scaling.npi_scaling", (("p50_ms", 0.5), ("p90_ms", 0.9)), 1e3, "ms"),
    ("scaling.hj_scaling", (("p50_ms", 0.5), ("p90_ms", 0.9)), 1e3, "ms"),
)
RATIOS = (
    ("estimators.build_plan.distinct_ratio", "ratio"),
    ("estimators.estimate_from_plan.bytes_gathered", "B-computed"),
    ("fieldsim.build_generator.cholesky_calls", "count"),
    ("scaling.hj_scaling.usable_ratio", "ratio"),
    ("scaling.clamped_frac", "ratio"),
    ("harness.replicate_parallelism", "ratio"),
)
OVERHEAD = (
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, points, _, unit in PERCENTILES:
        for label, _ in points:
            units[f"{name}.{label}"] = unit
    units.update(RATIOS)
    units.update(OVERHEAD)
    return units


def _percentile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _union_length(intervals) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def replicate_parallelism(spans) -> float:
    """Busy time of replicate work summed over threads, over the time any thread was busy."""
    per_thread = defaultdict(list)
    for _, name, start, end, _, tid in spans:
        if name in REPLICATE_WORK:
            per_thread[tid].append((start, end))
    window = _union_length([iv for ivs in per_thread.values() for iv in ivs])
    if window == 0.0:
        return 0.0
    return sum(_union_length(ivs) for ivs in per_thread.values()) / window


def _owners(metric: str) -> tuple:
    """The traced functions whose calls make a per-layer metric meaningful."""
    if metric == "scaling.clamped_frac":
        return ("scaling.npi_scaling", "scaling.hj_scaling")
    if metric == "harness.replicate_parallelism":
        return tuple(REPLICATE_WORK)
    return (metric.rsplit(".", 1)[0],)


def layer_metrics(spans, facts) -> tuple:
    """Per-layer values of one traced call, and the metrics that do not apply.

    A metric does not apply when the functions it describes were never
    called; it is then reported as 0.
    """
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    for sid, name, start, end, _, _ in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
        durations[name].append(end - start)

    out = {}
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s[name]
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name, points, scale, _ in PERCENTILES:
        for label, q in points:
            out[f"{name}.{label}"] = _percentile(durations[name], q) * scale if durations[name] else 0.0

    def known(name):
        return [f for f in facts.get(name, ()) if f is not None]

    designs = known("estimators.build_plan")
    out["estimators.build_plan.distinct_ratio"] = len(set(designs)) / len(designs) if designs else 0.0
    out["estimators.estimate_from_plan.bytes_gathered"] = sum(known("estimators.estimate_from_plan"))
    out["fieldsim.build_generator.cholesky_calls"] = sum(known("fieldsim.build_generator"))
    hj = known("scaling.hj_scaling")
    tried = sum(t for _, _, t in hj)
    out["scaling.hj_scaling.usable_ratio"] = sum(u for _, u, _ in hj) / tried if tried else 0.0
    selectors = known("scaling.npi_scaling") + hj
    out["scaling.clamped_frac"] = (
        sum(1 for c, _, _ in selectors if c) / len(selectors) if selectors else 0.0
    )
    out["harness.replicate_parallelism"] = replicate_parallelism(spans)
    absent = sorted(m for m in out if not any(calls[f] for f in _owners(m)))
    return out, absent
