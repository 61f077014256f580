"""Spans around the calls into each surrtest layer, recorded from the benchmark only.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
wrapper, in every loaded surrtest module that binds it: the defining module
and each caller that imported it (for example ``surrtest.estimators`` binds
``nw_surface_many``).  ``uninstall`` puts the originals back, so traced and
untraced calls can alternate.  Nothing under ``src/`` is edited.

A span records its name, start, end, parent span and the benchmark call it
belongs to; spans stay in memory until ``dump``.  Tracing assumes one
thread: the parent of a span is the innermost span still open.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import tracemalloc

import numpy as np

# (module, function): the layer boundaries the traced run records.
LAYERS = [
    ("data", "load_study_csv"),
    ("data", "validate_paired"),
    ("smoothing", "nw_surface_many"),
    ("smoothing", "nw_curve_many"),
    ("smoothing", "default_bandwidths"),
    ("estimators", "estimate_suite"),
    ("inference", "wald_test"),
    ("simulate", "generate_setting"),
    ("simulate", "tilde_delta_h"),
    ("simulate", "run_simulation"),
    ("cli", "main"),
]

SMOOTHERS = {"smoothing.nw_surface_many", "smoothing.nw_curve_many"}

# Per-layer metrics in report order: (name, unit).  Counts and times are
# summed over a layer's calls within one benchmark call, then averaged over
# the traced benchmark calls.
_SMOOTHER_FIELDS = [("calls", "count"), ("queries", "count"),
                    ("data_points", "count"), ("pairs", "count"),
                    ("support_share", "share"), ("self_ms", "ms"),
                    ("clamped", "count"), ("peak_alloc_mib", "MiB")]
METRICS = (
    [("data.load_study_csv.self_ms", "ms"), ("data.load_study_csv.rows", "count"),
     ("data.validate_paired.self_ms", "ms")]
    + [(f"{s}.{f}", u) for s in ("smoothing.nw_surface_many",
                                 "smoothing.nw_curve_many")
       for f, u in _SMOOTHER_FIELDS]
    + [("smoothing.default_bandwidths.self_ms", "ms"),
       ("estimators.estimate_suite.calls", "count"),
       ("estimators.estimate_suite.self_ms", "ms"),
       ("inference.wald_test.calls", "count"),
       ("inference.wald_test.self_ms", "ms"),
       ("simulate.generate_setting.calls", "count"),
       ("simulate.generate_setting.self_ms", "ms"),
       ("simulate.tilde_delta_h.self_ms", "ms"),
       ("simulate.run_simulation.self_ms", "ms"),
       ("simulate.run_simulation.failed_reps", "count"),
       ("cli.main.self_ms", "ms"),
       ("trace.overhead_share", "share")]
)

# support_share is computed from the arguments of the first few traced
# calls only: it is a property of the inputs, and computing it costs about
# as much as the smoother call itself.
SUPPORT_CALLS = 3

_MIB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "args", "kwargs",
                 "result", "peak_alloc")

    def __init__(self, name, parent, call_id):
        self.name = name
        self.parent = parent
        self.call_id = call_id
        self.start = self.end = 0.0
        self.args = self.kwargs = self.result = None
        self.peak_alloc = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.call_id = -1
        self._stack = []
        self._originals = {}  # qualified name -> original function
        self._patches = []  # (module, attribute, original, wrapper)
        surr_modules = [m for n, m in list(sys.modules.items())
                        if m is not None and (n == "surrtest" or n.startswith("surrtest."))]
        for mod_name, fn_name in LAYERS:
            home = sys.modules.get(f"surrtest.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:  # a layer a later refactor removed
                continue
            qualified = f"{mod_name}.{fn_name}"
            self._originals[qualified] = original
            wrapper = self._wrap(qualified, original)
            for mod in surr_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for mod, attr, _original, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        smoother = name in SMOOTHERS

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.call_id)
            stack.append(len(spans))
            spans.append(span)
            if smoother:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if smoother:
                    span.peak_alloc = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if smoother:
                span.args, span.kwargs = args, kwargs
            if smoother or name in ("data.load_study_csv", "simulate.run_simulation"):
                span.result = result
            return result

        return traced

    def self_seconds(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def clamped_by_call(self, name="smoothing.nw_surface_many") -> dict:
        """call id -> clamped queries summed over that call's spans of `name`."""
        out = {}
        for s in self.spans:
            if s.name == name:
                out[s.call_id] = out.get(s.call_id, 0) + int(s.result[1])
        return out

    def summarize(self, n_calls: int) -> dict:
        """Per-layer metrics (name -> value) per traced benchmark call."""
        selfs = self.self_seconds()
        total = {}
        peak = {}
        support = {}  # smoother -> [nonzero pairs, pairs] over the sampled calls

        def add(key, value):
            total[key] = total.get(key, 0.0) + value

        for s, self_s in zip(self.spans, selfs):
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.self_ms", self_s * 1e3)
            if s.name == "data.load_study_csv":
                add(f"{s.name}.rows", s.result.n)
            elif s.name == "simulate.run_simulation":
                add(f"{s.name}.failed_reps", s.result.n_failed)
            elif s.name in SMOOTHERS:
                a = inspect.signature(self._originals[s.name]).bind(
                    *s.args, **s.kwargs).arguments
                dims = _dims(a)
                q, n = dims[0][1].size, dims[0][0].size
                add(f"{s.name}.queries", q)
                add(f"{s.name}.data_points", n)
                add(f"{s.name}.pairs", q * n)
                add(f"{s.name}.clamped", int(s.result[1]))
                peak[s.name] = max(peak.get(s.name, 0.0), s.peak_alloc / _MIB)
                if s.call_id < SUPPORT_CALLS:
                    hits_pairs = support.setdefault(s.name, [0, 0])
                    hits_pairs[0] += _nonzero_pairs(a["kernel"].value, dims)
                    hits_pairs[1] += q * n

        metrics = {}
        for name, _unit in METRICS:
            layer, _, field = name.rpartition(".")
            if field == "support_share":
                hits, pairs = support.get(layer, (0, 0))
                metrics[name] = hits / pairs if pairs else 0.0
            elif field == "peak_alloc_mib":
                metrics[name] = peak.get(layer, 0.0)
            elif name != "trace.overhead_share":
                metrics[name] = total.get(name, 0.0) / n_calls
        return metrics

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"id": i, "name": s.name, "start_s": s.start - t0, "end_s": s.end - t0,
                 "parent": s.parent, "call_id": s.call_id}
                for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _profile(kernel: str, u: np.ndarray) -> np.ndarray:
    """Kernel profile by the same formulas the package uses, for weight positivity."""
    if kernel == "epanechnikov":
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _dims(a):
    """[(data, queries, bandwidth)] per coordinate from a smoother's bound arguments."""
    if "x0s" in a:  # 1-D curve
        pairs = [("xs", "x0s", "h")]
    else:
        pairs = [("ss", "s0s", "h_s"), ("ws", "w0s", "h_w")]
    return [(np.asarray(a[x], float), np.atleast_1d(np.asarray(a[q], float)), a[h])
            for x, q, h in pairs]


def _nonzero_pairs(kernel, dims, chunk=1024):
    """Number of (query, data point) pairs with nonzero product-kernel weight."""
    hits = 0
    for lo in range(0, dims[0][1].size, chunk):
        wts = None
        for xs, qs, h in dims:
            k = _profile(kernel, (xs[None, :] - qs[lo:lo + chunk, None]) / h)
            wts = k if wts is None else wts * k
        hits += int(np.count_nonzero(wts))
    return hits
