"""The package API that the benchmark under bench/ binds still fits it.

For each workload: build the seed-1 group, make one call with the per-layer
tracer installed, check the output against bench/reference.json, and let the
tracer bind the smoothers' arguments by name while summarizing.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer_mod = _load("tracer")

# the smoother each workload must reach through the traced layers
_SMOOTHER = {"campaign": "smoothing.nw_surface_many",
             "tilde": "smoothing.nw_surface_many",
             "analysis": "smoothing.nw_curve_many",
             "analysis-gaussian": "smoothing.nw_curve_many"}


@pytest.fixture(scope="module")
def reference():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_call_matches_reference(name, reference, tmp_path):
    cls = workloads.WORKLOADS[name]
    group, order = workloads.plan(cls, 1)
    wl = cls(group, tmp_path)
    key = order[0]
    ref = reference[name]["groups"][group][key]

    tracer = tracer_mod.Tracer()
    tracer.call_id = 0
    tracer.install()
    try:
        with workloads.quiet():
            out = wl.call(key)
    finally:
        tracer.uninstall()

    assert wl.check(key, out, ref) == []
    if ref.get("surface_clamped") is not None:
        assert tracer.clamped_by_call().get(0, 0) == ref["surface_clamped"]
    metrics = tracer.summarize(1)
    for metric, _unit in tracer_mod.METRICS:
        if metric != "trace.overhead_share":
            assert math.isfinite(metrics[metric]), metric
    assert metrics[f"{_SMOOTHER[name]}.calls"] > 0
