"""One benchmark process: set up a workload, then make its measured calls.

Started by ``run.py`` in a fresh interpreter, so set-up time includes the
imports and the process's peak RSS belongs to the workload alone.  Modes:

* ``setup``: set up and report the set-up time only;
* ``e2e``: for ``--seconds``, alternate one single-client call with one
  two-thread step (throughput, latency, peak RSS, two-thread throughput);
* ``trace``: for ``--seconds``, alternate one untraced with one traced
  single-client call (per-layer metrics and the tracing overhead).

Alternating, rather than measuring one kind after the other, lets both
kinds see the same machine conditions; the host's speed drifts by more
than ten per cent within a minute.  Results go to the JSON file named by
``--result``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_STEPS = 3
MAX_PROBLEMS = 20
E2E_UNITS = {"setup_s": "s", "throughput_ops_per_s": "ops/s", "latency_p50_ms": "ms",
             "throughput_t2_ops_per_s": "ops/s", "peak_rss_mib": "MiB"}


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "e2e", "trace"], required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    return p.parse_args()


class Runner:
    """Makes checked, timed calls in the seed's key order and counts failures.

    The next call starts when the previous one has returned (closed loop).
    Each output is checked after its call returns, outside the timing.
    """

    def __init__(self, wl, order, ref):
        self.wl, self.order, self.ref = wl, order, ref
        self._next = 0
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def next_key(self):
        with self._lock:
            key = self.order[self._next % len(self.order)]
            self._next += 1
            return key

    def call(self, key, client=0, threads=1, tracer=None):
        """One call; returns its wall time in seconds."""
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            try:
                out = self.wl.call(key, client, threads)
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            problems = self.wl.check(key, out, self.ref[key])
        except Exception:  # a failed call is counted, and the loop goes on
            problems = [traceback.format_exc()]
        self.record(problems)
        return dt

    def record(self, problems):
        with self._lock:
            self.attempted += 1
            self.failed += bool(problems)
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def two_thread_step(self):
        """Wall time of one call with the package's threads=2 setting or, for a
        workload without one, of two concurrent calls from two client threads."""
        if self.wl.t2_clients == 1:
            return self.call(self.next_key(), threads=2)
        keys = [self.next_key() for _ in range(self.wl.t2_clients)]
        threads = [threading.Thread(target=self.call, args=(k, c))
                   for c, k in enumerate(keys)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0


def _e2e(runner, wl, seconds, setup_s):
    start = time.perf_counter()
    single = [runner.call(runner.next_key())]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pairs = []
    while True:
        pairs.append(runner.two_thread_step())
        if time.perf_counter() - start >= seconds and len(single) >= MIN_STEPS:
            break
        single.append(runner.call(runner.next_key()))
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_per_s": wl.ops_per_call * len(single) / sum(single),
        "latency_p50_ms": statistics.median(single) * 1e3,
        # a median, because the second CPU is at times taken by other load
        # for a few calls in a row
        "throughput_t2_ops_per_s": (wl.t2_clients * wl.ops_per_call
                                    / statistics.median(pairs)),
        "peak_rss_mib": rss_mib,
    }
    info = {"latency_samples": len(single), "t2_samples": len(pairs)}
    if len(single) >= 100:  # at least ten samples beyond the p90
        info["latency_p90_ms"] = statistics.quantiles(single, n=10)[-1] * 1e3
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in E2E_UNITS.items()}, info


def _trace(runner, seconds, spans_path):
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    start = time.perf_counter()
    plain, traced, traced_ok = [], [], {}
    while True:
        plain.append(runner.call(runner.next_key()))
        key = runner.next_key()
        tracer.call_id = len(traced)
        failed_before = runner.failed
        traced.append(runner.call(key, tracer=tracer))
        traced_ok[tracer.call_id] = (key, runner.failed == failed_before)
        if time.perf_counter() - start >= seconds and len(traced) >= MIN_STEPS:
            break
    _check_surface_clamps(runner, tracer, traced_ok)
    metrics = tracer.summarize(len(traced))
    base = statistics.median(plain)
    metrics["trace.overhead_share"] = (statistics.median(traced) - base) / base
    if spans_path:
        tracer.dump(spans_path)
    metrics = {name: {"value": metrics[name], "unit": unit}
               for name, unit in tracer_mod.METRICS}
    return metrics, {"traced_calls": len(traced),
                     "traced_call_median_ms": statistics.median(traced) * 1e3}


def _check_surface_clamps(runner, tracer, traced_ok):
    """Where a reference records surface clamps, each traced call must match it."""
    for call_id, clamped in tracer.clamped_by_call().items():
        key, ok = traced_ok[call_id]
        want = runner.ref[key].get("surface_clamped")
        if ok and want is not None and clamped != want:
            runner.failed += 1
            runner.problems.append(f"key {key}: surface clamps {clamped} != {want}")


def _env():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main():
    args = _args()
    sys.path.insert(0, str(ROOT / "src"))
    import surrtest
    import workloads

    if Path(surrtest.__file__).resolve().parent != (ROOT / "src" / "surrtest").resolve():
        sys.exit(f"surrtest imported from {surrtest.__file__}, not from this checkout")
    cls = workloads.WORKLOADS[args.workload]
    group, order = workloads.plan(cls, args.seed)
    wl = cls(group, Path(args.workdir))
    setup_s = time.perf_counter() - T_START

    result = {"setup_s": setup_s, "group": group}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result))
        return

    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)[args.workload]["groups"][group]
    runner = Runner(wl, order, ref)
    with workloads.quiet():
        if args.mode == "e2e":
            metrics, info = _e2e(runner, wl, args.seconds, setup_s)
        else:
            metrics, info = _trace(runner, args.seconds, args.spans)
    result.update(info, metrics=metrics, env=_env(), attempted=runner.attempted,
                  failed=runner.failed, problems=runner.problems)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
