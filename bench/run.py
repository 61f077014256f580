"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Workloads: campaign, tilde, analysis, analysis-gaussian (see bench/README.md).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separately traced run.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it, prefixed with ``#``, record the environment and the sample counts.

Each measurement runs in a fresh ``bench/worker.py`` process with
OPENBLAS_NUM_THREADS=1.  For ``setup_s`` it also starts four set-up-only
processes, one after another, and reports the median of the five set-up
times.  Scratch files live under ``.bench_work/`` and are removed at exit;
the full result and the trace spans are kept under ``.bench_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("campaign", "tilde", "analysis", "analysis-gaussian")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_THREADS = "1"


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


def _worker(args, mode, workdir, result, deadline, spans=None):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit("benchmark deadline passed before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        sys.exit(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.exit(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(Path(result).read_text())


def main():
    args = _args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "surrtest" / "__init__.py").is_file():
        sys.exit(f"no surrtest sources under {ROOT / 'src'}; run from a full checkout")
    if not (BENCH / "reference.json").is_file():
        sys.exit("bench/reference.json is missing; run bench/record_reference.py")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    try:
        workdir.mkdir(parents=True)
        setups = []
        if args.trace == 0:
            for i in range(SETUP_SAMPLES - 1):
                res = _worker(args, "setup", workdir / f"setup{i}",
                              workdir / f"setup{i}.json", deadline)
                setups.append(res["setup_s"])
        mode = "trace" if args.trace else "e2e"
        spans = outdir / f"spans-{tag}.json" if args.trace else None
        res = _worker(args, mode, workdir / "run", workdir / "run.json", deadline, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if args.trace == 0:
        setups.append(res["setup_s"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        res["setup_samples_s"] = setups
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    (outdir / f"result-{tag}.json").write_text(json.dumps(res, indent=1))

    attempted, failed = res["attempted"], res["failed"]
    print(f"# env {json.dumps(dict(res['env'], workload_seed=args.seed))}")
    print(f"# workload {args.workload}, input group {res['group']}")
    if args.trace == 0:
        print(f"# single-client calls {res['latency_samples']}, two-thread steps "
              f"{res['t2_samples']}, set-up samples {len(setups)}")
        if "latency_p90_ms" in res:
            print(f"# latency_p90_ms {res['latency_p90_ms']:.3f}")
        else:
            print("# latency_p90_ms omitted: fewer than ten samples beyond it")
    else:
        print(f"# traced calls {res['traced_calls']}, median "
              f"{res['traced_call_median_ms']:.3f} ms; pairs and support_share are "
              "computed from call arguments, not measured")
    print(f"# failed_share {failed}/{attempted} = {failed / attempted:.4f}")
    for problem in res["problems"]:
        print(f"# problem: {problem.strip()}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": res["metrics"],
    }))


if __name__ == "__main__":
    main()
