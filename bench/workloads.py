"""The four benchmark workloads, shared by the worker and the reference recorder.

Each workload owns a pool of inputs.  A *group* is what set-up builds once
(a fitted surface, a pair of CSV files); a *key* names one timed call inside
that group.  The workload seed picks a group and an order of keys, so the
same seed always gives the same inputs, and every input the benchmark can
run has reference values in ``reference.json``, recorded from the package
by ``record_reference.py``.

Every call goes through a public function looked up on its module at call
time (``simulate.run_simulation``, ``cli.main``, ...), so the traced run's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from pathlib import Path

from surrtest import cli, data, estimators, simulate, smoothing

# Relative tolerance on estimates, SEs and tilde values: a change that only
# reorders a kernel sum (a sparse or windowed smoother) stays inside it.
REL_TOL = 1e-9

SETTING = 1


def plan(workload_cls, seed: int):
    """(group, ordered call keys) for a workload seed; pure function of the seed."""
    rng = random.Random(f"{workload_cls.name}:{seed}")
    group = rng.choice(workload_cls.groups())
    keys = workload_cls.keys(group)
    return group, rng.sample(keys, len(keys))


def _close(got, want) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


class Campaign:
    """Repeated ``run_simulation`` calls, one per master seed in the pool.

    Setting 1, fixed prior, sizes 1000/800/300/300, Epanechnikov kernel,
    clamp policy.  ``truth_mc_draws`` is cut to 100 so the tilde Monte Carlo
    is a negligible share of each call.  One operation is one replication.
    """

    name = "campaign"
    REPS = 10
    TRUTH_DRAWS = 100
    ops_per_call = REPS
    t2_clients = 1  # its two-thread step is one call with SimConfig(threads=2)

    def __init__(self, group: str, workdir: Path):
        self.group = group
        self.first = {}  # key -> first output, to check repeats are identical

    @staticmethod
    def groups():
        return ["setting1"]

    @staticmethod
    def keys(group):
        return [str(k) for k in range(1, 49)]

    def call(self, key: str, client: int = 0, threads: int = 1):
        cfg = simulate.SimConfig(
            setting=SETTING, n1p=1000, n0p=800, n1=300, n0=300, reps=self.REPS,
            master_seed=int(key), truth_mc_draws=self.TRUTH_DRAWS,
            kernel=smoothing.KernelKind.EPANECHNIKOV,
            oob_policy=smoothing.OobPolicy.CLAMP_TO_NEAREST, threads=threads)
        return simulate.run_simulation(cfg)

    @staticmethod
    def record(out) -> dict:
        return {
            "mean_estimate": {m: s.mean_estimate for m, s in out.methods.items()},
            "ase": {m: s.ase for m, s in out.methods.items()},
            "truth_tilde_delta_h": out.truth_tilde_delta_h,
            "clamped_evals": out.clamped_evals,
            "n_failed": out.n_failed,
        }

    def check(self, key: str, out, ref: dict) -> list:
        problems = []
        if out.n_failed:
            problems.append(f"key {key}: {out.n_failed} failed replications")
        if out.clamped_evals != ref["clamped_evals"]:
            problems.append(f"key {key}: clamped_evals {out.clamped_evals} "
                            f"!= {ref['clamped_evals']}")
        if set(out.methods) != set(ref["mean_estimate"]):
            problems.append(f"key {key}: methods {sorted(out.methods)}")
            return problems
        for field in ("mean_estimate", "ase"):
            for m, want in ref[field].items():
                got = getattr(out.methods[m], field)
                if not _close(got, want):
                    problems.append(f"key {key}: {m}.{field} {got!r} != {want!r}")
        if not _close(out.truth_tilde_delta_h, ref["truth_tilde_delta_h"]):
            problems.append(f"key {key}: truth_tilde_delta_h "
                            f"{out.truth_tilde_delta_h!r}")
        # summaries must be identical at any thread count and on every repeat
        if self.first.setdefault(key, repr(out)) != repr(out):
            problems.append(f"key {key}: summary differs from this run's first one")
        return problems


class Tilde:
    """Repeated ``tilde_delta_h`` calls of 10^4 draws against one fixed surface.

    The surface is fit on a setting-1 prior (1000 treated, 800 control) with
    the package's default bandwidths.  It is the same for every seed: the
    clamp rate differs by a third between surfaces and would show up as
    run-to-run spread.  Each key is the draw seed of one call.  One
    operation is one Monte Carlo draw.
    """

    name = "tilde"
    DRAWS = 10_000
    ops_per_call = DRAWS
    t2_clients = 2

    def __init__(self, group: str, workdir: Path):
        self.group = group
        self.first = {}  # key -> first output, to check repeats are identical
        seed = int(group)
        prior = simulate.generate_setting(SETTING, "prior", 1000, 800, seed)
        current = simulate.generate_setting(SETTING, "current", 300, 300, seed)
        paired = data.validate_paired(prior, current)
        scfg = smoothing.SmoothingConfig(
            kernel=smoothing.KernelKind.EPANECHNIKOV,
            oob_policy=smoothing.OobPolicy.CLAMP_TO_NEAREST)
        bw = smoothing.default_bandwidths(paired, scfg.kernel)
        self.surface = estimators.fit_mu0_surface(paired, bw, scfg.kernel, scfg)

    @staticmethod
    def groups():
        return ["1"]

    @staticmethod
    def keys(group):
        return [str(k) for k in range(1, 49)]

    def call(self, key: str, client: int = 0, threads: int = 1):
        return simulate.tilde_delta_h(self.surface, SETTING, self.DRAWS, int(key))

    @staticmethod
    def record(out) -> dict:
        return {"value": out}

    def check(self, key: str, out, ref: dict) -> list:
        problems = []
        if not _close(out, ref["value"]):
            problems.append(f"key {key}: tilde {out!r} != {ref['value']!r}")
        if self.first.setdefault(key, repr(out)) != repr(out):
            problems.append(f"key {key}: tilde differs from this run's first value")
        return problems


class Analysis:
    """Repeated in-process ``surrtest test`` on one prior/current CSV pair.

    The prior is setting 1 with 10^4 rows per arm; the current study has 300
    rows per arm with outcomes, so the gold row exists.  One operation is one
    ``test`` command.
    """

    name = "analysis"
    KERNEL = "epanechnikov"
    ops_per_call = 1
    t2_clients = 2

    def __init__(self, group: str, workdir: Path):
        self.group = group
        self.workdir = Path(workdir)
        self.first = {}  # key -> first output, to check repeats are identical
        seed = int(group)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.prior_csv = self.workdir / "prior.csv"
        self.current_csv = self.workdir / "current.csv"
        data.write_study_csv(
            simulate.generate_setting(SETTING, "prior", 10_000, 10_000, seed),
            self.prior_csv)
        data.write_study_csv(
            simulate.generate_setting(SETTING, "current", 300, 300, seed),
            self.current_csv)

    @staticmethod
    def groups():
        return [str(k) for k in range(1, 25)]

    @staticmethod
    def keys(group):
        return ["test"]

    def out_dir(self, client: int) -> Path:
        return self.workdir / f"out{client}"

    def call(self, key: str, client: int = 0, threads: int = 1):
        argv = ["test", str(self.prior_csv), str(self.current_csv), "--aug",
                "--kernel", self.KERNEL, "--out", str(self.out_dir(client))]
        return client, cli.main(argv)

    def _report_bytes(self, client: int) -> bytes:
        return (self.out_dir(client) / "report.json").read_bytes()

    def record(self, out) -> dict:
        client, rc = out
        if rc != 0:
            raise RuntimeError(f"surrtest test exited {rc}")
        report = json.loads(self._report_bytes(client))
        return {"results": {r["method"]: {"estimate": r["estimate"], "se": r["se"],
                                          "n_clamped": r["n_clamped"]}
                            for r in report["results"]}}

    def check(self, key: str, out, ref: dict) -> list:
        client, rc = out
        if rc != 0:
            return [f"surrtest test exited {rc}"]
        raw = self._report_bytes(client)
        problems = []
        if self.first.setdefault(key, raw) != raw:
            problems.append("report.json differs from this run's first report")
        got = {r["method"]: r for r in json.loads(raw)["results"]}
        if set(got) != set(ref["results"]):
            return problems + [f"methods {sorted(got)} != {sorted(ref['results'])}"]
        for m, want in ref["results"].items():
            for field in ("estimate", "se"):
                if not _close(got[m][field], want[field]):
                    problems.append(f"{m}.{field} {got[m][field]!r} != {want[field]!r}")
            if got[m]["n_clamped"] != want["n_clamped"]:
                problems.append(f"{m}.n_clamped {got[m]['n_clamped']} "
                                f"!= {want['n_clamped']}")
        return problems


class AnalysisGaussian(Analysis):
    """The ``analysis`` inputs with ``--kernel gaussian``, whose support is unbounded."""

    name = "analysis-gaussian"
    KERNEL = "gaussian"


WORKLOADS = {cls.name: cls for cls in (Campaign, Tilde, Analysis, AnalysisGaussian)}


class Discard:
    """A text sink for the CLI's printing; shared safely by client threads."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def quiet():
    """Redirect stdout to a sink for the whole measured run (process-wide, for all threads)."""
    return contextlib.redirect_stdout(Discard())
