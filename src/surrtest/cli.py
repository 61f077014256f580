"""Command-line front end.

Four subcommands: ``test`` (estimate and test on a prior/current CSV pair),
``simulate`` (replication campaigns over the built-in settings), ``oracle``
(closed-form benchmark values with Monte-Carlo adjudication), and
``bandwidths`` (show the resolved smoothing bandwidths and the statistics
feeding them).  Every command prints a human-readable table on stdout and
writes ``report.json`` plus ``summary.csv`` into the output directory.

Besides ``--out`` and ``--config``, ``test`` takes ``--kernel``, ``--alpha``
and ``--oob``; ``simulate`` takes those and ``--seed``; ``oracle`` takes
``--seed`` (for the lognormal Monte Carlo); ``bandwidths`` takes none, as its
recipe is the same for both kernels.  Reports echo these options, the
bandwidths and the input-file hashes, so a result can always be traced back
to its exact inputs.  Report files contain no timestamps: identical
invocations produce byte-identical files (timing is printed to stdout only).

``--config FILE`` reads ``key = value`` lines.  Each key must be a long
option of the chosen subcommand (dashes or underscores); its value gets the
same type, arity and choices check as the flag, and explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import load_study_csv, validate_paired
from .errors import ConfigError, DegenerateSpread, SurrtestError, ZeroDenominator
from .estimators import Method, estimate_suite, pte_ratio
from .inference import check_alpha, wald_test
from .oracles import (
    DISCRETE_DELTA_P_NOTE,
    DiscreteMix,
    discrete_example,
    lognormal_counterexample_analytic,
    lognormal_counterexample_mc,
    lognormal_delta_p_linearized,
)
from .simulate import SimConfig, run_simulation
from .smoothing import (
    BANDWIDTH_RECIPE,
    Bandwidths,
    KernelKind,
    OobPolicy,
    SmoothingConfig,
    default_bandwidths,
)

# the options that set a result, with their argparse settings; each
# subcommand takes those it reads, and its report echoes the ones it takes
_PROVENANCE = {
    "kernel": dict(choices=["epanechnikov", "gaussian"], default="epanechnikov"),
    "alpha": dict(type=float, default=0.05),
    "seed": dict(type=int, default=1),
    # clamp by default: heavy-tailed markers routinely put a few treated
    # points past the prior control support, and an analysis command that
    # aborts on them is useless; the clamp count lands in the diagnostics
    "oob": dict(choices=["error", "clamp"], default="clamp",
                help="out-of-support policy (default: clamp, with counts reported)"),
}

_METHOD_ORDER = ("gold", "p", "h_pooled", "h_simple", "h_twostage", "h_aug")

_METHOD_LABEL = {
    "gold": "outcome contrast (gold standard)",
    "p": "transported, covariate-ignoring",
    "h_pooled": "transported, covariate-aware (pooled)",
    "h_simple": "transported, covariate-aware (simple)",
    "h_twostage": "transported, covariate-aware (twostage)",
    "h_aug": "transported, covariate-aware (augmented)",
}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _fmt(x, nd=4) -> str:
    return "" if x is None else f"{x:.{nd}f}"


def _write_outputs(out_dir, report: dict, rows: list) -> None:
    """Write report.json and summary.csv; the CSV columns are the first row's keys."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: "" if v is None else repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
    print(f"wrote {out / 'report.json'} and {out / 'summary.csv'}")


def _common_report(args, command: str) -> dict:
    # no argv and no thread count in here: reports must be byte-identical
    # for a given seed and config however the work was scheduled
    report = {"tool": "surrtest", "version": __version__, "command": command}
    report.update((k, v) for k, v in vars(args).items() if k in _PROVENANCE)
    return report


def _load_pair(args):
    """The validated prior/current pair of `args`, and the report's inputs
    entry with each file's path and SHA-256."""
    paired = validate_paired(load_study_csv(args.prior_csv),
                             load_study_csv(args.current_csv))
    inputs = {key: {"path": str(path), "sha256": _sha256(path)}
              for key, path in (("prior_csv", args.prior_csv),
                                ("current_csv", args.current_csv))}
    return paired, inputs


def cmd_test(args) -> int:
    check_alpha(args.alpha)
    scfg = SmoothingConfig(kernel=KernelKind(args.kernel), oob_policy=OobPolicy(args.oob))
    paired, inputs = _load_pair(args)
    prior, current = paired.prior, paired.current
    if args.bandwidths is not None:
        bw = Bandwidths(*args.bandwidths)
    else:
        bw = default_bandwidths(paired, scfg.kernel)

    t0 = time.perf_counter()
    suite = estimate_suite(paired, bw, scfg)
    elapsed = time.perf_counter() - t0

    wanted = ["h_pooled", "p"] + (["h_aug"] if args.aug else [])
    if Method.GOLD in suite:
        wanted.append("gold")
    outcomes = {}
    for name in wanted:
        est = suite[Method(name)]
        outcomes[name] = (est, wald_test(est, alpha=args.alpha))

    print(f"prior:   {args.prior_csv} (n1={prior.treated.n}, n0={prior.control.n})")
    print(f"current: {args.current_csv} (n1={current.treated.n}, n0={current.control.n})")
    print(f"kernel={args.kernel}  alpha={args.alpha}  oob={args.oob}  "
          f"support_overlap={paired.support_overlap:.4f}")
    for msg in paired.warnings:
        print(f"warning: {msg}")
    header = f"{'method':<42} {'estimate':>10} {'se':>8} {'z':>8} {'p':>10} {'95% CI':>23} reject"
    print(header)
    rows = []
    for name in _METHOD_ORDER:
        if name not in outcomes:
            continue
        est, t = outcomes[name]
        ci = f"[{t.ci_lower:.4f}, {t.ci_upper:.4f}]"
        print(f"{_METHOD_LABEL[name]:<42} {t.estimate:>10.4f} {t.se:>8.4f} "
              f"{t.z:>8.3f} {t.p_value:>10.3e} {ci:>23} {t.reject}")
        rows.append({"method": t.method, "estimate": t.estimate, "se": t.se,
                     "z": t.z, "p_value": t.p_value, "alpha": t.alpha,
                     "reject": t.reject, "ci_lower": t.ci_lower,
                     "ci_upper": t.ci_upper, "n1": est.n1, "n0": est.n0,
                     "n_clamped": est.n_clamped})

    ratio = None
    if Method.GOLD not in suite:
        print("outcome contrast (gold standard): unavailable, no outcome column "
              "in the current study")
    else:
        try:
            ratio = pte_ratio(suite[Method.H_POOLED], suite[Method.GOLD])
            print(f"transported/outcome effect ratio: {ratio:.4f}")
        except ZeroDenominator:
            print("transported/outcome effect ratio: undefined (zero outcome contrast)")
    print(f"elapsed: {elapsed:.3f}s")

    report = _common_report(args, "test")
    report.update({
        "inputs": inputs,
        "bandwidths": {k: getattr(bw, k) for k in ("h0", "h1", "h2", "h3", "h4")},
        "diagnostics": {
            "support_overlap": paired.support_overlap,
            "warnings": list(paired.warnings),
            "clamped_evaluations": {name: suite[Method(name)].n_clamped
                                    for name in wanted},
        },
        "results": rows,
        "pte_ratio": ratio,
        "gold_available": Method.GOLD in suite,
    })
    _write_outputs(args.out, report, rows)
    return 0


def simulation_rows(summary) -> list:
    rows = []
    for name in _METHOD_ORDER:
        m = summary.methods[name]
        rows.append({
            "setting": summary.setting, "method": name,
            "mean_estimate": m.mean_estimate, "bias": m.bias,
            "bias_tilde": m.bias_tilde, "ese": m.ese, "ase": m.ase,
            "coverage": m.coverage, "coverage_tilde": m.coverage_tilde,
            "effect_size": m.effect_size, "power": m.power,
            "truth_delta": summary.truth_delta,
            "truth_delta_h": summary.truth_delta_h,
            "truth_tilde_delta_h": summary.truth_tilde_delta_h,
            "se_ratio_pooled_simple": summary.se_ratio_pooled_simple,
            "reps": summary.reps, "n_failed": summary.n_failed,
        })
    return rows


def cmd_simulate(args) -> int:
    if args.setting is None:
        raise ConfigError("simulate needs --setting (flag or config file)")
    cfg = SimConfig(
        setting=args.setting, n1p=args.n1p, n0p=args.n0p, n1=args.n1, n0=args.n0,
        reps=args.reps, master_seed=args.seed, alpha=args.alpha,
        fix_prior=args.fix_prior, truth_mc_draws=args.truth_draws,
        kernel=KernelKind(args.kernel), oob_policy=OobPolicy(args.oob),
        threads=args.threads)

    t0 = time.perf_counter()
    summary = run_simulation(cfg)
    elapsed = time.perf_counter() - t0

    print(f"setting {summary.setting}: reps={summary.reps} "
          f"(n1p={cfg.n1p}, n0p={cfg.n0p}, n1={cfg.n1}, n0={cfg.n0}) "
          f"seed={cfg.master_seed} kernel={args.kernel} oob={args.oob}")
    print(f"truth: delta={summary.truth_delta:.4f} "
          f"delta_h={summary.truth_delta_h:.4f} "
          f"tilde_delta_h={summary.truth_tilde_delta_h:.4f}")
    header = (f"{'method':<42} {'estimate':>9} {'bias':>7} {'bias~':>7} "
              f"{'ESE':>7} {'ASE':>7} {'cov':>6} {'cov~':>6} {'effect':>8} {'power':>6}")
    print(header)
    for name in _METHOD_ORDER:
        m = summary.methods[name]
        print(f"{_METHOD_LABEL[name]:<42} {m.mean_estimate:>9.3f} "
              f"{_fmt(m.bias, 3):>7} {_fmt(m.bias_tilde, 3):>7} "
              f"{m.ese:>7.3f} {m.ase:>7.3f} {_fmt(m.coverage, 3):>6} "
              f"{_fmt(m.coverage_tilde, 3):>6} {m.effect_size:>8.3f} {m.power:>6.3f}")
    print(f"empirical SE ratio pooled/simple: {summary.se_ratio_pooled_simple:.4f}")
    print(f"failed replications: {summary.n_failed}; "
          f"clamped evaluations: {summary.clamped_evals}")
    print(f"elapsed: {elapsed:.1f}s")

    report = _common_report(args, "simulate")
    report.update({
        "config": {
            "setting": cfg.setting, "n1p": cfg.n1p, "n0p": cfg.n0p,
            "n1": cfg.n1, "n0": cfg.n0, "reps": cfg.reps,
            "master_seed": cfg.master_seed, "alpha": cfg.alpha,
            "fix_prior": cfg.fix_prior, "truth_mc_draws": cfg.truth_mc_draws,
        },
        "truth": {
            "delta": summary.truth_delta,
            "delta_h": summary.truth_delta_h,
            "tilde_delta_h": summary.truth_tilde_delta_h,
        },
        "bandwidths": {
            "mean_h0": summary.mean_h0, "mean_h1": summary.mean_h1,
            "h2": summary.h2, "h3": summary.h3, "h4": summary.h4,
        },
        "methods": {name: vars(summary.methods[name]) for name in _METHOD_ORDER},
        "se_ratio_pooled_simple": summary.se_ratio_pooled_simple,
        "n_failed": summary.n_failed,
        "clamped_evaluations": summary.clamped_evals,
    })
    _write_outputs(args.out, report, simulation_rows(summary))
    return 0


def cmd_oracle(args) -> int:
    report = _common_report(args, "oracle")
    rows = []
    if args.which == "discrete":
        mix = DiscreteMix(p_female=args.p_female)
        triple = discrete_example(mix)
        print(f"discrete benchmark at p_female={args.p_female}:")
        print(f"  delta   = {triple.delta:.6f}")
        print(f"  delta_p = {triple.delta_p:.6f}")
        print(f"  delta_h = {triple.delta_h:.6f}")
        print(f"note: {DISCRETE_DELTA_P_NOTE}")
        for name, val in (("delta", triple.delta), ("delta_p", triple.delta_p),
                          ("delta_h", triple.delta_h)):
            rows.append({"quantity": name, "value": val, "se": None,
                         "source": "analytic"})
        report.update({
            "which": "discrete", "p_female": args.p_female,
            "analytic": vars(triple), "note": DISCRETE_DELTA_P_NOTE,
        })
    else:
        triple = lognormal_counterexample_analytic(args.delta0)
        linearized = lognormal_delta_p_linearized(args.delta0)
        mc = lognormal_counterexample_mc(args.delta0, args.mc, master_seed=args.seed)
        agree = {
            "delta": abs(mc.delta - triple.delta) <= 3 * mc.delta_se,
            "delta_h": abs(mc.delta_h - triple.delta_h) <= 3 * mc.delta_h_se,
            "delta_p_exponential": abs(mc.delta_p - triple.delta_p) <= 3 * mc.delta_p_se,
            "delta_p_linearized": abs(mc.delta_p - linearized) <= 3 * mc.delta_p_se,
        }
        print(f"lognormal benchmark at delta0={args.delta0} (mc n={args.mc}):")
        print(f"  {'quantity':<22} {'analytic':>12} {'mc':>12} {'mc se':>10} agreement")
        print(f"  {'delta':<22} {triple.delta:>12.5f} {mc.delta:>12.5f} "
              f"{mc.delta_se:>10.5f} {agree['delta']}")
        print(f"  {'delta_h':<22} {triple.delta_h:>12.5f} {mc.delta_h:>12.5f} "
              f"{mc.delta_h_se:>10.5f} {agree['delta_h']}")
        print(f"  {'delta_p (exponential)':<22} {triple.delta_p:>12.5f} {mc.delta_p:>12.5f} "
              f"{mc.delta_p_se:>10.5f} {agree['delta_p_exponential']}")
        print(f"  {'delta_p (linearized)':<22} {linearized:>12.5f} {mc.delta_p:>12.5f} "
              f"{mc.delta_p_se:>10.5f} {agree['delta_p_linearized']}")
        verdict = ("exponential form confirmed"
                   if agree["delta_p_exponential"] and not agree["delta_p_linearized"]
                   else "adjudication inconclusive")
        print(f"verdict: {verdict}")
        rows = [
            {"quantity": "delta", "value": triple.delta, "se": None, "source": "analytic"},
            {"quantity": "delta_p", "value": triple.delta_p, "se": None, "source": "analytic"},
            {"quantity": "delta_p", "value": linearized, "se": None, "source": "linearized-variant"},
            {"quantity": "delta_h", "value": triple.delta_h, "se": None, "source": "analytic"},
            {"quantity": "delta", "value": mc.delta, "se": mc.delta_se, "source": "mc"},
            {"quantity": "delta_p", "value": mc.delta_p, "se": mc.delta_p_se, "source": "mc"},
            {"quantity": "delta_h", "value": mc.delta_h, "se": mc.delta_h_se, "source": "mc"},
        ]
        report.update({
            "which": "lognormal", "delta0": args.delta0, "mc_draws": args.mc,
            "analytic": vars(triple), "delta_p_linearized": linearized,
            "mc": vars(mc), "agreement": agree, "verdict": verdict,
        })
    _write_outputs(args.out, report, rows)
    return 0


def cmd_bandwidths(args) -> int:
    paired, inputs = _load_pair(args)

    rows = []
    print(f"{'name':<5} {'value':>10} {'variable':<18} {'sd':>9} {'IQR':>9} "
          f"{'n':>6} {'exponent':>9} {'multiplier':>10}")
    for rule in BANDWIDTH_RECIPE:
        arm = rule.arm_of(paired)
        values = getattr(arm, rule.variable)
        variable = f"{rule.study} {rule.arm} {rule.variable}"
        sd = float(np.std(values, ddof=1))
        q25, q75 = np.quantile(values, [0.25, 0.75])
        iqr = float(q75 - q25)
        try:
            h = rule.resolve(arm)
        except DegenerateSpread as exc:
            raise DegenerateSpread(f"{rule.name} ({variable}): {exc}") from None
        print(f"{rule.name:<5} {h:>10.5f} {variable:<18} {sd:>9.4f} {iqr:>9.4f} "
              f"{arm.n:>6} {rule.exponent:>9} {rule.multiplier:>10}")
        rows.append({"name": rule.name, "value": h, "variable": variable,
                     "sd": sd, "iqr": iqr, "n": arm.n, "exponent": rule.exponent,
                     "multiplier": rule.multiplier})

    report = _common_report(args, "bandwidths")
    report.update({
        "inputs": inputs,
        "bandwidths": {r["name"]: r["value"] for r in rows},
        "statistics": rows,
        "support_overlap": paired.support_overlap,
    })
    _write_outputs(args.out, report, rows)
    return 0


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _config_tokens(sub: argparse.ArgumentParser, path) -> list:
    """The `key = value` lines (# comments allowed) of a config file as tokens
    of the subcommand parser `sub`.

    A key must name a long option of `sub` (dashes or underscores) and give
    it as many values as the option takes; the parser checks the values.  A
    switch takes true/yes/1, or false/no/0 for the opposite switch of its
    dest, if any.
    """
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path} line {line_no}"
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ConfigError(f"{where}: expected key = value, got {line!r}")
            action = sub._option_string_actions.get("--" + key.replace("_", "-"))
            if action is None or action.dest in ("help", "config"):
                raise ConfigError(f"{where}: {key!r} is not an option of {sub.prog}")
            if action.nargs == 0:
                on = _BOOL_WORDS.get(val.lower())
                if on is None:
                    raise ConfigError(f"{where}: {key} wants true/false, got {val!r}")
                tokens += [a.option_strings[0] for a in sub._actions
                           if a.dest == action.dest and a.nargs == 0 and (a is action) == on]
                continue
            vals = val.replace(",", " ").split() if action.nargs else [val]
            if action.nargs and len(vals) != action.nargs:
                raise ConfigError(f"{where}: {key} takes {action.nargs} values, "
                                  f"got {len(vals)}")
            opt = action.option_strings[0]  # --opt=value: "-x" stays a value
            tokens += [f"{opt}={val}"] if action.nargs is None else [opt, *vals]
    return tokens


def _add_common(parser: argparse.ArgumentParser, *provenance: str) -> None:
    """Add the `provenance` options named in _PROVENANCE, --out and --config."""
    for name in provenance:
        parser.add_argument(f"--{name}", **_PROVENANCE[name])
    parser.add_argument("--out", default="surrtest-out",
                        help="directory for report.json and summary.csv")
    parser.add_argument("--config", default=None,
                        help="key = value file mirroring the flags; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surrtest", allow_abbrev=False,
        description="Treatment-effect testing on transported surrogate markers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_test = sub.add_parser("test", allow_abbrev=False,
                            help="estimate and test on a prior/current CSV pair")
    p_test.add_argument("prior_csv")
    p_test.add_argument("current_csv")
    p_test.add_argument("--aug", action="store_true",
                        help="also report the augmented estimator")
    p_test.add_argument("--bandwidths", type=float, nargs=5,
                        metavar=("H0", "H1", "H2", "H3", "H4"),
                        help="override the data-driven bandwidths")
    _add_common(p_test, "kernel", "alpha", "oob")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", allow_abbrev=False,
                           help="run a replication campaign")
    p_sim.add_argument("--setting", type=int, default=None, choices=range(1, 9))
    p_sim.add_argument("--reps", type=int, default=500)
    p_sim.add_argument("--n1p", type=int, default=1000)
    p_sim.add_argument("--n0p", type=int, default=800)
    p_sim.add_argument("--n1", type=int, default=300)
    p_sim.add_argument("--n0", type=int, default=300)
    p_sim.add_argument("--fix-prior", dest="fix_prior", action="store_true", default=True)
    p_sim.add_argument("--no-fix-prior", dest="fix_prior", action="store_false",
                       help="redraw the prior study every replication")
    p_sim.add_argument("--truth-draws", type=int, default=10**6,
                       help="Monte-Carlo draws for the fixed-surface target")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="worker threads for the replications")
    _add_common(p_sim, "kernel", "alpha", "seed", "oob")
    p_sim.set_defaults(func=cmd_simulate)

    p_or = sub.add_parser("oracle", allow_abbrev=False,
                          help="closed-form benchmark values")
    p_or.add_argument("which", choices=["discrete", "lognormal"])
    p_or.add_argument("--p-female", type=float, default=0.5,
                      help="mix for the discrete benchmark")
    p_or.add_argument("--delta0", type=float, default=0.5,
                      help="effect parameter for the lognormal benchmark")
    p_or.add_argument("--mc", type=int, default=10**6,
                      help="Monte-Carlo draws for adjudication")
    _add_common(p_or, "seed")
    p_or.set_defaults(func=cmd_oracle)

    p_bw = sub.add_parser("bandwidths", allow_abbrev=False,
                          help="show resolved bandwidths")
    p_bw.add_argument("prior_csv")
    p_bw.add_argument("current_csv")
    _add_common(p_bw)
    p_bw.set_defaults(func=cmd_bandwidths)

    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse `argv`, reading a --config file as the subcommand's own tokens.

    The config tokens go in front of the typed ones, so an explicit flag
    wins by argparse's last-one-wins.  Errors in the config file raise
    ConfigError; errors in typed flags exit 2 as argparse does.
    """
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    (subparsers,) = (a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[args.subcommand]
    tokens = _config_tokens(sub, args.config)

    def config_error(message):  # the typed tokens parsed alone, so it is the file's
        raise ConfigError(f"{args.config}: {message}")

    sub.error = config_error
    at = argv.index(args.subcommand) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
        return args.func(args)
    except SurrtestError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
