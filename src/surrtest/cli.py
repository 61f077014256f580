"""Command-line front end.

Five leaf subcommands: ``test`` (estimate and test on a prior/current CSV
pair), ``simulate`` (replication campaigns over the built-in settings),
``oracle discrete`` and ``oracle lognormal`` (closed-form benchmark values,
the second with Monte-Carlo adjudication), and ``bandwidths`` (the resolved
bandwidths and the statistics feeding them).  Each prints a table on stdout
and writes ``report.json`` plus ``summary.csv`` into ``--out``; each takes
only options that act, and its ``--help`` lists them.

Reports echo the kernel, alpha, seed and oob options a command takes, the
bandwidths and the input-file hashes, so a result can be traced back to its
exact inputs.  They contain no timestamps: identical invocations produce
byte-identical files (timing is printed to stdout only).

``--config FILE`` reads ``key = value`` lines.  Each key must be a long
option of the leaf subcommand (dashes or underscores); its value gets the
same type, arity and choices check as the flag, and explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__
from .data import load_study_csv, validate_paired
from .errors import ConfigError, SurrtestError, ZeroDenominator
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
    bandwidth_spread,
    default_bandwidths,
    sample_spread,
)

# the options that set a result, with argparse settings and SmoothingConfig's or
# SimConfig's defaults; each subcommand takes those it reads, and its report echoes them
_PROVENANCE = {
    "kernel": dict(choices=[k.value for k in KernelKind], default=SmoothingConfig.kernel.value),
    "alpha": dict(type=float, default=SimConfig.alpha),
    "seed": dict(type=int, default=SimConfig.master_seed),
    "oob": dict(choices=[p.value for p in OobPolicy], default=SmoothingConfig.oob_policy.value,
                help="out-of-support policy (default: %(default)s, with counts reported)"),
}

_METHOD_LABEL = {
    Method.GOLD: "outcome contrast (gold standard)",
    Method.P: "transported, covariate-ignoring",
    Method.H_POOLED: "transported, covariate-aware (pooled)",
    Method.H_SIMPLE: "transported, covariate-aware (simple)",
    Method.H_TWOSTAGE: "transported, covariate-aware (twostage)",
    Method.H_AUG: "transported, covariate-aware (augmented)",
}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _fmt(x, nd=4) -> str:
    return "" if x is None else f"{x:.{nd}f}"


def _write_outputs(args, command: str, entries: dict, rows: list) -> None:
    """Write report.json (tool, version, `command` and the _PROVENANCE options
    `args` takes, then `entries`) and summary.csv (`rows`)."""
    # no argv and no thread count in here: reports must be byte-identical
    # for a given seed and config however the work was scheduled
    report = {"tool": "surrtest", "version": __version__, "command": command,
              **{k: v for k, v in vars(args).items() if k in _PROVENANCE}, **entries}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        # csv writes None as an empty cell and a float by its shortest repr
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out / 'report.json'} and {out / 'summary.csv'}")


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
    bw = default_bandwidths(paired) if args.bandwidths is None else Bandwidths(*args.bandwidths)

    t0 = time.perf_counter()
    suite = estimate_suite(paired, bw, scfg)
    elapsed = time.perf_counter() - t0

    wanted = [Method.H_POOLED, Method.P] + ([Method.H_AUG] if args.aug else [])
    if Method.GOLD in suite:
        wanted.append(Method.GOLD)
    outcomes = {m: (suite[m], wald_test(suite[m], alpha=args.alpha)) for m in wanted}

    print(f"prior:   {args.prior_csv} (n1={prior.treated.n}, n0={prior.control.n})")
    print(f"current: {args.current_csv} (n1={current.treated.n}, n0={current.control.n})")
    print(f"kernel={args.kernel}  alpha={args.alpha}  oob={args.oob}  "
          f"support_overlap={paired.support_overlap:.4f}")
    for msg in paired.warnings:
        print(f"warning: {msg}")
    header = f"{'method':<42} {'estimate':>10} {'se':>8} {'z':>8} {'p':>10} {'95% CI':>23} reject"
    print(header)
    rows = []
    for method in Method:
        if method not in outcomes:
            continue
        est, t = outcomes[method]
        ci = f"[{t.ci_lower:.4f}, {t.ci_upper:.4f}]"
        print(f"{_METHOD_LABEL[method]:<42} {t.estimate:>10.4f} {t.se:>8.4f} "
              f"{t.z:>8.3f} {t.p_value:>10.3e} {ci:>23} {t.reject}")
        rows.append({**vars(t), "n1": est.n1, "n0": est.n0, "n_clamped": est.n_clamped})

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

    _write_outputs(args, "test", {
        "inputs": inputs,
        "bandwidths": vars(bw),
        "diagnostics": {
            "support_overlap": paired.support_overlap,
            "warnings": list(paired.warnings),
            "clamped_evaluations": {m.value: suite[m].n_clamped for m in wanted},
        },
        "results": rows,
        "pte_ratio": ratio,
        "gold_available": Method.GOLD in suite,
    }, rows)
    return 0


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
          f"tilde_delta_h={_fmt(summary.truth_tilde_delta_h)}")
    print(f"{'method':<42} {'estimate':>9} {'bias':>7} {'bias~':>7} "
          f"{'ESE':>7} {'ASE':>7} {'cov':>6} {'cov~':>6} {'effect':>8} {'power':>6}")
    for method in Method:
        m = summary.methods[method.value]
        print(f"{_METHOD_LABEL[method]:<42} {m.mean_estimate:>9.3f} "
              f"{_fmt(m.bias, 3):>7} {_fmt(m.bias_tilde, 3):>7} "
              f"{m.ese:>7.3f} {m.ase:>7.3f} {_fmt(m.coverage, 3):>6} "
              f"{_fmt(m.coverage_tilde, 3):>6} {m.effect_size:>8.3f} {m.power:>6.3f}")
    print(f"empirical SE ratio pooled/simple: {summary.se_ratio_pooled_simple:.4f}")
    print(f"clamped evaluations: {summary.clamped_evals}")
    print(f"elapsed: {elapsed:.1f}s")

    campaign = {key: getattr(summary, key) for key in (
        "truth_delta", "truth_delta_h", "truth_tilde_delta_h", "se_ratio_pooled_simple", "reps")}
    rows = [{"setting": summary.setting, **vars(summary.methods[m.value]), **campaign}
            for m in Method]
    _write_outputs(args, "simulate", {
        # kernel, alpha, seed and oob are echoed at the top; threads never enters a report
        "config": {f.name: getattr(cfg, f.name) for f in fields(SimConfig) if f.name not in
                   ("kernel", "alpha", "master_seed", "oob_policy", "threads")},
        "truth": {
            "delta": summary.truth_delta,
            "delta_h": summary.truth_delta_h,
            "tilde_delta_h": summary.truth_tilde_delta_h,
        },
        "bandwidths": {k: getattr(summary, k) for k in ("mean_h0", "mean_h1", "h2", "h3", "h4")},
        "methods": {m.value: vars(summary.methods[m.value]) for m in Method},
        "se_ratio_pooled_simple": summary.se_ratio_pooled_simple,
        "clamped_evaluations": summary.clamped_evals,
    }, rows)
    return 0


def cmd_oracle_discrete(args) -> int:
    triple = discrete_example(DiscreteMix(p_female=args.p_female))
    print(f"discrete benchmark at p_female={args.p_female}:")
    print(f"  delta   = {triple.delta:.6f}")
    print(f"  delta_p = {triple.delta_p:.6f}")
    print(f"  delta_h = {triple.delta_h:.6f}")
    print(f"note: {DISCRETE_DELTA_P_NOTE}")
    rows = [{"quantity": name, "value": val, "se": None, "source": "analytic"}
            for name, val in vars(triple).items()]
    _write_outputs(args, "oracle", {
        "which": "discrete", "p_female": args.p_female,
        "analytic": vars(triple), "note": DISCRETE_DELTA_P_NOTE,
    }, rows)
    return 0


def cmd_oracle_lognormal(args) -> int:
    triple = lognormal_counterexample_analytic(args.delta0)
    linearized = lognormal_delta_p_linearized(args.delta0)
    mc = lognormal_counterexample_mc(args.delta0, args.mc, master_seed=args.seed)
    checks = {  # each closed form against its Monte-Carlo estimate
        "delta": ("delta", triple.delta, mc.delta, mc.delta_se),
        "delta_h": ("delta_h", triple.delta_h, mc.delta_h, mc.delta_h_se),
        "delta_p_exponential":
            ("delta_p (exponential)", triple.delta_p, mc.delta_p, mc.delta_p_se),
        "delta_p_linearized": ("delta_p (linearized)", linearized, mc.delta_p, mc.delta_p_se),
    }
    agree = {key: abs(est - value) <= 3 * se for key, (_, value, est, se) in checks.items()}
    print(f"lognormal benchmark at delta0={args.delta0} (mc n={args.mc}):")
    print(f"  {'quantity':<22} {'analytic':>12} {'mc':>12} {'mc se':>10} agreement")
    for key, (label, value, est, se) in checks.items():
        print(f"  {label:<22} {value:>12.5f} {est:>12.5f} {se:>10.5f} {agree[key]}")
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
    _write_outputs(args, "oracle", {
        "which": "lognormal", "delta0": args.delta0, "mc_draws": args.mc,
        "analytic": vars(triple), "delta_p_linearized": linearized,
        "mc": vars(mc), "agreement": agree, "verdict": verdict,
    }, rows)
    return 0


def cmd_bandwidths(args) -> int:
    paired, inputs = _load_pair(args)

    rows = []
    print(f"{'name':<5} {'value':>10} {'variable':<18} {'sd':>9} {'IQR':>9} "
          f"{'spread':<8} {'n':>6} {'exponent':>9} {'multiplier':>10}")
    for rule in BANDWIDTH_RECIPE:
        arm = rule.arm_of(paired)
        h = rule.resolve(arm)  # first: it rejects a sample with no spread
        sd, iqr = sample_spread(getattr(arm, rule.variable))
        spread, _ = bandwidth_spread(sd, iqr)
        print(f"{rule.name:<5} {h:>10.5f} {rule.label:<18} {sd:>9.4f} {iqr:>9.4f} "
              f"{spread:<8} {arm.n:>6} {rule.exponent:>9} {rule.multiplier:>10}")
        rows.append({"name": rule.name, "value": h, "variable": rule.label,
                     "sd": sd, "iqr": iqr, "spread": spread, "n": arm.n,
                     "exponent": rule.exponent, "multiplier": rule.multiplier})

    _write_outputs(args, "bandwidths", {
        "inputs": inputs,
        "bandwidths": {r["name"]: r["value"] for r in rows},
        "statistics": rows,
        "support_overlap": paired.support_overlap,
    }, rows)
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
    p_test.add_argument("--bandwidths", type=float, nargs=len(fields(Bandwidths)),
                        metavar=tuple(f.name.upper() for f in fields(Bandwidths)),
                        help="override the data-driven bandwidths")
    _add_common(p_test, "kernel", "alpha", "oob")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", allow_abbrev=False,
                           help="run a replication campaign")
    p_sim.add_argument("--setting", type=int, default=None, choices=range(1, 9))
    p_sim.add_argument("--reps", type=int, default=SimConfig.reps)
    p_sim.add_argument("--n1p", type=int, default=SimConfig.n1p)
    p_sim.add_argument("--n0p", type=int, default=SimConfig.n0p)
    p_sim.add_argument("--n1", type=int, default=SimConfig.n1)
    p_sim.add_argument("--n0", type=int, default=SimConfig.n0)
    p_sim.add_argument("--fix-prior", action="store_true", default=SimConfig.fix_prior)
    p_sim.add_argument("--no-fix-prior", dest="fix_prior", action="store_false",
                       help="redraw the prior study every replication")
    p_sim.add_argument("--truth-draws", type=int, default=SimConfig.truth_mc_draws,
                       help="Monte-Carlo draws for the fixed-surface target "
                            "(acts only with --fix-prior)")
    p_sim.add_argument("--threads", type=int, default=SimConfig.threads,
                       help="worker threads for the replications")
    _add_common(p_sim, "kernel", "alpha", "seed", "oob")
    p_sim.set_defaults(func=cmd_simulate)

    p_or = sub.add_parser("oracle", allow_abbrev=False,
                          help="closed-form benchmark values")
    which = p_or.add_subparsers(dest="which", required=True)
    p_disc = which.add_parser("discrete", allow_abbrev=False, help="discrete sex mix")
    p_disc.add_argument("--p-female", type=float, default=0.5,
                        help="share of the current study in the female stratum")
    _add_common(p_disc)
    p_disc.set_defaults(func=cmd_oracle_discrete)
    p_logn = which.add_parser("lognormal", allow_abbrev=False, help="lognormal counterexample")
    p_logn.add_argument("--delta0", type=float, default=0.5,
                        help="effect parameter for the lognormal benchmark")
    p_logn.add_argument("--mc", type=int, default=10**6,
                        help="Monte-Carlo draws for adjudication")
    _add_common(p_logn, "seed")
    p_logn.set_defaults(func=cmd_oracle_lognormal)

    p_bw = sub.add_parser("bandwidths", allow_abbrev=False,
                          help="show resolved bandwidths")
    p_bw.add_argument("prior_csv")
    p_bw.add_argument("current_csv")
    _add_common(p_bw)
    p_bw.set_defaults(func=cmd_bandwidths)

    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse `argv`, reading a --config file as the leaf subcommand's own tokens.

    The config tokens go right after the leaf's name, in front of the typed
    ones, so an explicit flag wins by argparse's last-one-wins.  Errors in the
    config file raise ConfigError; errors in typed flags exit 2 as argparse does.
    """
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    sub, at = parser, 0
    while sub._subparsers is not None:
        (action,) = (a for a in sub._actions if isinstance(a, argparse._SubParsersAction))
        name = getattr(args, action.dest)
        sub, at = action.choices[name], argv.index(name, at) + 1
    tokens = _config_tokens(sub, args.config)

    def config_error(message):  # the typed tokens parsed alone, so it is the file's
        raise ConfigError(f"{args.config}: {message}")

    sub.error = config_error
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
