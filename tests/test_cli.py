import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from surrtest.cli import main, parse_args
from surrtest.data import StudyArm, TwoArmStudy, load_study_csv, validate_paired, write_study_csv
from surrtest.errors import ConfigError, OutOfSupport
from surrtest.estimators import Method, estimate_suite
from surrtest.inference import wald_test
from surrtest.simulate import SimConfig, generate_setting, run_simulation
from surrtest.smoothing import KernelKind, OobPolicy, SmoothingConfig, default_bandwidths

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


@pytest.fixture(scope="session")
def csv_pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("csv")
    prior = generate_setting(5, "prior", 200, 160, master_seed=7)
    current = generate_setting(5, "current", 80, 80, master_seed=7)
    write_study_csv(prior, d / "prior.csv")
    write_study_csv(current, d / "current.csv")

    def strip(arm):
        return StudyArm(s=arm.s, w=arm.w, y=None)

    blinded = TwoArmStudy(treated=strip(current.treated),
                          control=strip(current.control))
    write_study_csv(blinded, d / "current_blinded.csv")
    return d


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_report(out_dir):
    report = json.loads((Path(out_dir) / "report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    return report


def csv_rows(out_dir):
    lines = (Path(out_dir) / "summary.csv").read_text().strip().splitlines()
    return lines[0].split(","), lines[1:]


# ------------------------------------------------------------------- test

def test_test_command(csv_pair, tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["test", str(csv_pair / "prior.csv"),
                               str(csv_pair / "current.csv"),
                               "--out", str(out)], capsys)
    assert code == 0
    report = read_report(out)
    assert report["command"] == "test"
    assert report["gold_available"] is True
    assert report["pte_ratio"] is not None
    methods = [r["method"] for r in report["results"]]
    assert methods == ["gold", "p", "h_pooled"]
    assert all(report["bandwidths"][k] > 0 for k in ("h0", "h1", "h2", "h3", "h4"))
    assert len(report["inputs"]["prior_csv"]["sha256"]) == 64
    assert "transported, covariate-aware (pooled)" in stdout
    assert (report["kernel"], report["alpha"], report["oob"]) == \
        ("epanechnikov", 0.05, "clamp")
    assert "seed" not in report  # test draws nothing at random
    header, rows = csv_rows(out)
    assert "estimate" in header and len(rows) == 3


def test_cli_matches_library_exactly(csv_pair, tmp_path, capsys):
    out = tmp_path / "o"
    code, _, _ = run_cli(["test", str(csv_pair / "prior.csv"),
                          str(csv_pair / "current.csv"), "--aug",
                          "--out", str(out)], capsys)
    assert code == 0
    report = read_report(out)

    prior = load_study_csv(csv_pair / "prior.csv")
    current = load_study_csv(csv_pair / "current.csv")
    paired = validate_paired(prior, current)
    cfg = SmoothingConfig(kernel=KernelKind.EPANECHNIKOV,
                          oob_policy=OobPolicy.CLAMP_TO_NEAREST)
    bw = default_bandwidths(paired, cfg.kernel)
    suite = estimate_suite(paired, bw, cfg)

    by_method = {r["method"]: r for r in report["results"]}
    assert set(by_method) == {"gold", "p", "h_pooled", "h_aug"}
    for name, row in by_method.items():
        est = suite[Method(name)]
        t = wald_test(est, alpha=0.05)
        # json round-trip is exact for doubles, so these are equalities
        assert row["estimate"] == est.estimate
        assert row["se"] == est.se
        assert row["z"] == t.z
        assert row["p_value"] == t.p_value
        assert row["ci_lower"] == t.ci_lower and row["ci_upper"] == t.ci_upper
    for k in ("h0", "h1", "h2", "h3", "h4"):
        assert report["bandwidths"][k] == getattr(bw, k)


def test_blinded_current_drops_gold(csv_pair, tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["test", str(csv_pair / "prior.csv"),
                               str(csv_pair / "current_blinded.csv"),
                               "--out", str(out)], capsys)
    assert code == 0
    assert "unavailable" in stdout
    report = read_report(out)
    assert report["gold_available"] is False
    assert report["pte_ratio"] is None
    assert {r["method"] for r in report["results"]} == {"p", "h_pooled"}


def test_alpha_changes_ci_width_by_quantile_ratio(csv_pair, tmp_path, capsys):
    widths = {}
    for alpha in ("0.05", "0.01"):
        out = tmp_path / alpha
        code, _, _ = run_cli(["test", str(csv_pair / "prior.csv"),
                              str(csv_pair / "current.csv"),
                              "--alpha", alpha, "--out", str(out)], capsys)
        assert code == 0
        row = next(r for r in read_report(out)["results"]
                   if r["method"] == "h_pooled")
        widths[alpha] = row["ci_upper"] - row["ci_lower"]
    ratio = widths["0.01"] / widths["0.05"]
    assert ratio == pytest.approx(1.3142227734115084, rel=1e-12)


def test_missing_input_file_fails(tmp_path, capsys):
    inputs = [str(tmp_path / "nope.csv"), str(tmp_path / "nada.csv")]
    code, _, err = run_cli(["test", *inputs, "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "error" in err
    # a bad alpha is rejected before any input is read
    code, _, err = run_cli(["test", *inputs, "--alpha", "1.5",
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "ConfigError" in err and "alpha" in err


# --------------------------------------------------------------- simulate

SIM_ARGS = ["simulate", "--setting", "7", "--reps", "4", "--n1p", "120",
            "--n0p", "100", "--n1", "60", "--n0", "60",
            "--truth-draws", "20000", "--seed", "3"]


def test_simulate_small_campaign(tmp_path, capsys):
    out = tmp_path / "a"
    code, stdout, _ = run_cli(SIM_ARGS + ["--out", str(out)], capsys)
    assert code == 0
    assert "failed replications: 0" in stdout
    report = read_report(out)
    assert report["config"]["reps"] == 4
    assert set(report["methods"]) == {"gold", "p", "h_pooled", "h_simple",
                                      "h_twostage", "h_aug"}
    assert report["truth"]["delta"] == 0.0
    header, rows = csv_rows(out)
    assert len(rows) == 6


def test_simulate_byte_identical_across_runs_and_threads(tmp_path, capsys):
    outs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--threads", "3"])):
        out = tmp_path / name
        code, _, _ = run_cli(SIM_ARGS + extra + ["--out", str(out)], capsys)
        assert code == 0
        outs.append(out)
    ref_json = (outs[0] / "report.json").read_bytes()
    ref_csv = (outs[0] / "summary.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "report.json").read_bytes() == ref_json
        assert (out / "summary.csv").read_bytes() == ref_csv


def test_refreshed_prior_report_is_strict_json(tmp_path, capsys):
    # no fixed prior, no tilde target: null in JSON, an empty cell in CSV
    out = tmp_path / "o"
    code, stdout, _ = run_cli(SIM_ARGS + ["--no-fix-prior", "--out", str(out)], capsys)
    assert code == 0
    assert "tilde_delta_h=\n" in stdout

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    jsonschema.validate(report, SCHEMA)
    assert report["truth"]["tilde_delta_h"] is None
    header, rows = csv_rows(out)
    at = header.index("truth_tilde_delta_h")
    assert all(row.split(",")[at] == "" for row in rows)


def test_tilde_target_failure_names_its_stage(tmp_path, capsys):
    # setting 1's tilde draws leave the prior control support, so the fixed-
    # prior Monte Carlo fails under --oob error before any replication runs;
    # both arms' draws are checked, the control ones at indices 2000 and up
    code, _, err = run_cli(["simulate", "--setting", "1", "--reps", "30",
                            "--oob", "error", "--truth-draws", "2000",
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert err == ("error (OutOfSupport): tilde target (fixed-prior Monte Carlo): "
                   "378 query point(s) have kernel mass below 1e-10; nearest-point "
                   "clamping is disabled; --no-fix-prior skips it\n")
    with pytest.raises(OutOfSupport) as exc_info:
        run_simulation(SimConfig(setting=1, reps=30, truth_mc_draws=2000,
                                 oob_policy=OobPolicy.ERROR))
    indices = exc_info.value.indices
    assert (indices < 2000).sum() == 230 and (indices >= 2000).sum() == 148


def test_failed_replication_names_replication_and_stage(tmp_path, capsys):
    # with a fresh prior per replication, setting 1's first replication fails
    # already when the treated arm is carried through the surface
    code, _, err = run_cli(["simulate", "--setting", "1", "--reps", "40",
                            "--no-fix-prior", "--oob", "error",
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert err == ("error (OutOfSupport): 40 of 40 replications failed kernel-support "
                   "checks; first failure (replication 0): surface transport "
                   "(treated arm): 31 query point(s) have kernel mass below 1e-10; "
                   "nearest-point clamping is disabled\n")


def test_simulate_rejects_zero_reps(tmp_path, capsys):
    code, _, err = run_cli(["simulate", "--setting", "7", "--reps", "0",
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "ConfigError" in err and "reps" in err


def test_simulate_requires_setting(tmp_path, capsys):
    code, _, err = run_cli(["simulate", "--reps", "2",
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "ConfigError" in err and "setting" in err


# ----------------------------------------------------------------- oracle

def test_oracle_discrete(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["oracle", "discrete", "--p-female", "0.95",
                               "--out", str(out)], capsys)
    assert code == 0
    report = read_report(out)
    assert report["analytic"]["delta"] == pytest.approx(38.95, abs=1e-12)
    assert report["analytic"]["delta_p"] == pytest.approx(44.5, abs=1e-12)
    assert report["analytic"]["delta_h"] == pytest.approx(17.95, abs=1e-12)
    assert "44.05" in report["note"]
    # closed forms draw nothing, so no seed is taken or echoed
    assert not {"kernel", "alpha", "seed", "oob"} & set(report)
    header, rows = csv_rows(out)
    assert len(rows) == 3


def test_oracle_discrete_validates_mix(tmp_path, capsys):
    code, _, err = run_cli(["oracle", "discrete", "--p-female", "1.5",
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "p_female" in err


def test_oracle_lognormal_adjudicates(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["oracle", "lognormal", "--mc", "200000",
                               "--seed", "11", "--out", str(out)], capsys)
    assert code == 0
    assert "exponential form confirmed" in stdout
    report = read_report(out)
    assert report["verdict"] == "exponential form confirmed"
    assert report["agreement"]["delta_p_exponential"] is True
    assert report["agreement"]["delta_p_linearized"] is False
    header, rows = csv_rows(out)
    assert len(rows) == 7


# ------------------------------------------------------------- bandwidths

def test_bandwidths_command(csv_pair, tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["bandwidths", str(csv_pair / "prior.csv"),
                               str(csv_pair / "current.csv"),
                               "--out", str(out)], capsys)
    assert code == 0
    report = read_report(out)
    assert set(report["bandwidths"]) == {"h0", "h1", "h2", "h3", "h4"}
    assert all(v > 0 for v in report["bandwidths"].values())
    assert not {"kernel", "alpha", "seed", "oob"} & set(report)

    prior = load_study_csv(csv_pair / "prior.csv")
    current = load_study_csv(csv_pair / "current.csv")
    paired = validate_paired(prior, current)
    bw = default_bandwidths(paired, KernelKind.EPANECHNIKOV)
    for k in ("h0", "h1", "h2", "h3", "h4"):
        assert report["bandwidths"][k] == getattr(bw, k)

    # the recipe rows: (name, variable, n, exponent, multiplier); the fixture
    # has 160 prior control rows and 80 rows per current arm
    recipe = [("h0", "current control w", 80, -0.4, 1.0),
              ("h1", "current treated w", 80, -0.4, 1.0),
              ("h2", "prior control s", 160, -0.4, 2.0),
              ("h3", "prior control w", 160, -0.4, 2.0),
              ("h4", "prior control s", 160, -0.31, 1.0)]
    stats = report["statistics"]
    assert [(r["name"], r["variable"], r["n"], r["exponent"], r["multiplier"])
            for r in stats] == recipe
    assert all(isinstance(r["n"], int) and isinstance(r["exponent"], float)
               and isinstance(r["multiplier"], float) for r in stats)
    header, rows = csv_rows(out)
    assert header == ["name", "value", "variable", "sd", "iqr", "n",
                      "exponent", "multiplier"]
    assert [(c[0], c[2], c[5], c[6], c[7]) for c in (r.split(",") for r in rows)] == \
        [(name, var, str(n), repr(e), repr(m)) for name, var, n, e, m in recipe]


def test_bandwidths_constant_marker_names_column(csv_pair, tmp_path, capsys):
    n = 40
    arm = StudyArm(s=np.ones(n), w=np.linspace(0, 10, n), y=np.linspace(1, 5, n))
    degenerate = TwoArmStudy(
        treated=StudyArm(s=np.ones(n), w=np.linspace(0, 10, n),
                         y=np.linspace(2, 6, n)),
        control=arm)
    path = tmp_path / "degenerate.csv"
    write_study_csv(degenerate, path)
    for command in ("bandwidths", "test"):
        code, _, err = run_cli([command, str(path), str(csv_pair / "current.csv"),
                                "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "DegenerateSpread" in err and "h2 (prior control s)" in err


def test_bandwidths_one_row_arm_prints_only_the_error(csv_pair, tmp_path):
    # a one-row arm has no sample spread: the bandwidth check must reject it
    # before any statistic is computed, so no numpy warning reaches stderr
    current = load_study_csv(csv_pair / "current.csv")
    one_row = TwoArmStudy(treated=current.treated,
                          control=StudyArm(s=current.control.s[:1],
                                           w=current.control.w[:1],
                                           y=current.control.y[:1]))
    path = tmp_path / "one_row.csv"
    write_study_csv(one_row, path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "surrtest.cli", "bandwidths", str(csv_pair / "prior.csv"),
         str(path), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "error (DegenerateSpread): h0 (current control w): "
        "need at least two values for a bandwidth"]


def test_gaussian_kernel_echoed(csv_pair, tmp_path, capsys):
    estimates = {}
    for kernel in ("epanechnikov", "gaussian"):
        out = tmp_path / kernel
        code, stdout, _ = run_cli(["test", str(csv_pair / "prior.csv"),
                                   str(csv_pair / "current.csv"),
                                   "--kernel", kernel, "--out", str(out)], capsys)
        assert code == 0
        assert f"kernel={kernel}" in stdout
        report = read_report(out)
        assert report["kernel"] == kernel
        estimates[kernel] = {r["method"]: r["estimate"] for r in report["results"]}
    # the outcome contrast uses no smoother; the transported ones do
    assert estimates["gaussian"]["gold"] == estimates["epanechnikov"]["gold"]
    assert estimates["gaussian"]["h_pooled"] != estimates["epanechnikov"]["h_pooled"]


# ------------------------------------------------------------ config file

def test_config_file_sets_values_and_flags_win(csv_pair, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# campaign defaults\nalpha = 0.01\nkernel = gaussian\n"
                   "oob = clamp\n")
    out = tmp_path / "o"
    code, _, _ = run_cli(["test", str(csv_pair / "prior.csv"),
                          str(csv_pair / "current.csv"),
                          "--config", str(cfg), "--kernel", "epanechnikov",
                          "--out", str(out)], capsys)
    assert code == 0
    report = read_report(out)
    assert report["alpha"] == 0.01          # from the config file
    assert report["kernel"] == "epanechnikov"  # explicit flag beats config


def test_config_file_can_supply_setting(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("setting = 7\nreps = 2\nn1p = 120\nn0p = 100\n"
                   "n1 = 50\nn0 = 50\ntruth-draws = 10000\n")
    out = tmp_path / "o"
    code, _, _ = run_cli(["simulate", "--config", str(cfg),
                          "--out", str(out)], capsys)
    assert code == 0
    report = read_report(out)
    assert report["config"]["setting"] == 7
    assert report["config"]["reps"] == 2


def test_config_file_matches_flags_byte_for_byte(csv_pair, tmp_path, capsys):
    inputs = [str(csv_pair / "prior.csv"), str(csv_pair / "current.csv")]
    for i, (command, text, flags) in enumerate([
            (["test", *inputs], "alpha = 0.01\nkernel = gaussian\naug = yes\n",
             ["--alpha", "0.01", "--kernel", "gaussian", "--aug"]),
            (["oracle", "lognormal"], "delta0 = 0.8\nmc = 20000\nseed = 3\n",
             ["--delta0", "0.8", "--mc", "20000", "--seed", "3"])]):
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(text)
        via_config, via_flags = tmp_path / f"c{i}", tmp_path / f"f{i}"
        assert run_cli([*command, "--config", str(cfg),
                        "--out", str(via_config)], capsys)[0] == 0
        assert run_cli([*command, *flags, "--out", str(via_flags)], capsys)[0] == 0
        for name in ("report.json", "summary.csv"):
            assert (via_config / name).read_bytes() == (via_flags / name).read_bytes()


@pytest.mark.parametrize("command, line, key", [
    (["simulate", "--setting", "7"], "bogus = 1", "bogus"),
    (["bandwidths", "{prior}", "{current}"], "threads = 4", "threads"),
    (["simulate", "--setting", "7"], "bandwidths = 1 1 1 1 1", "bandwidths"),
    (["test", "{prior}", "{current}"], "bandwidths = 1 2 3", "bandwidths"),
    (["bandwidths", "{prior}", "{current}"], "kernel = gaussian", "kernel"),
    (["oracle", "discrete"], "alpha = 0.1", "alpha"),
    (["oracle", "discrete"], "seed = 3", "seed"),
    (["oracle", "lognormal"], "p_female = 0.1", "p_female"),
], ids=["bogus", "threads-to-bandwidths", "bandwidths-to-simulate",
        "bandwidths-arity", "kernel-to-bandwidths", "alpha-to-oracle",
        "seed-to-oracle-discrete", "p-female-to-oracle-lognormal"])
def test_config_file_rejects_unknown_key(csv_pair, tmp_path, capsys,
                                         command, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run settings\n{line}\n")
    argv = [a.format(prior=csv_pair / "prior.csv", current=csv_pair / "current.csv")
            for a in command]
    out = tmp_path / "o"
    code, _, err = run_cli(argv + ["--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert f"{cfg} line 2: " in err and key in err
    assert "Traceback" not in err
    assert not out.exists()


def test_load_config_file_parses_and_validates(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("alpha = 0.1  # trailing comment\n\noob=error\naug = yes\n"
                   "bandwidths = 1, 2 3 4 5\n")
    args = parse_args(["test", "p.csv", "c.csv", "--config", str(cfg)])
    assert (args.alpha, args.oob, args.aug, args.bandwidths) == \
        (0.1, "error", True, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert (args.prior_csv, args.current_csv) == ("p.csv", "c.csv")
    # switches take true/false words; false on --fix-prior is --no-fix-prior
    cfg.write_text("fix_prior = no\n")
    assert parse_args(["simulate", "--config", str(cfg)]).fix_prior is False
    assert parse_args(["simulate", "--config", str(cfg),
                       "--fix-prior"]).fix_prior is True
    cfg.write_text("no-fix-prior = 1\n")
    assert parse_args(["simulate", "--config", str(cfg)]).fix_prior is False
    bad = tmp_path / "b.cfg"
    for text, message in (("alpha ten", "key = value"),
                          ("alpha = ten", "--alpha: invalid float value"),
                          ("aug = maybe", "true/false"),
                          ("kernel = box", "--kernel: invalid choice"),
                          ("bandwidths = -1e-3 1 1 1 1", "--bandwidths: expected 5"),
                          ("prior_csv = x.csv", "not an option"),
                          ("config = other.cfg", "not an option")):
        bad.write_text(text + "\n")
        with pytest.raises(ConfigError, match=message):
            parse_args(["test", "p.csv", "c.csv", "--config", str(bad)])


def test_typed_flag_errors_keep_argparse_exit(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.1\n")
    with pytest.raises(SystemExit) as exc_info:
        main(["test", "p.csv", "c.csv", "--config", str(cfg), "--alpha", "ten"])
    assert exc_info.value.code == 2
    # options a subcommand does not read are not options of it
    for argv in (["test", "p.csv", "c.csv", "--seed", "3"],
                 ["oracle", "discrete", "--kernel", "gaussian"],
                 ["oracle", "discrete", "--alpha", "0.1"],
                 ["oracle", "discrete", "--oob", "error"],
                 ["oracle", "discrete", "--seed", "3"],
                 ["oracle", "discrete", "--mc", "2000"],
                 ["oracle", "discrete", "--delta0", "1"],
                 ["oracle", "lognormal", "--p-female", "0.1"],
                 ["bandwidths", "p.csv", "c.csv", "--kernel", "gaussian"],
                 ["bandwidths", "p.csv", "c.csv", "--alpha", "0.1"],
                 ["bandwidths", "p.csv", "c.csv", "--seed", "3"],
                 ["bandwidths", "p.csv", "c.csv", "--oob", "error"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
    assert "unrecognized arguments: --oob error" in capsys.readouterr().err
