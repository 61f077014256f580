"""Golden outputs: each command below must reproduce its files in tests/golden/.

A completing command keeps its report.json and summary.csv there; a failing
one keeps its exit code and stderr in outcome.json. Strings, integers (clamp
counts among them) and booleans must match exactly, and floats within
ABS_TOL + REL_TOL * |golden|, so a reordered sum passes and a changed
statistic does not. `version` and each input's `path` are not compared; each
input's `sha256` is.

A change that moves bits on purpose rewrites the files from its own tree:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import pytest

from surrtest.cli import main
from surrtest.data import write_study_csv
from surrtest.simulate import generate_setting

GOLDEN = Path(__file__).resolve().parent / "golden"
ABS_TOL = 1e-12
REL_TOL = 1e-12

PAIR = ["prior.csv", "current.csv"]
CASES = {
    "test-aug": ["test", *PAIR, "--aug"],
    "test-gaussian": ["test", *PAIR, "--kernel", "gaussian"],
    "test-bandwidths": ["test", *PAIR, "--bandwidths", "0.5", "0.5", "0.3", "0.3", "0.2"],
    "bandwidths": ["bandwidths", *PAIR],
    "test-oob-error": ["test", *PAIR, "--oob", "error"],
    "simulate-setting1": ["simulate", "--setting", "1", "--reps", "30",
                          "--truth-draws", "20000"],
    "simulate-setting7-no-fix-prior": ["simulate", "--setting", "7", "--reps", "5",
                                       "--no-fix-prior"],
    "simulate-setting1-oob-error": ["simulate", "--setting", "1", "--reps", "40",
                                    "--no-fix-prior", "--oob", "error"],
}


def run_case(name: str, workdir: Path) -> tuple:
    """Run case `name` inside `workdir` on a setting-1 pair (prior 1000/800,
    current 300/300, seed 11); return its exit code and stderr. The paths
    are relative, so no report names the directory."""
    write_study_csv(generate_setting(1, "prior", 1000, 800, 11), workdir / "prior.csv")
    write_study_csv(generate_setting(1, "current", 300, 300, 11), workdir / "current.csv")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*CASES[name], "--out", "out"])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_cell(text) for text in row] for row in csv.reader(fh)]


def _skipped(where: str, key: str) -> bool:
    return (where, key) == ("", "version") or (where.startswith(".inputs.") and key == "path")


def assert_matches(got, want, where: str = "") -> None:
    assert type(got) is type(want), f"{where}: {got!r} against golden {want!r}"
    if isinstance(want, float):
        assert abs(got - want) <= ABS_TOL + REL_TOL * abs(want), \
            f"{where}: {got!r} against golden {want!r}"
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            if not _skipped(where, key):
                assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} against golden {want!r}"


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden(name, tmp_path):
    code, err = run_case(name, tmp_path)
    golden = GOLDEN / name
    if (golden / "outcome.json").exists():
        assert {"exit_code": code, "stderr": err} == \
            json.loads((golden / "outcome.json").read_text(encoding="utf-8"))
        return
    assert code == 0, err
    out = tmp_path / "out"
    assert_matches(json.loads((out / "report.json").read_text(encoding="utf-8")),
                   json.loads((golden / "report.json").read_text(encoding="utf-8")))
    assert_matches(_read_csv(out / "summary.csv"), _read_csv(golden / "summary.csv"))


def test_comparison_bounds():
    assert_matches({"a": [1.0, 2], "version": "0"}, {"a": [1.0 + 1e-13, 2], "version": "1"})
    for got, want in ((1.0 + 3e-12, 1.0), (1e-11, 0.0), (1.0, 1), (True, 1), ("2", 2)):
        with pytest.raises(AssertionError):
            assert_matches(got, want)
    with pytest.raises(AssertionError):
        assert_matches({"inputs": {"x": {"path": "a", "sha256": "b"}}},
                       {"inputs": {"x": {"path": "c", "sha256": "d"}}})
    assert_matches({"inputs": {"x": {"path": "a", "sha256": "b"}}},
                   {"inputs": {"x": {"path": "c", "sha256": "b"}}})


if __name__ == "__main__":
    import shutil
    import tempfile

    for name in CASES:
        golden = GOLDEN / name
        shutil.rmtree(golden, ignore_errors=True)
        golden.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            code, err = run_case(name, Path(tmp))
            if code == 0:
                for file in ("report.json", "summary.csv"):
                    shutil.copyfile(Path(tmp) / "out" / file, golden / file)
            else:
                with open(golden / "outcome.json", "w", encoding="utf-8") as fh:
                    json.dump({"exit_code": code, "stderr": err}, fh, indent=2)
                    fh.write("\n")
        print(f"{name}: exit {code}", file=sys.stderr)
