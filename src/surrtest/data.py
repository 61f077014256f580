"""Study containers, CSV ingestion, and cross-study validation.

A study file is a UTF-8 comma-delimited CSV, with or without the byte-order
mark Excel's "CSV UTF-8" writes, with a header row and columns ``z``
(treatment indicator, 0 or 1), ``s`` (surrogate marker), ``w`` (baseline
covariate), and optionally ``y`` (primary outcome).  Outcome cells may be
blank only if every cell in that arm is blank; an arm either has outcomes or
does not.  Non-finite values are hard errors, never imputed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DataError,
    EmptyArm,
    InvalidTreatmentCode,
    MissingColumn,
    MissingPriorOutcome,
    MixedOutcomePresence,
    NonFiniteValue,
)

__all__ = [
    "StudyArm",
    "TwoArmStudy",
    "PairedStudies",
    "load_study_csv",
    "write_study_csv",
    "validate_paired",
]

def _as_readonly(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyArm(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"non-finite value in {name}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StudyArm:
    """One treatment arm's observations: surrogate, covariate, optional outcome."""

    s: np.ndarray
    w: np.ndarray
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "s", _as_readonly(self.s, "s"))
        object.__setattr__(self, "w", _as_readonly(self.w, "w"))
        if self.s.shape != self.w.shape:
            raise DataError(
                f"s and w lengths differ ({self.s.size} vs {self.w.size})")
        if self.y is not None:
            object.__setattr__(self, "y", _as_readonly(self.y, "y"))
            if self.y.shape != self.s.shape:
                raise DataError(
                    f"y length {self.y.size} differs from s length {self.s.size}")

    @property
    def n(self) -> int:
        return int(self.s.size)

    @property
    def has_outcome(self) -> bool:
        return self.y is not None


@dataclass(frozen=True)
class TwoArmStudy:
    """A randomized two-arm study; arm 1 treated, arm 0 control."""

    treated: StudyArm
    control: StudyArm

    @property
    def n(self) -> int:
        return self.treated.n + self.control.n


@dataclass(frozen=True)
class PairedStudies:
    """A validated (prior, current) study pair.

    ``support_overlap`` is the fraction of current-study (s, w) points lying
    inside the prior control arm's empirical bounding box; values below 1
    flag extrapolation risk and are echoed in ``warnings``.
    """

    prior: TwoArmStudy
    current: TwoArmStudy
    support_overlap: float = 1.0
    warnings: tuple = field(default_factory=tuple)


def _parse_float(cell: str, column: str, path, line_no: int) -> float:
    try:
        v = float(cell)
    except (TypeError, ValueError):
        raise NonFiniteValue(
            f"{path} line {line_no}: cannot parse {column}={cell!r} as a number") from None
    if not np.isfinite(v):
        raise NonFiniteValue(f"{path} line {line_no}: non-finite {column}={cell!r}")
    return v


def load_study_csv(path) -> TwoArmStudy:
    """Read one study CSV and partition rows by treatment indicator."""
    rows = {0: {"s": [], "w": [], "y": []}, 1: {"s": [], "w": [], "y": []}}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MissingColumn(f"{path}: empty file, no header row")
        header = set(reader.fieldnames)
        for key in ("z", "s", "w"):
            if key not in header:
                raise MissingColumn(f"{path}: required column {key!r} missing")
        has_y_col = "y" in header

        for row in reader:
            line_no = reader.line_num  # the physical line: blank lines count
            z_raw = (row.get("z") or "").strip()
            try:
                z_val = float(z_raw)
            except ValueError:
                raise InvalidTreatmentCode(
                    f"{path} line {line_no}: treatment code {z_raw!r}") from None
            if z_val not in (0.0, 1.0):
                raise InvalidTreatmentCode(
                    f"{path} line {line_no}: treatment code must be 0 or 1, got {z_raw!r}")
            g = int(z_val)
            rows[g]["s"].append(_parse_float(row.get("s"), "s", path, line_no))
            rows[g]["w"].append(_parse_float(row.get("w"), "w", path, line_no))
            if has_y_col:
                y_cell = row.get("y")
                y_cell = y_cell.strip() if y_cell is not None else ""
                rows[g]["y"].append(
                    None if y_cell == "" else _parse_float(y_cell, "y", path, line_no))

    arms = {}
    for g in (1, 0):
        if not rows[g]["s"]:
            raise EmptyArm(f"{path}: no rows with z={g}")
        y_cells = rows[g]["y"]
        if not has_y_col or all(v is None for v in y_cells):
            y = None
        elif any(v is None for v in y_cells):
            n_blank = sum(v is None for v in y_cells)
            raise MixedOutcomePresence(
                f"{path}: arm z={g} has {n_blank} blank outcome cell(s) out of "
                f"{len(y_cells)}; an arm must have all outcomes or none")
        else:
            y = y_cells
        arms[g] = StudyArm(s=rows[g]["s"], w=rows[g]["w"], y=y)
    return TwoArmStudy(treated=arms[1], control=arms[0])


def write_study_csv(study: TwoArmStudy, path) -> None:
    """Write a study to CSV, preserving float values bit-exactly via repr."""
    any_y = study.treated.has_outcome or study.control.has_outcome
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "s", "w"] + (["y"] if any_y else []))
        for g, arm in ((1, study.treated), (0, study.control)):
            for i in range(arm.n):
                row = [g, repr(float(arm.s[i])), repr(float(arm.w[i]))]
                if any_y:
                    row.append(repr(float(arm.y[i])) if arm.has_outcome else "")
                writer.writerow(row)


def validate_paired(prior: TwoArmStudy, current: TwoArmStudy) -> PairedStudies:
    """Pair a prior and current study, checking transportability prerequisites.

    The prior control arm must carry outcomes (it defines the surface that is
    transported).  The support-overlap diagnostic counts the fraction of
    current (s, w) points inside the prior control's bounding box; overlap
    below 1 produces a warning record, not an error.
    """
    if not prior.control.has_outcome:
        raise MissingPriorOutcome("prior study's control arm carries no outcome column")

    ps, pw = prior.control.s, prior.control.w
    s_lo, s_hi = float(ps.min()), float(ps.max())
    w_lo, w_hi = float(pw.min()), float(pw.max())
    cs = np.concatenate([current.treated.s, current.control.s])
    cw = np.concatenate([current.treated.w, current.control.w])
    inside = (cs >= s_lo) & (cs <= s_hi) & (cw >= w_lo) & (cw <= w_hi)
    overlap = float(inside.mean())

    warnings = ()
    if overlap < 1.0:
        warnings = (
            f"{(~inside).sum()} of {inside.size} current-study points fall outside "
            f"the prior control support box (overlap {overlap:.4f}); "
            "estimates there rely on boundary extrapolation",
        )
    return PairedStudies(prior=prior, current=current,
                         support_overlap=overlap, warnings=warnings)
