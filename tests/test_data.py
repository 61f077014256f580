import tracemalloc

import numpy as np
import pytest

from surrtest.data import (
    PairedStudies,
    StudyArm,
    TwoArmStudy,
    load_study_csv,
    validate_paired,
    write_study_csv,
)
from surrtest.errors import (
    DataError,
    EmptyArm,
    InvalidTreatmentCode,
    MissingColumn,
    MissingPriorOutcome,
    MixedOutcomePresence,
    NonFiniteValue,
)
from surrtest.simulate import generate_setting


def _write(tmp_path, text, name="study.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ------------------------------------------------------------ containers

def test_arm_basics():
    arm = StudyArm(s=[1.0, 2.0], w=[0.5, 1.5], y=[3.0, 4.0])
    assert arm.n == 2
    assert arm.has_outcome
    assert not arm.s.flags.writeable  # immutable views guard the estimators


def test_arm_without_outcome():
    arm = StudyArm(s=[1.0, 2.0], w=[0.5, 1.5])
    assert not arm.has_outcome
    assert arm.y is None


def test_arm_length_mismatch():
    with pytest.raises(DataError):
        StudyArm(s=[1.0, 2.0], w=[0.5])
    with pytest.raises(DataError):
        StudyArm(s=[1.0, 2.0], w=[0.5, 1.5], y=[1.0])


def test_arm_rejects_empty_and_nonfinite():
    with pytest.raises(EmptyArm):
        StudyArm(s=[], w=[])
    with pytest.raises(NonFiniteValue):
        StudyArm(s=[1.0, np.nan], w=[0.5, 1.5])
    with pytest.raises(NonFiniteValue):
        StudyArm(s=[1.0, 2.0], w=[0.5, np.inf])


# ------------------------------------------------------------ CSV loading

def test_load_basic(tmp_path):
    p = _write(tmp_path, "z,s,w,y\n1,2.5,0.3,10.0\n0,1.5,0.7,8.0\n1,3.5,0.9,12.0\n")
    study = load_study_csv(p)
    assert study.treated.n == 2
    assert study.control.n == 1
    np.testing.assert_array_equal(study.treated.s, [2.5, 3.5])
    assert study.treated.has_outcome and study.control.has_outcome


def test_load_without_outcome_column(tmp_path):
    p = _write(tmp_path, "z,s,w\n1,2.5,0.3\n0,1.5,0.7\n")
    study = load_study_csv(p)
    assert not study.treated.has_outcome
    assert not study.control.has_outcome


def test_load_blinded_arm_allowed(tmp_path):
    # all-blank outcomes in one arm: that arm simply has no outcomes
    p = _write(tmp_path, "z,s,w,y\n1,2.5,0.3,\n1,3.0,0.4,\n0,1.5,0.7,8.0\n")
    study = load_study_csv(p)
    assert not study.treated.has_outcome
    assert study.control.has_outcome


def test_load_mixed_outcome_rejected(tmp_path):
    p = _write(tmp_path, "z,s,w,y\n1,2.5,0.3,5.0\n1,3.0,0.4,\n0,1.5,0.7,8.0\n")
    with pytest.raises(MixedOutcomePresence, match="z=1"):
        load_study_csv(p)


def test_load_bad_treatment_codes(tmp_path):
    with pytest.raises(InvalidTreatmentCode):
        load_study_csv(_write(tmp_path, "z,s,w\n2,1.0,1.0\n"))
    with pytest.raises(InvalidTreatmentCode):
        load_study_csv(_write(tmp_path, "z,s,w\nx,1.0,1.0\n", "b.csv"))
    with pytest.raises(InvalidTreatmentCode):
        load_study_csv(_write(tmp_path, "z,s,w\n0.5,1.0,1.0\n", "c.csv"))


def test_load_missing_column(tmp_path):
    with pytest.raises(MissingColumn, match="'s'"):
        load_study_csv(_write(tmp_path, "z,w\n1,1.0\n"))
    with pytest.raises(MissingColumn):
        load_study_csv(_write(tmp_path, "", "empty.csv"))


def test_load_empty_arm(tmp_path):
    p = _write(tmp_path, "z,s,w\n1,1.0,0.5\n1,2.0,0.6\n")
    with pytest.raises(EmptyArm, match="z=0"):
        load_study_csv(p)


def test_load_nonfinite_cells(tmp_path):
    with pytest.raises(NonFiniteValue, match="line 2"):
        load_study_csv(_write(tmp_path, "z,s,w\n1,nan,0.5\n0,1.0,0.5\n"))
    # the message names the file and the physical line, blank lines counted
    for column, text in (("s", "z,s,w\n1,1.0,0.5\n\n1,nan,0.5\n0,1.0,0.5\n"),
                         ("w", "z,s,w\n1,1.0,0.5\n\n1,1.0,nan\n0,1.0,0.5\n"),
                         ("y", "z,s,w,y\n1,1.0,0.5,1\n\n1,1.0,0.5,nan\n0,1.0,0.5,1\n")):
        path = _write(tmp_path, text, f"blank_{column}.csv")
        with pytest.raises(NonFiniteValue,
                           match=f"blank_{column}.csv line 4: non-finite {column}="):
            load_study_csv(path)
    with pytest.raises(NonFiniteValue):
        load_study_csv(_write(tmp_path, "z,s,w\n1,inf,0.5\n0,1.0,0.5\n", "b.csv"))
    with pytest.raises(NonFiniteValue):
        load_study_csv(_write(tmp_path, "z,s,w\n1,abc,0.5\n0,1.0,0.5\n", "c.csv"))


def test_roundtrip_bitwise(tmp_path):
    """write -> read preserves every float bit-for-bit (repr round-trip)."""
    study = generate_setting(5, "current", 60, 50, master_seed=3)
    p = tmp_path / "rt.csv"
    write_study_csv(study, p)
    back = load_study_csv(p)
    for side in ("treated", "control"):
        a, b = getattr(study, side), getattr(back, side)
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.y, b.y)


def test_load_excel_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark, which must
    # not become part of the first header name
    study = generate_setting(5, "current", 20, 15, master_seed=3)
    plain = tmp_path / "plain.csv"
    write_study_csv(study, plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_study_csv(plain), load_study_csv(bom)
    for side in ("treated", "control"):
        for var in ("s", "w", "y"):
            x, y = getattr(getattr(a, side), var), getattr(getattr(b, side), var)
            assert x.tobytes() == y.tobytes()


def test_roundtrip_blinded(tmp_path):
    full = generate_setting(5, "current", 20, 20, master_seed=3)
    blinded = TwoArmStudy(
        treated=StudyArm(s=full.treated.s, w=full.treated.w),
        control=StudyArm(s=full.control.s, w=full.control.w, y=full.control.y))
    p = tmp_path / "b.csv"
    write_study_csv(blinded, p)
    back = load_study_csv(p)
    assert not back.treated.has_outcome
    assert back.control.has_outcome
    np.testing.assert_array_equal(back.control.y, full.control.y)


def test_load_holds_at_most_eight_doubles_per_row(tmp_path):
    # the loader keeps each arm's cells in double arrays, not lists of Python
    # floats: three columns and their arm copies fit in 8 doubles per row
    p = tmp_path / "prior.csv"
    write_study_csv(generate_setting(1, "prior", 10**4, 10**4, master_seed=1), p)
    tracemalloc.start()
    try:
        study = load_study_csv(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert study.n == 2 * 10**4
    assert peak < 8 * 8 * study.n


# ------------------------------------------------------------- validation

def test_validate_requires_prior_outcome():
    prior = TwoArmStudy(treated=StudyArm(s=[1.0, 2.0], w=[0.1, 0.2]),
                        control=StudyArm(s=[1.0, 2.0], w=[0.1, 0.2]))
    current = TwoArmStudy(treated=StudyArm(s=[1.0, 1.5], w=[0.1, 0.2]),
                          control=StudyArm(s=[1.0, 1.5], w=[0.1, 0.2]))
    with pytest.raises(MissingPriorOutcome):
        validate_paired(prior, current)


def test_validate_overlap_full():
    prior = TwoArmStudy(
        treated=StudyArm(s=[0.0, 10.0], w=[0.0, 10.0]),
        control=StudyArm(s=[0.0, 10.0], w=[0.0, 10.0], y=[1.0, 2.0]))
    current = TwoArmStudy(treated=StudyArm(s=[1.0, 9.0], w=[2.0, 3.0]),
                          control=StudyArm(s=[4.0, 5.0], w=[8.0, 9.0]))
    paired = validate_paired(prior, current)
    assert paired.support_overlap == 1.0
    assert paired.warnings == ()


def test_validate_overlap_counts_box_exits():
    prior = TwoArmStudy(
        treated=StudyArm(s=[0.0, 10.0], w=[0.0, 10.0]),
        control=StudyArm(s=[0.0, 4.0], w=[0.0, 10.0], y=[1.0, 2.0]))
    # 2 of 4 current points have s beyond the prior control max of 4
    current = TwoArmStudy(treated=StudyArm(s=[1.0, 9.0], w=[2.0, 3.0]),
                          control=StudyArm(s=[5.0, 2.0], w=[8.0, 9.0]))
    paired = validate_paired(prior, current)
    assert paired.support_overlap == pytest.approx(0.5)
    assert len(paired.warnings) == 1
    assert "2 of 4" in paired.warnings[0]


def test_validate_generated_pair_overlap():
    # current covariates live inside the prior design; only extreme surrogate
    # tail draws can exit the box, so the overlap is essentially complete
    prior = generate_setting(1, "prior", 1000, 800, master_seed=1)
    current = generate_setting(1, "current", 300, 300, master_seed=1)
    paired = validate_paired(prior, current)
    assert paired.support_overlap > 0.98


def test_paired_is_frozen(small_pair):
    assert isinstance(small_pair, PairedStudies)
    with pytest.raises(AttributeError):
        small_pair.support_overlap = 0.5
