"""Estimate and test a treatment effect from a prior/current CSV pair.

The prior study has the outcome; the current study is blinded to it. We
write both studies to CSV the way a user would receive them, then run the
whole pipeline: load, validate, pick bandwidths, estimate, test.
"""
import tempfile
from pathlib import Path

from surrtest.data import StudyArm, TwoArmStudy, load_study_csv, validate_paired, write_study_csv
from surrtest.estimators import Method, estimate_suite, pte_ratio
from surrtest.inference import wald_test
from surrtest.simulate import generate_setting
from surrtest.smoothing import KernelKind, OobPolicy, SmoothingConfig, default_bandwidths

# --- fabricate a study pair from the built-in generator ------------------
# prior: both arms carry the outcome. current: outcome stripped (blinded).
prior = generate_setting(1, "prior", n1=1000, n0=800, master_seed=42)
current_full = generate_setting(1, "current", n1=300, n0=300, master_seed=42)
current = TwoArmStudy(
    treated=StudyArm(s=current_full.treated.s, w=current_full.treated.w, y=None),
    control=StudyArm(s=current_full.control.s, w=current_full.control.w, y=None))

# the CSV files live only as long as this block
with tempfile.TemporaryDirectory(prefix="surrtest-demo-") as tmp:
    workdir = Path(tmp)
    write_study_csv(prior, workdir / "prior.csv")
    write_study_csv(current, workdir / "current.csv")
    print(f"wrote {workdir}/prior.csv and current.csv")

    # --- load back and validate ------------------------------------------
    prior = load_study_csv(workdir / "prior.csv")
    current = load_study_csv(workdir / "current.csv")
paired = validate_paired(prior, current)
print(f"support overlap: {paired.support_overlap:.4f}")
for msg in paired.warnings:
    print("warning:", msg)

# --- estimate -------------------------------------------------------------
# clamping handles the few treated markers past the prior control support
cfg = SmoothingConfig(kernel=KernelKind.EPANECHNIKOV,
                      oob_policy=OobPolicy.CLAMP_TO_NEAREST)
bw = default_bandwidths(paired, cfg.kernel)
print(f"bandwidths: h0={bw.h0:.3f} h1={bw.h1:.3f} h2={bw.h2:.3f} "
      f"h3={bw.h3:.3f} h4={bw.h4:.3f}")

suite = estimate_suite(paired, bw, cfg)

print(f"\n{'method':<12} {'estimate':>9} {'se':>7} {'p-value':>10}  95% CI")
for method in (Method.H_POOLED, Method.P, Method.H_AUG):
    t = wald_test(suite[method], alpha=0.05)
    print(f"{method.value:<12} {t.estimate:>9.4f} {t.se:>7.4f} {t.p_value:>10.3e}  "
          f"[{t.ci_lower:.3f}, {t.ci_upper:.3f}]")

# gold is unavailable here: the current study never saw the outcome
assert Method.GOLD not in suite
print("\ngold contrast unavailable (blinded current study), as it should be")

# with outcomes in hand (end of trial), the ratio of transported to direct
# effect says how much of the effect the surrogate route captured
paired_unblinded = validate_paired(prior, current_full)
suite_full = estimate_suite(paired_unblinded, bw, cfg)
r = pte_ratio(suite_full[Method.H_POOLED], suite_full[Method.GOLD])
print(f"transported/outcome effect ratio once unblinded: {r:.3f}")
