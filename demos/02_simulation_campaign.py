"""Run a small replication campaign and read the summary.

A campaign draws one prior study, freezes the fitted outcome surface, then
replicates the current study many times. The summary aggregates each
method's mean estimate, standard errors, coverage, and power. Sizes here
are cut down so the demo runs in seconds; the defaults mirror a full study.
"""
from surrtest.estimators import Method
from surrtest.simulate import SimConfig, run_simulation

cfg = SimConfig(
    setting=5,          # no heterogeneity: covariate-aware and -ignoring agree
    n1p=400, n0p=320,   # prior study arms
    n1=150, n0=150,     # current study arms per replication
    reps=100,
    master_seed=11,
    truth_mc_draws=100_000,
)
summary = run_simulation(cfg)

print(f"setting {summary.setting}: {summary.reps} reps, "
      f"{summary.clamped_evals} clamped evaluations")
print(f"true effect {summary.truth_delta:.4f}, transported-scale target "
      f"{summary.truth_tilde_delta_h:.4f}")

print(f"\n{'method':<12} {'mean':>8} {'ESE':>7} {'ASE':>7} {'cover':>6} {'power':>6}")
for method in Method:
    m = summary.methods[method.value]
    cov = "" if m.coverage is None else f"{m.coverage:.3f}"
    print(f"{method.value:<12} {m.mean_estimate:>8.3f} {m.ese:>7.3f} {m.ase:>7.3f} "
          f"{cov:>6} {m.power:>6.3f}")

# the pooled second stage buys its efficiency on the reported SEs
print(f"\npooled/simple SE ratio: {summary.se_ratio_pooled_simple:.4f}")

# determinism: the same config gives the identical summary, thread count
# included, so campaign results are safe to cache by (setting, seed)
again = run_simulation(cfg)
assert again == summary
print("re-run with the same seed reproduced the summary exactly")
