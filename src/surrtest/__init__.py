"""Treatment-effect testing on surrogate markers whose strength varies with a covariate.

The workflow: fit a conditional outcome-mean surface on a completed study's
control arm, transport the new study's (surrogate, covariate) observations
through it, and contrast arms on the transported scale with a Wald test.
Includes the covariate-ignoring alternative, the outcome-based gold standard,
a deterministic simulation harness over eight benchmark settings, and exact
closed-form benchmarks.
"""

from .data import (
    PairedStudies,
    StudyArm,
    TwoArmStudy,
    load_study_csv,
    validate_paired,
    write_study_csv,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateSpread,
    EmptyArm,
    InvalidTreatmentCode,
    MissingColumn,
    MissingPriorOutcome,
    MixedOutcomePresence,
    NonFiniteValue,
    NonPositiveBandwidth,
    NonPositiveDelta0,
    OutOfSupport,
    SurrtestError,
    UnknownSetting,
    ZeroDenominator,
    ZeroSE,
)
from .estimators import (
    EstimateWithSE,
    Method,
    Mu0Surface,
    estimate_suite,
    fit_mu0_surface,
    pte_ratio,
)
from .inference import TestOutcome, normal_cdf, normal_quantile, wald_test
from .oracles import (
    DiscreteMix,
    MCTriple,
    OracleTriple,
    discrete_example,
    lognormal_counterexample_analytic,
    lognormal_counterexample_mc,
    lognormal_delta_p_linearized,
)
from .simulate import (
    MethodSummary,
    SimConfig,
    SimulationSummary,
    generate_setting,
    run_simulation,
    tilde_delta_h,
    true_deltas,
)
from .smoothing import (
    Bandwidths,
    KernelKind,
    OobPolicy,
    SmoothingConfig,
    default_bandwidths,
    rule_of_thumb_bandwidth,
)

__version__ = "0.1.0"
