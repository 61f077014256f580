"""Treatment-effect testing on surrogate markers whose strength varies with a covariate.

The workflow: fit a conditional outcome-mean surface on a completed study's
control arm, transport the new study's (surrogate, covariate) observations
through it, and contrast arms on the transported scale with a Wald test.
Includes the covariate-ignoring alternative, the outcome-based gold standard,
a deterministic simulation harness over eight benchmark settings, and exact
closed-form benchmarks.  Import names from the submodules.
"""

__version__ = "0.1.0"
