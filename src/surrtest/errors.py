"""Exception types raised by the library.

Every failure mode has a named class so callers (and the CLI exit-code
mapping) can distinguish data problems from configuration problems.
"""


class SurrtestError(Exception):
    """Base class for all library errors."""


class DataError(SurrtestError):
    """Malformed or inconsistent input data."""


class ConfigError(SurrtestError):
    """Invalid configuration or parameter value."""


class MissingColumn(DataError):
    """A required CSV column is absent."""


class NonFiniteValue(DataError):
    """NaN or infinity encountered where a finite number is required."""


class MixedOutcomePresence(DataError):
    """Within one arm, some outcome cells are blank and some are not."""


class EmptyArm(DataError):
    """A treatment arm has no observations."""


class InvalidTreatmentCode(DataError):
    """Treatment indicator outside {0, 1}."""


class MissingPriorOutcome(DataError):
    """The prior study's control arm lacks outcome values."""


class NonPositiveBandwidth(ConfigError):
    """Bandwidth must be strictly positive and finite."""


class DegenerateSpread(DataError):
    """Sample standard deviation or IQR is zero; no bandwidth exists."""


class OutOfSupport(SurrtestError):
    """Kernel neighborhood around a query point carries no mass.

    Raised only under the Error out-of-bounds policy.  `indices` names the
    offending queries of a vectorized evaluation; a smoother's error also
    carries in `values` what the clamp policy returns for the same call.
    """

    def __init__(self, message, indices=None, values=None):
        super().__init__(message)
        self.indices = indices
        self.values = values


class ZeroDenominator(SurrtestError):
    """Division by a zero quantity (for example a zero reference estimate)."""


class ZeroSE(SurrtestError):
    """A test statistic cannot be formed from a zero standard error."""


class UnknownSetting(ConfigError):
    """Simulation setting identifier outside 1..8."""


class NonPositiveDelta0(ConfigError):
    """The lognormal benchmark's effect parameter must be positive."""
