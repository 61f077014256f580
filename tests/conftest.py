import numpy as np
import pytest

from surrtest.data import StudyArm, TwoArmStudy, validate_paired
from surrtest.simulate import generate_setting
from surrtest.smoothing import KernelKind, OobPolicy, SmoothingConfig


@pytest.fixture(scope="session")
def small_pair():
    """A small generated study pair (no-heterogeneity setting), fast to smooth."""
    prior = generate_setting(5, "prior", 200, 160, master_seed=7)
    current = generate_setting(5, "current", 80, 80, master_seed=7)
    return validate_paired(prior, current)


@pytest.fixture()
def clamp_cfg():
    return SmoothingConfig(kernel=KernelKind.EPANECHNIKOV,
                           oob_policy=OobPolicy.CLAMP_TO_NEAREST)


@pytest.fixture()
def error_cfg():
    return SmoothingConfig(kernel=KernelKind.EPANECHNIKOV,
                           oob_policy=OobPolicy.ERROR)


def tiny_pair(with_current_y=True):
    """Hand-sized deterministic pair for exact-arithmetic tests.

    Prior control carries 5 points; every current point sits well inside the
    prior support so compact kernels keep mass everywhere at h ~ 2.
    """
    prior = TwoArmStudy(
        treated=StudyArm(s=[1.1, 2.3, 0.7], w=[0.5, 1.4, 2.2],
                         y=[4.0, 6.5, 3.1]),
        control=StudyArm(s=[1.0, 1.5, 2.0, 0.5, 2.5],
                         w=[0.0, 1.0, 2.0, 1.5, 0.5],
                         y=[3.0, 4.5, 6.2, 2.1, 7.0]))
    cur_kw = dict(
        treated=StudyArm(s=[1.2, 1.8, 2.2], w=[0.4, 1.1, 1.9],
                         y=[5.0, 5.8, 6.9] if with_current_y else None),
        control=StudyArm(s=[0.8, 1.4], w=[0.9, 1.6],
                         y=[3.3, 4.4] if with_current_y else None))
    return validate_paired(prior, TwoArmStudy(**cur_kw))
