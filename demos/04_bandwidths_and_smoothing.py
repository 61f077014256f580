"""Rule-of-thumb bandwidths and the kernel smoothers they feed.

Shows the five bandwidths, what each one smooths, and the out-of-support
policies on a visible 1-D example.
"""
import numpy as np

from surrtest.data import validate_paired
from surrtest.errors import OutOfSupport
from surrtest.simulate import generate_setting
from surrtest.smoothing import (
    KernelKind,
    OobPolicy,
    SmoothingConfig,
    default_bandwidths,
    nw_curve_many,
    rule_of_thumb_bandwidth,
)

paired = validate_paired(generate_setting(1, "prior", 1000, 800, master_seed=9),
                         generate_setting(1, "current", 300, 300, master_seed=9))

bw = default_bandwidths(paired, KernelKind.EPANECHNIKOV)
print("resolved bandwidths (1.06 * min(sd, IQR/1.34) * n^exponent):")
for name, role in (("h0", "current control w, second-stage trend"),
                   ("h1", "current treated w, second-stage trend"),
                   ("h2", "prior control s, outcome surface (2x, undersmoothed)"),
                   ("h3", "prior control w, outcome surface (2x, undersmoothed)"),
                   ("h4", "prior control s, 1-D covariate-ignoring curve")):
    print(f"  {name} = {getattr(bw, name):8.5f}   {role}")

# undersmoothing in action: the exponent shrinks the surface bandwidths
# faster than MSE-optimal so smoothing bias washes out of the test
n = paired.prior.control.n
print(f"\nprior control n={n}: n^-0.4 = {n**-0.4:.5f}, n^-0.31 = {n**-0.31:.5f}")

# --- smoothing and the out-of-support policies ----------------------------
rng = np.random.default_rng(4)
x = np.sort(rng.uniform(0, 10, 60))
y = np.sin(x) + 0.1 * rng.standard_normal(60)
h = rule_of_thumb_bandwidth(x, -0.4)

queries = np.array([2.0, 5.0, 9.0, 14.0])  # 14 sits far outside the data

strict = SmoothingConfig(kernel=KernelKind.EPANECHNIKOV,
                         oob_policy=OobPolicy.ERROR)
try:
    nw_curve_many(x, y, h, strict.kernel, queries, strict)
except OutOfSupport as exc:
    print(f"\nstrict policy refused queries at indices {list(exc.indices)}")

lenient = SmoothingConfig(kernel=KernelKind.EPANECHNIKOV,
                          oob_policy=OobPolicy.CLAMP_TO_NEAREST)
values, n_clamped = nw_curve_many(x, y, h, lenient.kernel, queries, lenient)
print(f"clamping policy answered all queries ({n_clamped} clamped):")
for q, v in zip(queries, values):
    print(f"  mu({q:4.1f}) = {v:8.4f}   sin = {np.sin(q):8.4f}")
print("the clamped query reuses the nearest in-support point, so treat a "
      "large clamp count as an extrapolation warning")
