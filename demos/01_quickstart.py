"""Minimal end-to-end run: simulate a dependent series, test it, read the report.

Run from the repository root:

    python3 demos/01_quickstart.py
"""

import numpy as np

from wise import kernels, run_test, validate_series, weights
from wise.simgen import from_setting, generate


def show(label, result):
    print(f"{label:18s} Z_G = {result.z_g:+7.3f}   p = {result.p_value:.4f}   "
          f"reject at {result.alpha:.2f}: {result.reject}")


# A first-order vector autoregression with visible day-to-day carryover.
dependent = generate(from_setting("setting2.1", 100, 50, seed=42, coef_scale=0.2))
result = run_test(dependent, kernels.neg_l1(), weights.default_weight())
show("AR(1) series:", result)
assert result.reject, f"the test should reject the AR(1) series, got p = {result.p_value}"

# The same pipeline on white noise: the standardized statistic is close to
# N(0,1) under independence, so p-values land roughly uniform.
noise = validate_series(np.random.default_rng(42).standard_normal((100, 50)), "vector")
null = run_test(noise, kernels.neg_l1(), weights.default_weight())
show("i.i.d. series:", null)
assert not null.reject, f"the test should not reject white noise, got p = {null.p_value}"

# Everything is deterministic given the seed: rerunning reproduces the
# report bit for bit.
again = run_test(dependent, kernels.neg_l1(), weights.default_weight())
identical = (again.z, again.p_value) == (result.z, result.p_value)
print("identical rerun:", identical)
assert identical, "a rerun should reproduce the report bit for bit"

# The report also carries regularity diagnostics; ratios far above 1 flag
# similarity fields where the normal calibration deserves suspicion.
d = result.diagnostics
print(f"diagnostics: ratio1={d.ratio1:.3f} ratio2={d.ratio2:.3f} "
      f"ratio3={d.ratio3:.3f} warnings={list(d.warnings)}")
