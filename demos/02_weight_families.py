"""How the lag-weight family steers what the test can see.

Every weight family puts mass on different lags: the default profile decays
like 1/(1+t^2) and mostly watches short lags, geometric decay reaches
further out, and the cosine family concentrates on one period. A series
whose dependence lives at lag 4 is invisible to a short-lag profile and
obvious to a period-4 one.

    python3 demos/02_weight_families.py
"""

import numpy as np

from wise import kernels, run_test, validate_series, weights
from wise.weights import weight_profile


def lag4_series(n, p, seed, coef=0.5):
    # X_t = coef * X_{t-4} + noise: pure seasonal carryover, nothing at lag 1.
    rng = np.random.default_rng(seed)
    x = np.zeros((n + 40, p))
    eps = rng.standard_normal((n + 40, p))
    for t in range(n + 40):
        x[t] = (coef * x[t - 4] if t >= 4 else 0.0) + eps[t]
    return validate_series(x[40:], "vector")


families = [
    ("default", weights.default_weight()),
    ("algebraic b=2", weights.algebraic(2.0)),
    ("geometric r=0.8", weights.geometric(0.8)),
    ("cosine l=4", weights.cosine(4.0)),
    ("abs_cosine l=4", weights.abs_cosine(4.0)),
]

print("weight profiles, lags 0..8")
lags = np.arange(9, dtype=float)
for name, spec in families:
    vals = " ".join(f"{w:+6.3f}" for w in weight_profile(spec, lags))
    print(f"  {name:16s} {vals}")

print("\nseries with dependence only at lag 4 (n=100, p=40)")
series = lag4_series(100, 40, seed=0)
p_values = {}
for name, spec in families:
    r = run_test(series, kernels.neg_l1(), spec)
    print(f"  {name:16s} Z_G = {r.z_g:+7.3f}   p = {r.p_value:.4f}")
    p_values[name] = r.p_value

# The default profile barely reacts while anything with mass at lag 4
# rejects outright. Choosing the weight is choosing the alternative you
# care about; demo 06 shows how to hedge across several at once.
short = p_values["default"]
assert short >= 0.05, f"the default should miss lag 4, got p = {short}"
for name in ("geometric r=0.8", "cosine l=4", "abs_cosine l=4"):
    assert p_values[name] < 0.05, f"{name} should reject lag 4, got p = {p_values[name]}"
