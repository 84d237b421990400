"""Hedging across weight choices with one aggregate statistic.

When the dependence lag is unknown, combine several weight profiles: the
aggregate forms each profile's standardized statistic on a shared
similarity matrix and measures their joint Mahalanobis distance from the
permutation null. One p-value, no multiple-testing juggling.

    python3 demos/06_multi_weight.py
"""

import numpy as np

from wise import kernels, mahalanobis_aggregate, run_test, validate_series, weights

SPECS = [weights.default_weight(), weights.cosine(4.0), weights.geometric(0.8)]
NAMES = ["default", "cosine l=4", "geometric r=0.8"]


def lag4_series(n, p, seed, coef=0.5):
    rng = np.random.default_rng(seed)
    x = np.zeros((n + 40, p))
    eps = rng.standard_normal((n + 40, p))
    for t in range(n + 40):
        x[t] = (coef * x[t - 4] if t >= 4 else 0.0) + eps[t]
    return validate_series(x[40:], "vector")


def report(label, series):
    print(label)
    for name, spec in zip(NAMES, SPECS):
        r = run_test(series, kernels.neg_l1(), spec)
        print(f"  single {name:15s} p = {r.p_value:.4f}")
    m, p = mahalanobis_aggregate(series, kernels.neg_l1(), SPECS, B=800, seed=5)
    print(f"  aggregate of all 3     p = {p:.4f}   (M = {m:.2f})")
    return p


# Dependence at lag 4 only: the default profile sees nothing, yet the
# aggregate rejects because the other coordinates carry the signal.
p = report("lag-4 autoregression (n=100, p=40):", lag4_series(100, 40, seed=0))
assert p < 0.05, f"the aggregate should reject lag-4 dependence, got p = {p}"

# Control: on white noise the aggregate stays quiet.
iid = validate_series(np.random.default_rng(9).standard_normal((100, 40)), "vector")
p = report("\ni.i.d. noise:", iid)
assert p >= 0.05, f"the aggregate should not reject white noise, got p = {p}"
