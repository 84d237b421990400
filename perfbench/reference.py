"""Seeded inputs and an independent dense reference for the analytic test.

Everything here uses numpy and scipy only, never ``wise``, so a change to
the program can move neither the inputs nor the reference it is checked
against.

The reference centers the off-diagonal similarity and weight fields before
taking any sum. For symmetric zero-diagonal A and B with zero off-diagonal
total, the statistic Z(pi) = sum_{i != j} A_ij B_{pi(i) pi(j)} has, under a
uniformly random permutation pi (Daniels 1944; Mantel 1967), mean zero and

    Var = 2 A2 B2 / (n (n-3))
        + 4 (n+1) A3 B3 / (n (n-1) (n-2) (n-3))
        - 4 (A2 B3 + A3 B2) / (n (n-2) (n-3)),

with A2 = sum A_ij^2 and A3 = sum_i (sum_j A_ij)^2, likewise for B.
Centering subtracts nothing that can cancel, so the reference stays exact
to rounding at any n.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist


def iid_normal(seed: int, n: int, p: int, stream: int = 0) -> np.ndarray:
    return np.random.default_rng([seed, stream]).standard_normal((n, p))


def var1(seed: int, n: int, p: int, coef: float, burn_in: int, stream: int = 1) -> np.ndarray:
    """x_t = coef * x_{t-1} + e_t with N(0, I) innovations; burn-in dropped."""
    eps = np.random.default_rng([seed, stream]).standard_normal((n + burn_in, p))
    out = np.empty_like(eps)
    x = np.zeros(p)
    for t in range(n + burn_in):
        x = coef * x + eps[t]
        out[t] = x
    return out[burn_in:]


def neg_l1_similarity(x: np.ndarray) -> np.ndarray:
    """S_ij = -sum_k |x_ik - x_jk|."""
    return -cdist(x, x, metric="cityblock")


def default_weight_matrix(n: int) -> np.ndarray:
    """Dense W_ij = w(|i-j|) with w(t) = 1/(1+t^2) - 1, so w(0) = 0."""
    t = np.arange(n, dtype=np.float64)
    profile = 1.0 / (1.0 + t * t) - 1.0
    profile[0] = 0.0
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    np.abs(lag, out=lag)
    return profile[lag]


def centered_moments(S: np.ndarray, W: np.ndarray, degenerate_rms_rel: float = 1e-10) -> dict:
    """z, e_z, var_z, z_g and the two-sided normal p of the statistic
    sum_{i != j} W_ij S_ij, from off-diagonal centered copies of S and W.

    ``degenerate`` is true when the centered similarity field is zero to
    rounding: its root mean square is at most ``degenerate_rms_rel`` times
    that of the raw field. z_g and p are then NaN and 1.
    """
    n = S.shape[0]
    if n < 4:
        raise ValueError(f"the closed form needs n >= 4, got {n}")
    pairs = n * (n - 1)
    S = np.array(S, dtype=np.float64)
    W = np.array(W, dtype=np.float64)
    np.fill_diagonal(S, 0.0)
    np.fill_diagonal(W, 0.0)
    z = float(np.vdot(W, S))
    raw_sq = float(np.vdot(S, S))
    s_bar = S.sum() / pairs
    w_bar = W.sum() / pairs
    S -= s_bar
    W -= w_bar
    np.fill_diagonal(S, 0.0)
    np.fill_diagonal(W, 0.0)
    a, b = W.sum(axis=1), S.sum(axis=1)
    a2, b2 = float(np.vdot(W, W)), float(np.vdot(S, S))
    a3, b3 = float(a @ a), float(b @ b)
    var = (
        2.0 * a2 * b2 / (n * (n - 3))
        + 4.0 * (n + 1) * a3 * b3 / (n * (n - 1) * (n - 2) * (n - 3))
        - 4.0 * (a2 * b3 + a3 * b2) / (n * (n - 2) * (n - 3))
    )
    e_z = float(pairs * w_bar * s_bar)
    degenerate = b2 <= degenerate_rms_rel**2 * raw_sq
    if degenerate or var <= 0.0:
        z_g, p = float("nan"), 1.0
    else:
        z_g = (z - e_z) / math.sqrt(var)
        p = math.erfc(abs(z_g) / math.sqrt(2.0))
    return {"z": z, "e_z": e_z, "var_z": var, "z_g": z_g, "p": p, "degenerate": degenerate}
