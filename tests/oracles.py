"""Dense reference implementations that tests hold the library to.

They build S and W as n x n arrays, which the library never does: S from
its pairs through ``S.values``, W as the Toeplitz matrix of its lag profile.
"""

from itertools import permutations

import numpy as np
from scipy.linalg import toeplitz

from wise.errors import ShapeMismatch
from wise.kernels import pairwise_similarity
from wise.types import ObservationSeries, SimilarityMatrix


def random_sym(rng, n: int) -> SimilarityMatrix:
    """A symmetric n x n field of uniform entries in (-1, 1)."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return SimilarityMatrix.from_square((a + a.T) / 2.0)


def pair_similarity(spec, x, y) -> float:
    """s(x, y) for one pair of observations: S_01 of the two-row series (x, y)."""
    series = ObservationSeries(spec.accepts()[0], np.stack((x, y)))
    return float(pairwise_similarity(spec, series).condensed[0])


def _dense(S, W):
    if S.n != W.n:
        raise ShapeMismatch(f"dimension mismatch: S is {S.n}x{S.n}, W is {W.n}x{W.n}")
    return S.values, toeplitz(W.profile)


def compute_z(S, W) -> float:
    """Z = sum_ij W_ij S_ij; the diagonal contributes nothing since w(0)=0."""
    s, w = _dense(S, W)
    return float(np.einsum("ij,ij->", w, s))


def enumerate_z(S, W) -> np.ndarray:
    """Z at each of the n! re-labelings of the series, in itertools order."""
    s, w = _dense(S, W)
    perms = np.array(list(permutations(range(S.n))), dtype=np.intp)
    return np.einsum("ij,bij->b", w, s[perms[:, :, None], perms[:, None, :]])


def enumerate_moments(S, W):
    """Mean and variance of Z over all n! permutations; feasible up to n = 8."""
    zs = enumerate_z(S, W)
    return float(zs.mean()), float(zs.var())


def dense_rearrangement_bounds(S, W):
    """(lower, upper) from all n^2 entries of W and S, sorted and paired in
    opposed and in matched order."""
    s, w = _dense(S, W)
    ws = np.sort(w, axis=None)
    ss = np.sort(s, axis=None)
    return float(np.sum(ws * ss[::-1])), float(np.sum(ws * ss))


def dense_centered_moments(S: np.ndarray, W: np.ndarray):
    """z, EZ and varZ of sum_{i != j} W_ij S_ij from dense copies of S and W
    centered off the diagonal (Daniels 1944; Mantel 1967)."""
    n = S.shape[0]
    pairs = n * (n - 1)
    S, W = S.copy(), W.copy()
    np.fill_diagonal(S, 0.0)
    np.fill_diagonal(W, 0.0)
    z = float(np.vdot(W, S))
    s_bar, w_bar = S.sum() / pairs, W.sum() / pairs
    S -= s_bar
    W -= w_bar
    np.fill_diagonal(S, 0.0)
    np.fill_diagonal(W, 0.0)
    a2, b2 = float(np.vdot(W, W)), float(np.vdot(S, S))
    a_row, b_row = W.sum(axis=1), S.sum(axis=1)
    a3, b3 = float(a_row @ a_row), float(b_row @ b_row)
    var = (
        2.0 * a2 * b2 / (n * (n - 3))
        + 4.0 * (n + 1) * a3 * b3 / (n * (n - 1) * (n - 2) * (n - 3))
        - 4.0 * (a2 * b3 + a3 * b2) / (n * (n - 2) * (n - 3))
    )
    return z, pairs * w_bar * s_bar, var


def long_double_centered_moments(S: np.ndarray, profile: np.ndarray):
    """Z - EZ and varZ in long double, one row of the centered S and W at a
    time, as a reference for float64 code."""
    ld = np.longdouble
    n = S.shape[0]
    pairs = n * (n - 1)
    index = np.arange(n)
    off = ~np.eye(n, dtype=bool)
    s_bar = sum(S[i][off[i]].astype(ld).sum() for i in range(n)) / pairs
    w = profile.astype(ld)
    w_bar = (2 * (n - index) * w).sum() / pairs
    zc = a2 = b2 = ld(0)
    a_row, b_row = np.zeros(n, ld), np.zeros(n, ld)
    for i in range(n):
        a = w[np.abs(index - i)] - w_bar
        b = S[i].astype(ld) - s_bar
        a[i] = b[i] = 0
        zc += (a * b).sum()
        a2 += (a * a).sum()
        b2 += (b * b).sum()
        a_row[i], b_row[i] = a.sum(), b.sum()
    a3, b3 = (a_row * a_row).sum(), (b_row * b_row).sum()
    n = ld(n)
    var = (
        2 * a2 * b2 / (n * (n - 3))
        + 4 * (n + 1) * a3 * b3 / (n * (n - 1) * (n - 2) * (n - 3))
        - 4 * (a2 * b3 + a3 * b2) / (n * (n - 2) * (n - 3))
    )
    return zc, var


def long_double_ratios(S: np.ndarray):
    """ratio1, ratio2 and ratio3 of regularity_diagnostics in long double,
    one row of the centered S at a time, as a reference for float64 code."""
    ld = np.longdouble
    n = S.shape[0]
    off = ~np.eye(n, dtype=bool)
    s_bar = sum(S[i][off[i]].astype(ld).sum() for i in range(n)) / (n * (n - 1))
    b2 = top = ld(0)
    abs_rows = np.zeros(n, ld)
    for i in range(n):
        b = np.abs(S[i].astype(ld) - s_bar)
        b[i] = 0
        b2 += (b * b).sum()
        abs_rows[i] = b.sum()
        top = max(top, b.max())
    return n * top * top / b2, abs_rows.max() ** 2 / (n * b2), (abs_rows * abs_rows).sum() / (n * b2)


def _masked_uniform(rng, p: int, low: float, high: float, band_div: float) -> np.ndarray:
    a = rng.uniform(low, high, size=(p, p))
    idx = np.arange(p)
    return np.where(np.abs(idx[:, None] - idx[None, :]) <= int(p // band_div), a, 0.0)


def var1_per_step(spec) -> np.ndarray:
    """The last n rows of a banded VAR(1), drawn like ``generate`` (A, then the
    innovations below one zero row) and recursed with ``a @ prev`` per row."""
    rng = np.random.default_rng(spec.seed)
    a = _masked_uniform(rng, spec.p, spec.a_low, spec.a_high, spec.band_div)
    x = np.zeros((1 + spec.burn_in + spec.n, spec.p))
    rng.standard_normal(out=x[1:])
    for prev, row in zip(x, x[1:]):
        row += a @ prev
    return x[-spec.n :]


def svar_per_step(spec) -> np.ndarray:
    """The last n rows of a seasonal VAR, drawn like ``generate`` (A, B, then
    the innovations below seasonal_lag + 1 zero rows) and recursed one row at
    a time, with one dense matrix-vector product for each of its three terms."""
    rng = np.random.default_rng(spec.seed)
    a = _masked_uniform(rng, spec.p, spec.a_low, spec.a_high, spec.band_div)
    b = _masked_uniform(rng, spec.p, spec.b_low, spec.b_high, spec.band_div)
    ab = a @ b
    lag = spec.seasonal_lag
    x = np.zeros((lag + 1 + spec.burn_in + spec.n, spec.p))
    rng.standard_normal(out=x[lag + 1 :])
    # rows t, t-1, t-lag and t-lag-1 of the history, as views
    for row, back1, back_lag, back_lag1 in zip(x[lag + 1 :], x[lag:], x[1:], x):
        row += b @ back1
        row += a @ back_lag
        row -= ab @ back_lag1
    return x[-spec.n :]
