"""Series validation, the similarity matrix, lag weights and moment sums.

Lag weights stay a Toeplitz profile, so their sums cost O(n). S is read
through one copy centered off the diagonal, which yields every sum the
permutation moments and regularity ratios need (see MomentSummary).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .errors import InvalidValue, ShapeMismatch, TooFewObservations
from .kernels import KernelSpec, pairwise_similarity
from .types import MomentSummary, ObservationSeries, SimilarityMatrix, WeightMatrix
from .weights import WeightSpec, weight_profile

Kernel = Union[KernelSpec, Callable[[np.ndarray, np.ndarray], float]]


def validate_series(raw, kind: str) -> ObservationSeries:
    """Turn untyped tabular input into a validated series.

    ``raw`` is any nested sequence or array: (n, p) for vector kind,
    (n, rows, cols) for matrix kind, (n, grid_len) for function/quantile.
    Requires n >= 4, the minimum the analytic test supports.
    """
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        # ragged rows raise ValueError on conversion in recent numpy
        if "inhomogeneous" in str(exc) or "sequence" in str(exc):
            raise ShapeMismatch(f"rows have inconsistent shapes: {exc}") from None
        raise InvalidValue(f"input is not numeric: {exc}") from None
    if arr.dtype == object:
        raise ShapeMismatch("rows have inconsistent shapes")
    if arr.ndim >= 1 and arr.shape[0] < 4:
        raise TooFewObservations(
            f"need at least 4 observations, got {arr.shape[0] if arr.ndim else 0}"
        )
    return ObservationSeries(kind, arr)


def build_similarity_matrix(series: ObservationSeries, kernel: Kernel) -> SimilarityMatrix:
    """Pairwise similarity matrix.

    ``kernel`` is either a KernelSpec, exactly symmetric already, or a
    callable s(x, y) -> float, which need not be and is symmetrized as
    (s(i,j) + s(j,i)) / 2. The diagonal holds the kernel's self-similarity;
    moment sums exclude it downstream.
    """
    if isinstance(kernel, KernelSpec):
        return SimilarityMatrix(pairwise_similarity(kernel, series))
    n = series.n
    raw = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            raw[i, j] = kernel(series.data[i], series.data[j])
    if not np.isfinite(raw).all():
        raise InvalidValue("user kernel produced NaN or infinite similarity")
    return SimilarityMatrix((raw + raw.T) / 2.0)


def build_weight_matrix(n: int, spec: WeightSpec) -> WeightMatrix:
    """Lag weights w(|i-j|) for n observations, held as the profile w(0..n-1)."""
    if n < 2:
        raise TooFewObservations(f"weight matrix needs n >= 2, got {n}")
    return WeightMatrix(weight_profile(spec, np.arange(n)), spec)


def moment_summary(S: SimilarityMatrix, W: WeightMatrix) -> MomentSummary:
    """Centered off-diagonal sums feeding the permutation-null moments.

    Lag t occurs 2(n-t) times, so with a(t) = w(t) - w_bar (a(0) = 0) and
    c = cumsum(a), w2 = 2 sum_t (n-t) a(t)^2 and w_row = c + c[::-1]. The
    S sums come from one centered copy, overwritten by its absolute value
    for the regularity sums.
    """
    if S.n != W.n:
        raise ShapeMismatch(f"dimension mismatch: S is {S.n}x{S.n}, W is {W.n}x{W.n}")
    n = S.n
    pairs = n * (n - 1)
    lag_count = 2.0 * (n - np.arange(n))
    w1 = float(lag_count @ W.profile)
    a = W.profile - w1 / pairs
    a[0] = 0.0
    c = np.cumsum(a)
    w_row = c + c[::-1]

    sc = S.values.copy()
    np.fill_diagonal(sc, 0.0)
    s1 = float(sc.sum())
    sc -= s1 / pairs
    np.fill_diagonal(sc, 0.0)
    s_row = sc.sum(axis=1)
    # s1 / pairs carries the rounding of a large sum; m is the mean the copy
    # still holds, and each sum below is corrected to the exact mean
    m = float(s_row.sum()) / pairs
    s_row -= (n - 1) * m
    s2 = float(np.vdot(sc, sc)) - pairs * m * m
    zc = float(np.einsum("ij,ij->", W.values, sc)) - w1 * m
    np.abs(sc, out=sc)
    s_abs_row = sc.sum(axis=1)
    return MomentSummary(
        w1=w1,
        w2=float(lag_count @ (a * a)),
        w3=float(w_row @ w_row),
        w_row=w_row,
        s1=s1,
        s2=s2,
        s3=float(s_row @ s_row),
        s_row=s_row,
        s_abs_row=s_abs_row,
        s_abs_max=float(sc.max()),
        zc=zc,
    )
