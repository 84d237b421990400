"""Series validation, the similarity matrix, lag weights and moment sums.

Lag weights stay a Toeplitz profile, so their sums cost O(n). S stays
pdist's condensed vector of the pairs i < j, read in one centered walk over
blocks of rows, which yields every sum the permutation moments and
regularity ratios need (see MomentSummary).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .errors import InvalidValue, ShapeMismatch, TooFewObservations
from .kernels import KernelSpec, pairwise_similarity
from .types import MomentSummary, ObservationSeries, SimilarityMatrix, WeightMatrix
from .weights import WeightSpec, weight_profile

Kernel = Union[KernelSpec, Callable[[np.ndarray, np.ndarray], float]]

# a walk over the pairs (moment sums, permutation draws) takes about this
# many at a time
_BATCH_PAIRS = 1 << 16


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
        return pairwise_similarity(kernel, series)
    n = series.n
    raw = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            raw[i, j] = kernel(series.data[i], series.data[j])
    if not np.isfinite(raw).all():
        raise InvalidValue("user kernel produced NaN or infinite similarity")
    return SimilarityMatrix.from_square((raw + raw.T) / 2.0)


def build_weight_matrix(n: int, spec: WeightSpec) -> WeightMatrix:
    """Lag weights w(|i-j|) for n observations, held as the profile w(0..n-1)."""
    if n < 2:
        raise TooFewObservations(f"weight matrix needs n >= 2, got {n}")
    return WeightMatrix(weight_profile(spec, np.arange(n)), spec)


def moment_summary(S: SimilarityMatrix, W: WeightMatrix) -> MomentSummary:
    """Centered off-diagonal sums feeding the permutation-null moments.

    Lag t occurs 2(n-t) times, so with a(t) = w(t) - w_bar (a(0) = 0) and
    c = cumsum(a), w2 = 2 sum_t (n-t) a(t)^2 and w_row = c + c[::-1].

    The S sums come from one walk over S.condensed in blocks of
    _BATCH_PAIRS // n whole rows, so of at most _BATCH_PAIRS pairs. A block
    is centered by s1 / pairs; each pair i < j adds to the row sums at i and
    at j, and to the lag sum D_(j-i), so Z - EZ = 2 sum_t a(t) D_t needs no
    n x n weight. The block's absolute values then give the regularity
    sums. Nothing n x n is made.
    """
    if S.n != W.n:
        raise ShapeMismatch(f"dimension mismatch: S is {S.n}x{S.n}, W is {W.n}x{W.n}")
    n = S.n
    pairs = n * (n - 1)
    index = np.arange(n)
    lag_count = 2.0 * (n - index)
    w1 = float(lag_count @ W.profile)
    a = W.profile - w1 / pairs
    a[0] = 0.0
    c = np.cumsum(a)
    w_row = c + c[::-1]

    s1 = 2.0 * float(S.condensed.sum())
    m0 = s1 / pairs
    # row i's pairs (i, i+1..n-1) start at starts[i]; the last row has none
    starts = index * (2 * n - index - 1) // 2
    step = max(1, _BATCH_PAIRS // n)
    s_row, s_abs_row, lag_sums = np.zeros((3, n))
    s2, s_abs_max = 0.0, 0.0
    for r0 in range(0, n - 1, step):
        r1 = min(r0 + step, n - 1)
        lo, hi = starts[r0], starts[r1]
        block = S.condensed[lo:hi] - m0
        heads = starts[r0:r1] - lo
        lengths = n - 1 - index[r0:r1]
        lags = np.arange(hi - lo) - np.repeat(heads - 1, lengths)
        cols = lags + np.repeat(index[r0:r1], lengths)
        s_row[r0:r1] += np.add.reduceat(block, heads)
        s_row += np.bincount(cols, block, n)
        lag_sums += np.bincount(lags, block, n)
        # einsum sums in numpy: a BLAS dot may thread, which costs more
        # than it saves on one block and stalls when the cores are busy
        s2 += float(np.einsum("i,i->", block, block))
        np.abs(block, out=block)
        s_abs_row[r0:r1] += np.add.reduceat(block, heads)
        s_abs_row += np.bincount(cols, block, n)
        s_abs_max = max(s_abs_max, float(block.max()))
    # m0 carries the rounding of a large sum; m is the mean the centered
    # pairs still hold, and s_row and s2 are corrected to the exact mean. zc
    # needs no correction: A sums to zero, so m drops out of sum A_ij B_ij,
    # and with a in place of w its terms do not cancel to a small difference
    m = float(s_row.sum()) / pairs
    s_row -= (n - 1) * m
    return MomentSummary(
        w1=w1,
        w2=float(lag_count @ (a * a)),
        w3=float(w_row @ w_row),
        w_row=w_row,
        s1=s1,
        s2=2.0 * s2 - pairs * m * m,
        s3=float(s_row @ s_row),
        s_row=s_row,
        s_abs_row=s_abs_row,
        s_abs_max=s_abs_max,
        zc=2.0 * float(lag_sums @ a),
    )
