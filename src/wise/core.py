"""Series validation, the similarity matrix, lag weights and moment sums.

Lag weights stay a Toeplitz profile, so their sums cost O(n). S stays
pdist's condensed vector of the pairs i < j, read in one centered walk over
blocks of rows that reads no weight and yields every sum of S the moments,
the regularity ratios and Z - EZ need (see MomentSummary).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

import numpy as np

from ._grammar import _check_count
from .errors import InvalidValue, ShapeMismatch, TooFewObservations
from .kernels import KernelSpec, pairwise_similarity
from .types import MomentSummary, ObservationSeries, SimilarityMatrix, WeightMatrix
from .weights import WeightSpec, weight_profile

Kernel = Union[KernelSpec, SimilarityMatrix]

# a walk over the pairs (moment sums, permutation draws) takes about this
# many at a time
_BATCH_PAIRS = 1 << 16


def validate_series(raw, kind: str) -> ObservationSeries:
    """Turn untyped tabular input into a validated series.

    ``raw`` is any nested sequence or array: (n, p) for vector kind,
    (n, rows, cols) for matrix kind, (n, grid_len) for function/quantile.
    Requires n >= 4, the minimum the analytic test supports.
    """
    series = ObservationSeries(kind, raw)
    if series.n < 4:
        raise TooFewObservations(f"need at least 4 observations, got {series.n}")
    return series


def build_similarity_matrix(series: ObservationSeries, kernel: Kernel) -> SimilarityMatrix:
    """Pairwise similarity matrix.

    ``kernel`` is either a KernelSpec, whose matrix is computed here, or a
    precomputed SimilarityMatrix of the series' n observations, returned as
    it is. The diagonal holds the kernel's self-similarity; moment sums
    exclude it downstream.
    """
    if isinstance(kernel, KernelSpec):
        return pairwise_similarity(kernel, series)
    if not isinstance(kernel, SimilarityMatrix):
        raise InvalidValue(
            f"kernel must be a KernelSpec or a SimilarityMatrix, got {type(kernel).__name__}"
        )
    if kernel.n != series.n:
        raise ShapeMismatch(f"S is {kernel.n}x{kernel.n}, but the series has n={series.n}")
    return kernel


def build_weight_matrix(n: int, spec: WeightSpec) -> WeightMatrix:
    """Lag weights w(|i-j|) for n observations, held as the profile w(0..n-1)."""
    if not isinstance(spec, WeightSpec):
        raise InvalidValue(f"weight must be a WeightSpec, got {type(spec).__name__}")
    n = _check_count(n, "n")
    if n < 2:
        raise TooFewObservations(f"weight matrix needs n >= 2, got {n}")
    return WeightMatrix(weight_profile(spec, np.arange(n)))


@lru_cache(maxsize=8)
def _upper(rows: int, cols: int) -> np.ndarray:
    """Read-only mask of the entries (r, c) with c >= r."""
    mask = np.arange(cols) >= np.arange(rows)[:, None]
    mask.flags.writeable = False
    return mask


def moment_summary(S: SimilarityMatrix) -> MomentSummary:
    """Centered off-diagonal sums of S feeding the permutation-null moments.

    One walk over S.condensed in blocks of _BATCH_PAIRS // n whole rows, so
    of at most _BATCH_PAIRS pairs. A block is centered by s1 / pairs and
    scattered into a zero grid of row stride n - 1: row r holds pair
    (r0 + r, r0 + 1 + c) at column c >= r. Each pair i < j adds to the row
    sums at i and at j, which are the grid's row and column sums, and to the
    lag sum D_(j-i), the column sums of the same grid read with row stride
    n. The grid's absolute values then give the regularity sums. Nothing
    n x n is made, and every sum is taken on the calling thread in the same
    order whatever the thread count.
    """
    n = S.n
    if n < 2:
        raise TooFewObservations(f"moment sums need n >= 2, got {n}")
    pairs = n * (n - 1)
    s1 = 2.0 * float(S.condensed.sum())
    m0 = s1 / pairs
    width = n - 1
    step = min(width, max(1, _BATCH_PAIRS // n))
    # one spare zero row: the lag view of the last row runs into it. Row r's
    # lags past the block's width read zeros, in row r to the right of the
    # pairs or in row r + 1 left of column r + 1
    grid = np.zeros((step + 1, width))
    lag_rows = grid.reshape(-1)[: step * n].reshape(step, n)
    upper = _upper(step, width)
    centered = np.empty(step * width)
    s_row, s_abs_row, lag_sums = np.zeros((3, n))
    s2, s_abs_max, lo = 0.0, 0.0, 0
    for r0 in range(0, width, step):
        cols = width - r0
        k = min(step, cols)
        hi = lo + k * cols - k * (k - 1) // 2
        block = np.subtract(S.condensed[lo:hi], m0, out=centered[: hi - lo])
        lo = hi
        # einsum sums in numpy: a BLAS dot may thread, which costs more
        # than it saves on one block and stalls when the cores are busy
        s2 += float(np.einsum("i,i->", block, block))
        # the columns the last block held past this one's width
        grid[:, cols : cols + step] = 0.0
        rows = grid[:k, :cols]
        rows[upper[:k, :cols]] = block
        s_row[r0 : r0 + k] += rows.sum(1)
        s_row[r0 + 1 :] += rows.sum(0)
        lag_sums[1 : cols + 1] += lag_rows[:k, :cols].sum(0)
        np.abs(rows, out=rows)
        s_abs_row[r0 : r0 + k] += rows.sum(1)
        s_abs_row[r0 + 1 :] += rows.sum(0)
        s_abs_max = max(s_abs_max, float(rows.max()))
    # m0 carries the rounding of a large sum; m is the mean the centered
    # pairs still hold, and s_row and s2 are corrected to the exact mean. D_t
    # needs no correction: a centered weight sums to zero over the pairs, so
    # m drops out of 2 sum_t a(t) D_t, whose terms do not cancel as w's would
    m = float(s_row.sum()) / pairs
    s_row -= (n - 1) * m
    return MomentSummary(
        s1=s1,
        s2=2.0 * s2 - pairs * m * m,
        s3=float(s_row @ s_row),
        s_row=s_row,
        s_abs_row=s_abs_row,
        s_abs_max=s_abs_max,
        lag_sums=lag_sums,
    )
