"""Series validation, the similarity matrix, lag weights and moment sums.

Lag weights stay a Toeplitz profile, so their sums cost O(n). S is read in
one centered walk over the tiles of kernels._tiles, whose rows depend on n
alone. The walk reads no weight and yields every sum of S the moments, the
regularity ratios and Z - EZ need (see MomentSummary). A held S, pdist's
condensed vector of the pairs i < j, is walked on the calling thread; from
_STREAM_PAIRS pairs on, the analytic test walks the kernel's tiles as its
workers make them and never holds S (kernel_summary).

Only the absolute row sums need the mean m of the pairs before their pass.
So from _STREAM_PAIRS pairs on, held or not, the walk is centered at c, the
mean of a balanced pilot: the pairs within groups of _PILOT_ROWS rows of a
fixed permutation. The linear and quadratic sums are corrected to m at the
end, and the absolute ones through the pairs in a band about c (see
_summary). Below that size a held S is centered at its mean.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Optional, Tuple, Union

import numpy as np

from ._grammar import _check_count
from .errors import InvalidValue, ShapeMismatch, TooFewObservations
from .kernels import (
    KernelSpec,
    _flat,
    _row_start,
    _rows,
    _scatter,
    _tile,
    _tiles,
    pairwise_similarity,
    pilot_similarity,
    thread_count,
    tile_pass,
)
from .types import MomentSummary, ObservationSeries, SimilarityMatrix, WeightMatrix
from .weights import WeightSpec, weight_profile

Kernel = Union[KernelSpec, SimilarityMatrix]


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
    if not isinstance(series, ObservationSeries):
        raise InvalidValue(f"series must be an ObservationSeries, got {type(series).__name__}")
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


# a pairwise kernel of this many pairs or more is not held for the analytic
# test: its walk runs on the kernel's tiles (8 MiB of S)
_STREAM_PAIRS = 2**20
# rows per group of the pilot: every row of a group of 32 sits in 31 pilot pairs
_PILOT_ROWS = 32
# the band of each tile holds the pairs within this many standard errors of
# the pilot mean of the center, ...
_BAND_SE = 8.0
# ... and at most an eighth of the tile's pairs plus this many, or the walk
# is taken again about the exact mean
_BAND_SPARE = 1024
# tiles whose bands are applied at once at the end of the walk
_BAND_TILES = 64


def _streams(kernel: Kernel, n: int) -> bool:
    """Whether the analytic test walks this kernel's tiles without holding S."""
    return (
        isinstance(kernel, KernelSpec)
        and kernel.family != "knn_affinity"
        and n * (n - 1) // 2 >= _STREAM_PAIRS
    )


@lru_cache(maxsize=8)
def _pilot_groups(n: int) -> Tuple[np.ndarray, ...]:
    """Groups of _PILOT_ROWS rows of a fixed permutation of n, each sorted; the
    last holds the rest."""
    rows = np.random.default_rng(0).permutation(n)
    groups = tuple(np.sort(rows[a : a + _PILOT_ROWS]) for a in range(0, n, _PILOT_ROWS))
    for g in groups:
        g.flags.writeable = False
    return groups


@lru_cache(maxsize=8)
def _pilot_index(n: int) -> np.ndarray:
    """Condensed positions of the pilot pairs, in kernels.pilot_similarity's order."""
    index = []
    for g in _pilot_groups(n):
        i, j = (g[r] for r in np.triu_indices(len(g), 1))
        index.append(_row_start(i, n) + j - i - 1)
    out = np.concatenate(index)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)
def _lower(k: int) -> np.ndarray:
    """Read-only mask of the entries (r, c) with c < r of a k x k head."""
    mask = np.arange(k) < np.arange(k)[:, None]
    mask.flags.writeable = False
    return mask


def _finite(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidValue("similarity matrix contains NaN or infinite entries")


# the band of a walk about the mean: no pair
_NO_BAND = (np.zeros(0, np.int32), np.zeros(0))


def _tile_sums(buffer: np.ndarray, k: int, cols: int, c: float, eps: Optional[float]):
    """The walk's sums of one tile, in kernels._tile's layout, about c.

    Returns the sum and extremes of S over the tile's pairs, s2 of u = S - c,
    the rows' and the columns' sums of u, |u| and sign u (3 x k and 3 x
    cols), the lag sums D_1 .. D_cols of u, and the band: the flat positions
    and values of the pairs with |u| < eps, or None past its cap. With eps
    None, c is the mean of S, and the signs and the band are not taken.
    buffer is overwritten.
    """
    rect = buffer[: k * cols].reshape(k, cols)
    head, lower = rect[:, :k], _lower(k)
    # left of the pairs lie the diagonal and pairs of other tiles: a pair of
    # this tile stands in for them in the extremes, then 0 in every sum
    np.copyto(head, rect[0, 0], where=lower)
    high, low = float(rect.max()), float(rect.min())
    _finite(high, low)
    np.copyto(head, 0.0, where=lower)
    total = float(rect.sum())
    np.subtract(rect, c, out=rect)
    np.copyto(head, 0.0, where=lower)
    buffer[k * cols :] = 0.0
    # with row stride cols + 1, column x holds the pairs at lag x + 1; a row
    # runs on into the zeros left of the next row's pairs, the last one into
    # the spare row
    lags = buffer[: k * (cols + 1)].reshape(k, cols + 1)[:, :cols].sum(0)
    rows, columns = np.zeros((3, k)), np.zeros((3, cols))
    rows[0], columns[0] = rect.sum(1), rect.sum(0)
    # pairwise, not running: the variance's b = s2 - 2 s3 / (n - 2) cancels
    work = np.multiply(rect, rect)
    s2 = float(work.sum())
    np.abs(rect, out=work)
    rows[1], columns[1] = work.sum(1), work.sum(0)
    if eps is None:
        return total, high, low, s2, rows, columns, lags, _NO_BAND
    inside = work < eps
    inside[:, :k][lower] = False
    at = np.flatnonzero(inside)
    band = None
    if len(at) <= k * cols // 8 + _BAND_SPARE:
        band = (at.astype(np.int32), rect.reshape(-1)[at])
    np.sign(rect, out=work)
    rows[2], columns[2] = work.sum(1), work.sum(0)
    return total, high, low, s2, rows, columns, lags, band


def _pilot_center(pilot: np.ndarray) -> Tuple[float, float]:
    """The center c and band margin eps of a walk from the pilot's values:
    their mean (their one value, if they hold one) and _BAND_SE standard
    errors of it."""
    c = float(pilot.mean())
    _finite(c)
    d = pilot - c
    spread = math.sqrt(float(np.einsum("i,i->", d, d)) / len(pilot))
    if spread == 0.0:
        c = float(pilot[0])
    return c, _BAND_SE * spread / math.sqrt(len(pilot))


def _summary(n: int, make, workers: int, c: float, eps: Optional[float]) -> MomentSummary:
    """MomentSummary from the _tile_sums of each tile [t, u) of _tiles(n), made
    by make(t, u) in _tile's layout, one tile per run of tile_pass.

    The tiles' sums are added here in tile order, so they do not depend on
    which thread took which tile. With delta = m - c, m the mean of the
    pairs, the sums of u = S - c become sums of B = S - m: the row and lag
    sums lose delta per pair and s2 loses pairs * delta^2. The absolute row
    sums are sum |u| - delta sum sign u, plus |u - delta| - |u| + delta sign u
    on the pairs where u - delta and u differ in sign, all in the band
    |u| < eps while |delta| < eps. When delta is not that small or a band
    passes its cap, the walk is taken again about m with eps None. With eps
    None, c is m but for rounding, and |u| stands for |B|, as delta is.
    """
    pairs = n * (n - 1)
    bounds = _tiles(n)
    runs = [[span] for span in zip(bounds, bounds[1:])]

    def visit(buffer, t, u):
        return _tile_sums(buffer, u - t, n - 1 - t, c, eps)

    while True:
        sums = np.zeros((3, n))
        lag_sums = np.zeros(n)
        total, s2, high, low = 0.0, 0.0, -math.inf, math.inf
        bands = []
        for t, (tile,) in zip(bounds, tile_pass(make, runs, visit, workers)):
            part, hi, lo, sq, rows, columns, lags, band = tile
            total += part
            s2 += sq
            high, low = max(high, hi), min(low, lo)
            sums[:, t : t + rows.shape[1]] += rows
            sums[:, t + 1 :] += columns
            lag_sums[1 : len(lags) + 1] += lags
            if band is None:
                bands = None
            elif bands is not None and len(band[0]):
                # copied here, so a worker's allocator does not keep the
                # space of every tile's band until the walk ends
                bands.append((t, band[0].copy(), band[1].copy()))
        delta = float(sums[0].sum()) / pairs
        if eps is None or bands is not None and (abs(delta) < eps or delta == 0.0):
            break
        c, eps = 2.0 * total / pairs, None
    s1 = 2.0 * total
    m = s1 / pairs
    s_row = sums[0] - (n - 1) * delta
    lag_sums[1:] -= delta * (n - np.arange(1, n))
    s_abs_row = sums[1] - delta * sums[2]
    # a run of _BAND_TILES tiles at a time, so the band is not copied whole
    for a in range(0, len(bands), _BAND_TILES):
        run = bands[a : a + _BAND_TILES]
        i = np.concatenate([t + at // (n - 1 - t) for t, at, _ in run])
        j = np.concatenate([t + 1 + at % (n - 1 - t) for t, at, _ in run])
        u = np.concatenate([u for _, _, u in run])
        change = np.abs(u - delta) - np.abs(u) + delta * np.sign(u)
        s_abs_row += np.bincount(i, change, n) + np.bincount(j, change, n)
    return MomentSummary(
        s1=s1,
        s2=2.0 * s2 - pairs * delta * delta,
        s3=float(s_row @ s_row),
        s_row=s_row,
        s_abs_row=s_abs_row,
        s_abs_max=max(high - m, m - low),
        lag_sums=lag_sums,
    )


def moment_summary(S: SimilarityMatrix) -> MomentSummary:
    """Centered off-diagonal sums of S feeding the permutation-null moments.

    The walk of _summary over S's tiles, each scattered from S.condensed
    into the layout of the kernel's tiles, about the pilot's center from
    _STREAM_PAIRS pairs on, so a held S gives the numbers that
    kernel_summary gives without holding S; below that, about the mean of
    S.condensed. Nothing n x n is made. Its tiles are copies of S, which
    measured faster on the calling thread than on a pool.
    """
    if not isinstance(S, SimilarityMatrix):
        raise InvalidValue(f"S must be a SimilarityMatrix, got {type(S).__name__}")
    n = S.n
    if n < 2:
        raise TooFewObservations(f"moment sums need n >= 2, got {n}")

    def make(t, u):
        return _scatter(S.condensed[_row_start(t, n) : _row_start(u, n)], u - t, n - 1 - t)

    if n * (n - 1) // 2 >= _STREAM_PAIRS:
        return _summary(n, make, 1, *_pilot_center(S.condensed[_pilot_index(n)]))
    return _summary(n, make, 1, float(S.condensed.sum()) / len(S.condensed), None)


def kernel_summary(series: ObservationSeries, spec: KernelSpec) -> MomentSummary:
    """moment_summary of the kernel's S, taken on the kernel's tiles as
    thread_count() workers make them, so S is never held."""
    if not isinstance(series, ObservationSeries):
        raise InvalidValue(f"series must be an ObservationSeries, got {type(series).__name__}")
    if not isinstance(spec, KernelSpec):
        raise InvalidValue(f"kernel must be a KernelSpec, got {type(spec).__name__}")
    if spec.family == "knn_affinity":
        raise InvalidValue(
            "kernel knn_affinity is defined at matrix level only, so its S cannot be"
            " walked tile by tile; take moment_summary of its held S"
        )
    n = series.n
    if n < 2:
        raise TooFewObservations(f"moment sums need n >= 2, got {n}")

    rows = _rows(spec, _flat(spec, series))
    center = _pilot_center(pilot_similarity(spec, rows, _pilot_groups(n)))
    return _summary(n, partial(_tile, spec, rows), thread_count(), *center)
