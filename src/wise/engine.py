"""Test statistic, exact permutation-null moments, and decision procedures.

The statistic aggregates the similarity field against lag weights,

    Z = sum_i sum_j w(|i-j|) S(X_i, X_j),

and is calibrated against the permutation null: the distribution of Z when
the series is re-indexed by a uniformly random permutation. Its mean and
variance under that null have closed forms in the off-diagonal sums
(w1, w2, w3, S1, S2, S3); the variance is two nonnegative terms in the
doubly centered weights and similarities, so the standardized statistic

    Z_G = (Z - EZ) / sqrt(varZ)

can be compared to N(0, 1) without any resampling. A seeded Monte-Carlo
permutation test is available as a cross-check, and a Mahalanobis-type
statistic combines several weight choices into one test, standardized by
their exact covariance: the same closed form, polarized between weights.
Both tests count one seeded stream of draws by one tie rule (_permutation_p).
"""

from __future__ import annotations

import math
import numbers
from collections import abc
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import SeedSequence, default_rng
from scipy.special import ndtr

from ._grammar import _check_count
from .core import (
    _streams,
    build_similarity_matrix,
    build_weight_matrix,
    kernel_summary,
    moment_summary,
)
from .errors import DegenerateVariance, InvalidValue, ShapeMismatch, TooFewObservations
from .kernels import _fill_in_forks, _row_start, thread_count
from .types import MomentSummary, ObservationSeries, SimilarityMatrix, WeightMatrix

# each side as the statistic whose upper tail rejects
_ORIENT = {"two_sided": np.abs, "upper": np.positive, "lower": np.negative}
SIDES = tuple(_ORIENT)

# the centered similarity field counts as zero when its root mean square is at
# most this fraction of the raw off-diagonal field's: about 450 ulps, so the
# kernel's rounding of a constant field is caught, while a field whose spread
# is 1e-11 of its level still holds digits and is tested
_DEGENERATE_RMS_REL = 1e-13
# a doubly centered squared norm below -_CLAMP_REL of its raw one is beyond
# rounding: the walk's sums or the profiles were misfed
_CLAMP_REL = 1e-9
# permuted Z - EZ this fraction of its bound from the observed value is a tie
_TIE_REL = 1e-10
# eigenvalues of the aggregate's covariance below this fraction of the largest
# are zero: dependent weights (any three at n = 4) leave one near m * eps of it
_PINV_REL = 1e-10
# draws x folded pairs from which the draws are split across forked
# processes; below it a fork's round trip (about 4 ms) outweighs the work
_FORK_PAIR_DRAWS = 2**26
# the permutation draws bin about this many pairs at a time
_BATCH_PAIRS = 1 << 16
# draws per seeded generator of the permutation stream; it enters every
# seeded p, so it is fixed and depends on nothing else
_STREAM_BLOCK = 64


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # not a pytest class, despite the name

    alpha: float = 0.05
    method: str = "analytic"
    permutations: int = 1000
    seed: int = 0
    sidedness: str = "two_sided"

    def __post_init__(self):
        if not (isinstance(self.alpha, numbers.Real) and 0.0 < self.alpha < 1.0):
            raise InvalidValue(f"alpha must be a real number in (0,1), got {self.alpha!r}")
        if self.method not in ("analytic", "permutation"):
            raise InvalidValue(f"method must be analytic or permutation, got {self.method!r}")
        B = _check_count(self.permutations, "permutations")
        if self.method == "permutation" and B < 100:
            raise InvalidValue(f"permutation method needs B >= 100, got {B}")
        if self.method == "permutation" and 8 * B > np.iinfo(np.intp).max:
            raise InvalidValue(f"B={B} permutations: too many for numpy to index")
        if not 0 <= _check_count(self.seed, "seed") < 2**64:  # the streams' seed range
            raise InvalidValue(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.sidedness not in SIDES:
            raise InvalidValue(f"sidedness must be one of {SIDES}, got {self.sidedness!r}")


@dataclass(frozen=True)
class DiagnosticsReport:
    """Observable surrogates for the normal-approximation conditions.

    ratio1..ratio3 are the three centered-similarity ratios whose smallness
    underwrites the N(0,1) limit of Z_G; values above 1 trigger warnings.
    alignment = (Z - EZ)/sqrt(n) measures how strongly the weight pattern
    lines up with the observed similarity field (near 0 under independence,
    diverging under matched dependence). It equals
    sum_{i != j} (W_ij - w_bar) S_ij / sqrt(n), since w_bar * S1 = EZ.
    """

    ratio1: float
    ratio2: float
    ratio3: float
    alignment: float
    warnings: Tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        obj = _json_reals(self, ("ratio1", "ratio2", "ratio3", "alignment"))
        return {**obj, "warnings": list(self.warnings)}


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    z: float
    e_z: float
    var_z: float
    z_g: float
    p_value: float
    reject: bool
    alpha: float
    method: str
    diagnostics: DiagnosticsReport

    def to_json_obj(self) -> dict:
        return {
            **_json_reals(self, ("z", "e_z", "var_z", "z_g", "p_value")),
            "reject": bool(self.reject),
            "alpha": float(self.alpha),
            "method": self.method,
            "diagnostics": self.diagnostics.to_json_obj(),
        }


def _json_reals(obj, names) -> dict:
    """The named float fields of obj, with NaN and infinities as None."""
    values = {name: float(getattr(obj, name)) for name in names}
    return {name: x if math.isfinite(x) else None for name, x in values.items()}


def _weight_sums(profiles: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(w1, w2, w3, A) of an (m, n) stack of profiles: lag t occurs 2(n-t) times,
    A's rows a(t) = w(t) - w_bar (a(0) = 0) are the centered weights, R their
    row sums c + c[::-1], and w2, w3 Gram matrices over the lag counts and of R."""
    n = profiles.shape[1]
    lag_count = 2.0 * (n - np.arange(n))
    w1 = profiles @ lag_count
    A = profiles - (w1 / (n * (n - 1)))[:, None]
    A[:, 0] = 0.0
    c = np.cumsum(A, axis=1)
    R = c + c[:, ::-1]
    return w1, (A[:, None] * A[None]) @ lag_count, R @ R.T, A


def _raw_moments(M: MomentSummary, profiles: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(EZ, cov, Z - EZ) of an (m, n) stack of profiles on the summary M of S.

    EZ = w1 * s_bar and Z - EZ = 2 sum_t a(t) D_t are m-vectors. cov is the
    m x m Daniels-Mantel covariance as two nonnegative terms (Mantel 1967;
    Hubert 1987), 2 b G / (n(n-3)) + 4 s3 w3 / ((n-1)(n-2)^2), where
    b = s2 - 2 s3 / (n-2) is the squared norm of the doubly centered S and
    G = w2 - 2 w3 / (n-2) the Gram matrix of the doubly centered weights;
    b and G's diagonal are clamped at 0 against rounding.
    """
    n, k = M.n, profiles.shape[1]
    if n < 4:
        raise TooFewObservations(f"closed-form variance needs n >= 4, got n={n}")
    if k != n:
        raise ShapeMismatch(f"dimension mismatch: S is {n}x{n}, W is {k}x{k}")
    w1, w2, w3, A = _weight_sums(profiles)
    b = M.s2 - 2.0 * M.s3 / (n - 2)
    G = w2 - 2.0 * w3 / (n - 2)
    g = G.diagonal()
    if b < -_CLAMP_REL * M.s2 or (g < -_CLAMP_REL * w2.diagonal()).any():
        raise InvalidValue(f"doubly centered norms {b} and {g.min()} are negative beyond rounding")
    np.fill_diagonal(G, np.maximum(g, 0.0))
    cov = 2.0 * max(b, 0.0) * G / (n * (n - 3)) + 4.0 * M.s3 * w3 / ((n - 1) * (n - 2) ** 2)
    return w1 * M.s1 / (n * (n - 1)), cov, 2.0 * (A @ M.lag_sums)


def _sigma_stream(seed: int, n: int, a: int, b: int):
    """sigma = pi^-1 of the seeded draws a to b - 1, one stream block at a time.

    Block j is a _STREAM_BLOCK x n tile of arange(n) whose rows
    default_rng(SeedSequence((seed, j))) shuffles in turn, so draw k is row
    k % _STREAM_BLOCK of block k // _STREAM_BLOCK. A range that starts or
    ends inside a block draws the whole block and yields only its own rows,
    so a draw does not depend on the range that asks for it.
    """
    identity = np.arange(n)
    for j in range(a // _STREAM_BLOCK, -(-b // _STREAM_BLOCK)):
        # intp rows take numpy's fastest shuffle
        rows = np.tile(identity, (_STREAM_BLOCK, 1))
        default_rng(SeedSequence((seed, j))).permuted(rows, axis=1, out=rows)
        first = j * _STREAM_BLOCK
        yield rows[max(a - first, 0) : b - first]


def _lag_sum_draws(s_pairs: np.ndarray, centered: np.ndarray, B: int, seed: int) -> np.ndarray:
    """Z - EZ per lag profile at B seeded draws, as a (B, m) array.

    s_pairs is S.condensed, the pairs a < b, and centered the (m, n) stack
    of centered weights a(t) = w(t) - w_bar, a(0) = 0, that _weight_sums
    returns. With sigma = pi^-1, Z(pi) - EZ = 2 sum_t a(t) D_t, where D_t
    sums S_ab over pairs with |sigma_a - sigma_b| = t (Mantel 1967), the
    formula the walk takes for the observed value. A common shift of the
    pairs drops out of it, so they are centered once, for precision only.
    Draw k's sigma is row k of _sigma_stream(seed, n, 0, B).

    The shifted pairs are folded once onto n // 2 rows of n: row t-1 holds
    the pairs (i, (i+t) mod n), so a draw reads sigma_(i+t) - sigma_i off
    the windows [sigma, sigma][t : t+n], with no gather per pair. For even
    n the second half of the last row repeats its first half and is
    zeroed. A draw bins the signed difference, shifted by n, on 2n bins,
    and weighs bin n +- t with 2a(t), so no absolute value is taken.

    A batch is a power-of-two slice of a stream block, so draw k sits in
    row k % size of its batch. From _FORK_PAIR_DRAWS draws x folded pairs
    on, the B draws are cut into thread_count() ranges of whole batches,
    filled side by side in forked processes (see _fill_in_forks); each draw
    keeps its row, so the draws are byte-identical at any worker count.
    """
    n = centered.shape[1]
    h = n // 2
    index = np.arange(n)
    # pair (a, a+d) is at starts[a] + d in pdist's order
    starts = _row_start(index, n) - 1
    fold = np.empty((h, n))
    for t in range(1, h + 1):
        fold[t - 1, : n - t] = s_pairs[starts[: n - t] + t]
        fold[t - 1, n - t :] = s_pairs[starts[:t] + n - t]
    fold -= s_pairs.mean()
    if n % 2 == 0:
        fold[-1, h:] = 0.0
    # a block of rows holds at most _BATCH_PAIRS pairs; at small n one
    # bincount takes a batch of draws, each on its own 2n bins
    step = max(1, min(h, _BATCH_PAIRS // n))
    size = 1 << (max(1, min(_STREAM_BLOCK, _BATCH_PAIRS // fold.size)).bit_length() - 1)
    weights = np.tile(fold, (size, 1, 1)) if size > 1 else fold[None]
    # int32 halves the traffic of the subtract; bins stay below 2n * size
    doubled = np.tile(index.astype(np.int32), (size, 2))
    sigma = doubled[:, :n]
    windows = sliding_window_view(doubled, n, axis=1)
    shift = (n * (1 + 2 * np.arange(size, dtype=np.int32)))[:, None]
    shifted = np.empty((size, n), dtype=np.int32)
    bins = np.empty((size, step, n), dtype=np.int32)
    mirrored = np.concatenate([np.zeros((len(centered), 1)), centered[:, :0:-1], centered], axis=1)
    w_cols = 2.0 * mirrored.T

    def lag_sums():
        doubled[:, n:] = sigma
        np.subtract(sigma, shift, out=shifted)
        d = np.zeros(2 * n * size)
        for r in range(0, h, step):
            k = min(step, h - r)
            block = bins[:, :k]
            np.subtract(windows[:, r + 1 : r + 1 + k], shifted[:, None], out=block)
            d += np.bincount(block.ravel(), weights[:, r : r + k].ravel(), 2 * n * size)
        return d.reshape(size, 2 * n) @ w_cols

    def fill(out, a, b):
        # a and every stream block start on a batch boundary
        at = a
        for rows in _sigma_stream(seed, n, a, b):
            for i in range(0, len(rows), size):
                k = min(size, len(rows) - i)
                sigma[:k] = rows[i : i + k]
                out[at : at + k] = lag_sums()[:k]
                at += k

    out = np.empty((B, centered.shape[0]))
    batches = -(-B // size)
    workers = min(thread_count(), batches) if B * fold.size >= _FORK_PAIR_DRAWS else 1
    bounds = [min(B, size * (batches * r // workers)) for r in range(workers + 1)]
    _fill_in_forks(fill, out, bounds)
    return out


def _permutation_p(S, M, profiles, config: TestConfig, stat, observed: float, slope) -> float:
    """(1 + count) / (B + 1) over the config's B seeded draws, the p of both tests.

    stat maps the (B, m) draws of Z - EZ to the statistic whose upper tail
    rejects. Draws that tie exactly sum in their own order (a knn field or a
    cosine weight holds few values), so one counts within tol = _TIE_REL
    sum_k |slope_k| bound_k of observed: slope is stat's gradient there, and
    bound_k = max|B_ij| sum_t 2(n-t)|w_k(t)| bounds |Z_k - EZ_k| under any draw.
    """
    B = config.permutations
    draws = _lag_sum_draws(S.condensed, _weight_sums(profiles)[3], B, config.seed)
    bounds = M.s_abs_max * ((2.0 * (M.n - np.arange(M.n))) @ np.abs(profiles.T))
    tol = _TIE_REL * float(np.abs(slope) @ bounds)
    return (1.0 + int(np.sum(stat(draws) >= observed - tol))) / (B + 1.0)


def _check_spread(M: MomentSummary) -> None:
    """Raise DegenerateVariance when the centered field is zero to rounding:
    the one degenerate rule of run_test and mahalanobis_aggregate."""
    # sum of squares of the raw off-diagonal field, as two non-negative terms
    raw_sq = M.s2 + M.s1**2 / (M.n * (M.n - 1))
    if M.s2 <= _DEGENERATE_RMS_REL**2 * raw_sq:
        raise DegenerateVariance("centered similarity field is identically zero")


def regularity_diagnostics(M: MomentSummary, zc: float) -> DiagnosticsReport:
    """Centered-similarity ratios plus the weight/similarity alignment.

    With Xt the off-diagonal centered similarity matrix (B in MomentSummary),

        ratio1 = n max(|Xt|)^2 / sum(Xt^2)
        ratio2 = max_i (sum_j |Xt_ij|)^2 / (n sum(Xt^2))
        ratio3 = sum_i (sum_j |Xt_ij|)^2 / (n sum(Xt^2))

    all three must vanish asymptotically for the normal approximation to be
    trustworthy; warnings fire on the heuristic threshold 1. alignment is
    zc / sqrt(n), with zc = Z - EZ from _raw_moments. Raises
    DegenerateVariance when Xt is zero to rounding (see _check_spread).
    """
    if not isinstance(M, MomentSummary):
        raise InvalidValue(f"M must be a MomentSummary, got {type(M).__name__}")
    n = M.n
    if n < 4:
        raise TooFewObservations(f"diagnostics need n >= 4, got n={n}")
    _check_spread(M)
    ratio1 = n * M.s_abs_max**2 / M.s2
    ratio2 = float(M.s_abs_row.max()) ** 2 / (n * M.s2)
    ratio3 = float(M.s_abs_row @ M.s_abs_row) / (n * M.s2)
    alignment = zc / math.sqrt(n)
    warnings = tuple(
        f"regularity {name} = {value:.4g} exceeds 1; "
        "the normal approximation may be unreliable"
        for name, value in (("ratio1", ratio1), ("ratio2", ratio2), ("ratio3", ratio3))
        if value > 1.0
    )
    return DiagnosticsReport(ratio1, ratio2, ratio3, alignment, warnings)


def rearrangement_bounds(S: SimilarityMatrix, W: WeightMatrix) -> Tuple[float, float]:
    """Extremal values of Z over all joint re-labelings of the series.

    Sorting all n^2 entries of W and S and pairing them in matched order
    maximizes the sum; opposed order minimizes it. Every permuted Z lies in
    between. The entries come from the profile and the pairs: w(t) fills
    n places at t = 0 and 2(n - t) after, S_ii one place and S_ij two.
    """
    if not isinstance(S, SimilarityMatrix):
        raise InvalidValue(f"S must be a SimilarityMatrix, got {type(S).__name__}")
    if not isinstance(W, WeightMatrix):
        raise InvalidValue(f"W must be a WeightMatrix, got {type(W).__name__}")
    if S.n != W.n:
        raise ShapeMismatch(f"dimension mismatch: S is {S.n}x{S.n}, W is {W.n}x{W.n}")
    n = S.n
    counts = 2 * (n - np.arange(n))
    counts[0] = n
    order = np.argsort(W.profile)
    ws = np.repeat(W.profile[order], counts[order])
    ss = np.sort(np.concatenate((S.diagonal, S.condensed, S.condensed)))
    upper = float(np.sum(ws * ss))
    lower = float(np.sum(ws * ss[::-1]))
    return lower, upper


def _observed(series: ObservationSeries, kernel, weight_specs: Sequence, config: TestConfig):
    """S, its walk M, the (m, n) profiles and their moments: what both tests start with.

    The permutation draws read S. The analytic method walks a kernel large
    enough to stream (core._streams) on its tiles as they are made: S is None.
    """
    if not isinstance(series, ObservationSeries):
        raise InvalidValue(f"series must be an ObservationSeries, got {type(series).__name__}")
    n = series.n
    if n < 4:
        raise TooFewObservations(f"the test needs n >= 4 observations, got n={n}")
    held = config.method == "permutation" or not _streams(kernel, n)
    S = build_similarity_matrix(series, kernel) if held else None
    profiles = np.stack([build_weight_matrix(n, spec).profile for spec in weight_specs])
    M = kernel_summary(series, kernel) if S is None else moment_summary(S)
    return S, M, profiles, _raw_moments(M, profiles)


def run_test(
    series: ObservationSeries,
    kernel,
    weight_spec,
    config: Optional[TestConfig] = None,
) -> TestResult:
    """Full test: similarity matrix, null moments, p-value, diagnostics.

    ``kernel`` is a KernelSpec or a precomputed SimilarityMatrix of the
    series' n observations, and ``weight_spec`` a WeightSpec (see
    build_similarity_matrix and build_weight_matrix). A precomputed S gives
    what the spec that made it gives, since only S.condensed and S.diagonal
    are read. The analytic method with a spec of core._STREAM_PAIRS pairs or
    more, knn aside, never holds S (see core.kernel_summary); it gives the
    numbers of the S that spec makes.

    With a degenerate null (constant similarity field) the result carries
    p = 1 and a warning instead of raising: a field with no variation holds
    no evidence against independence.
    """
    if config is None:
        config = TestConfig()
    elif not isinstance(config, TestConfig):
        raise InvalidValue(f"config must be a TestConfig, got {type(config).__name__}")
    S, M, profiles, (e_z, cov, z_c) = _observed(series, kernel, [weight_spec], config)
    ez, var, zc = float(e_z[0]), float(cov[0, 0]), float(z_c[0])
    try:
        diagnostics = regularity_diagnostics(M, zc)
        degenerate_field = False
    except DegenerateVariance as exc:
        nan = float("nan")
        diagnostics = DiagnosticsReport(nan, nan, nan, zc / math.sqrt(M.n), (str(exc),))
        degenerate_field = True
    extra = list(diagnostics.warnings)

    if degenerate_field or var == 0.0:
        if not degenerate_field:
            extra.append("permutation variance is degenerate; reporting p = 1")
        z_g, p = 0.0, 1.0
    else:
        z_g = zc / math.sqrt(var)
        orient = _ORIENT[config.sidedness]
        if config.method == "analytic":
            p = float((2.0 if config.sidedness == "two_sided" else 1.0) * ndtr(-orient(z_g)))
        else:
            stat = lambda draws: orient(draws[:, 0])
            p = _permutation_p(S, M, profiles, config, stat, orient(zc), np.ones(1))

    return TestResult(
        z=ez + zc,
        e_z=ez,
        var_z=var,
        z_g=z_g,
        p_value=p,
        reject=bool(p < config.alpha),
        alpha=config.alpha,
        method=config.method,
        diagnostics=replace(diagnostics, warnings=tuple(extra)),
    )


def mahalanobis_aggregate(
    series: ObservationSeries,
    kernel,
    weight_specs: Sequence,
    B: int = 1000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Combine several weight choices into one Mahalanobis-type statistic.

    ``kernel`` is a KernelSpec or a precomputed SimilarityMatrix, as in
    run_test, and ``weight_specs`` a sequence of WeightSpecs. The coordinates
    d = Z_k - EZ_k come from one walk of S, and their covariance Sigma is the
    exact one of _raw_moments, so M = d' Sigma^+ d (pseudo-inverse cut at
    _PINV_REL) treats the observed order and each of B shared seeded
    permutations alike. Its p is run_test's permutation p, taken of M, with B
    and seed checked by a TestConfig; a field run_test calls degenerate raises.
    """
    if isinstance(weight_specs, str) or not isinstance(weight_specs, abc.Sequence):
        raise InvalidValue(
            f"weight_specs must be a sequence of WeightSpecs, got {type(weight_specs).__name__}"
        )
    m = len(weight_specs)
    if m < 2:
        raise InvalidValue(f"need at least 2 weight specs, got {m}")
    B = _check_count(B, "B")
    if B < 500:
        raise InvalidValue(f"need at least 500 permutations, got {B}")
    if 8 * B * m > np.iinfo(np.intp).max:
        raise InvalidValue(f"B={B} draws of {m} weights: too many for numpy to index")
    config = TestConfig(method="permutation", permutations=B, seed=seed)
    S, M, profiles, (_, cov, d_obs) = _observed(series, kernel, weight_specs, config)
    _check_spread(M)
    inverse = np.linalg.pinv(cov, _PINV_REL, True)
    x_obs = inverse @ d_obs
    m_obs = float(d_obs @ x_obs)
    # M's gradient 2 Sigma^+ d_obs carries run_test's tie rule through M
    stat = lambda draws: np.sum((draws @ inverse) * draws, axis=1)
    return m_obs, _permutation_p(S, M, profiles, config, stat, m_obs, 2.0 * x_obs)
