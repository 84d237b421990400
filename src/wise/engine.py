"""Test statistic, exact permutation-null moments, and decision procedures.

The statistic aggregates the similarity field against lag weights,

    Z = sum_i sum_j w(|i-j|) S(X_i, X_j),

and is calibrated against the permutation null: the distribution of Z when
the series is re-indexed by a uniformly random permutation. Its mean and
variance under that null have closed forms in the off-diagonal sums
(w1, w2, w3, S1, S2, S3), so the standardized statistic

    Z_G = (Z - EZ) / sqrt(varZ)

can be compared to N(0, 1) without any resampling. A seeded Monte-Carlo
permutation test is available as a cross-check, and a Mahalanobis-type
statistic combines several weight choices into one test.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import SeedSequence, default_rng
from scipy.special import ndtr

from .core import _BATCH_PAIRS, build_similarity_matrix, build_weight_matrix, moment_summary
from .errors import DegenerateVariance, InvalidValue, ShapeMismatch, TooFewObservations
from .kernels import _fill_in_forks, thread_count
from .types import MomentSummary, ObservationSeries, SimilarityMatrix, WeightMatrix

# each side as the statistic whose upper tail rejects
_ORIENT = {"two_sided": np.abs, "upper": np.positive, "lower": np.negative}
SIDES = tuple(_ORIENT)

# the centered similarity field counts as zero when its root mean square is at
# most this fraction of the raw off-diagonal field's: about 450 ulps, so the
# kernel's rounding of a constant field is caught, while a field whose spread
# is 1e-11 of its level still holds digits and is tested
_DEGENERATE_RMS_REL = 1e-13
# negative varZ beyond rounding noise means the moment formula was misfed
_CLAMP_REL = 1e-9
# permuted Z - EZ this fraction of its bound from the observed value is a tie
_TIE_REL = 1e-10
# draws x folded pairs from which the draws are split across forked
# processes; below it a fork's round trip (about 4 ms) outweighs the work
_FORK_PAIR_DRAWS = 2**26


def _check_count(value, what: str) -> int:
    """value as an int; what ``operator.index`` refuses, 2.0 too, is an InvalidValue."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidValue(f"{what} must be an integer, got {value!r}") from None


def _check_seed(seed) -> int:
    """seed as an int; the permutation streams take 0 <= seed < 2^64."""
    value = _check_count(seed, "seed")
    if not 0 <= value < 2**64:
        raise InvalidValue(f"seed must be a 64-bit unsigned integer, got {value}")
    return value


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
        if _check_count(self.permutations, "permutations") < 100 and self.method == "permutation":
            raise InvalidValue(f"permutation method needs B >= 100, got {self.permutations}")
        _check_seed(self.seed)
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


def _raw_moments(M: MomentSummary, n: int) -> Tuple[float, float, bool]:
    """(EZ, varZ, clamped) from the closed-form permutation-null moments.

    EZ = w1 * s_bar. varZ is the Daniels-Mantel form in the centered sums
    (see MomentSummary), so nothing cancels before the four terms.
    """
    if n < 4:
        raise TooFewObservations(f"closed-form variance needs n >= 4, got n={n}")
    if M.n != n:
        raise ShapeMismatch(f"summary is for n={M.n}, got n={n}")
    w1, w2, w3 = M.w1, M.w2, M.w3
    s1, s2, s3 = M.s1, M.s2, M.s3
    ez = w1 * s1 / (n * (n - 1))
    t1 = 4.0 * (n + 1) * w3 * s3 / (n * (n - 1) * (n - 2) * (n - 3))
    t2 = 2.0 * w2 * s2 / (n * (n - 3))
    t3 = -4.0 * w2 * s3 / (n * (n - 2) * (n - 3))
    t4 = -4.0 * w3 * s2 / (n * (n - 2) * (n - 3))
    var = t1 + t2 + t3 + t4
    if var < -_CLAMP_REL * (abs(t1) + abs(t2) + abs(t3) + abs(t4)):
        raise InvalidValue(f"variance formula produced {var}, far below rounding tolerance")
    return ez, max(var, 0.0), var < 0.0


def _lag_sum_draws(
    s_pairs: np.ndarray, profiles: np.ndarray, B: int, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z - EZ per lag profile, at the identity and at B seeded draws.

    s_pairs is S.condensed, the pairs a < b. With sigma = pi^-1,
    Z(pi) - EZ = 2 sum_t w(t) D_t, where D_t sums the centered S_ab over
    pairs with |sigma_a - sigma_b| = t (Mantel 1967). Draw k is
    pi = permutation (seed, k). Returns (observed (m,), draws (B, m),
    bound (m,)), where bound = max|S_ab - s_bar| sum_t 2(n-t)|w(t)|.

    The centered pairs are folded once onto n // 2 rows of n: row t-1
    holds the pairs (i, (i+t) mod n), so a draw reads sigma_(i+t) - sigma_i
    off the windows [sigma, sigma][t : t+n], with no gather per pair. For
    even n the second half of the last row repeats its first half and is
    zeroed. A draw bins the signed difference, shifted by n, on 2n bins,
    and weighs bin n +- t with w(t), so no absolute value is taken.

    From _FORK_PAIR_DRAWS draws x folded pairs on, the B draws are cut into
    thread_count() ranges of whole batches, filled side by side in forked
    processes (see _fill_in_forks). Each draw then sits at its place in the
    same batch as in one run, so the draws are byte-identical at any
    worker count.
    """
    n = profiles.shape[1]
    h = n // 2
    index = np.arange(n)
    # pair (a, a+d) is at starts[a] + d in pdist's order
    starts = index * (2 * n - index - 1) // 2 - 1
    fold = np.empty((h, n))
    for t in range(1, h + 1):
        fold[t - 1, : n - t] = s_pairs[starts[: n - t] + t]
        fold[t - 1, n - t :] = s_pairs[starts[:t] + n - t]
    repeat = fold[-1, h:] if n % 2 == 0 else fold[-1, :0]
    # the mean carries the rounding of a large sum; remove what it leaves
    fold -= s_pairs.mean()
    repeat[:] = 0.0
    fold -= fold.sum() / s_pairs.size
    repeat[:] = 0.0
    bound = max(fold.max(), -fold.min()) * ((2.0 * (n - index)) @ np.abs(profiles.T))
    # a block of rows holds at most _BATCH_PAIRS pairs; at small n one
    # bincount takes a batch of draws, each on its own 2n bins, so each
    # draw rounds alike in any batch
    step = max(1, min(h, _BATCH_PAIRS // n))
    size = max(1, _BATCH_PAIRS // fold.size)
    weights = np.tile(fold, (size, 1, 1)) if size > 1 else fold[None]
    # int32 halves the traffic of the subtract; bins stay below 2n * size
    doubled = np.tile(index.astype(np.int32), (size, 2))
    sigma = doubled[:, :n]
    windows = sliding_window_view(doubled, n, axis=1)
    shift = (n * (1 + 2 * np.arange(size, dtype=np.int32)))[:, None]
    shifted = np.empty((size, n), dtype=np.int32)
    bins = np.empty((size, step, n), dtype=np.int32)
    mirrored = np.concatenate([np.zeros((len(profiles), 1)), profiles[:, :0:-1], profiles], axis=1)
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
        for start in range(a, b, size):
            k = min(size, b - start)
            for j in range(k):
                sigma[j, default_rng(SeedSequence((seed, start + j))).permutation(n)] = index
            out[start : start + k] = lag_sums()[:k]

    observed = lag_sums()[0]
    out = np.empty((B, profiles.shape[0]))
    batches = -(-B // size)
    workers = min(thread_count(), batches) if B * fold.size >= _FORK_PAIR_DRAWS else 1
    bounds = [min(B, size * (batches * r // workers)) for r in range(workers + 1)]
    _fill_in_forks(fill, out, bounds)
    return observed, out, bound


def regularity_diagnostics(M: MomentSummary) -> DiagnosticsReport:
    """Centered-similarity ratios plus the weight/similarity alignment.

    With Xt the off-diagonal centered similarity matrix (B in MomentSummary),

        ratio1 = n max(|Xt|)^2 / sum(Xt^2)
        ratio2 = max_i (sum_j |Xt_ij|)^2 / (n sum(Xt^2))
        ratio3 = sum_i (sum_j |Xt_ij|)^2 / (n sum(Xt^2))

    all three must vanish asymptotically for the normal approximation to be
    trustworthy; warnings fire on the heuristic threshold 1. alignment is
    (Z - EZ)/sqrt(n). Raises DegenerateVariance when Xt is zero to rounding.
    """
    n = M.n
    if n < 4:
        raise TooFewObservations(f"diagnostics need n >= 4, got n={n}")
    # sum of squares of the raw off-diagonal field, as two non-negative terms
    raw_sq = M.s2 + M.s1**2 / (n * (n - 1))
    if M.s2 <= _DEGENERATE_RMS_REL**2 * raw_sq:
        raise DegenerateVariance("centered similarity field is identically zero")
    ratio1 = n * M.s_abs_max**2 / M.s2
    ratio2 = float(M.s_abs_row.max()) ** 2 / (n * M.s2)
    ratio3 = float(M.s_abs_row @ M.s_abs_row) / (n * M.s2)
    alignment = M.zc / math.sqrt(n)
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
    if S.n != W.n:
        raise ShapeMismatch(f"dimension mismatch: S is {S.n}x{S.n}, W is {W.n}x{W.n}")
    n = S.n
    counts = 2 * (n - np.arange(n))
    counts[0] = n
    ws = np.sort(np.repeat(W.profile, counts))
    ss = np.sort(np.concatenate((S.diagonal, S.condensed, S.condensed)))
    upper = float(np.sum(ws * ss))
    lower = float(np.sum(ws * ss[::-1]))
    return lower, upper


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
    are read.

    With a degenerate null (constant similarity field) the result carries
    p = 1 and a warning instead of raising: a field with no variation holds
    no evidence against independence.
    """
    if config is None:
        config = TestConfig()
    n = series.n
    if n < 4:
        raise TooFewObservations(f"the test needs n >= 4 observations, got n={n}")
    S = build_similarity_matrix(series, kernel)
    W = build_weight_matrix(n, weight_spec)
    M = moment_summary(S, W)
    ez, var, clamped = _raw_moments(M, n)
    z = ez + M.zc
    try:
        diagnostics = regularity_diagnostics(M)
        degenerate_field = False
    except DegenerateVariance as exc:
        nan = float("nan")
        diagnostics = DiagnosticsReport(nan, nan, nan, M.zc / math.sqrt(n), (str(exc),))
        degenerate_field = True
    extra = list(diagnostics.warnings)
    if clamped:
        extra.append("variance formula returned a tiny negative value; clamped to 0")

    if degenerate_field or var == 0.0:
        if not degenerate_field:
            extra.append("permutation variance is degenerate; reporting p = 1")
        z_g, p = 0.0, 1.0
    else:
        z_g = M.zc / math.sqrt(var)
        orient = _ORIENT[config.sidedness]
        if config.method == "analytic":
            p = float((2.0 if config.sidedness == "two_sided" else 1.0) * ndtr(-orient(z_g)))
        else:
            # a knn field or a cosine weight holds few values, so many draws
            # tie Z - EZ exactly, yet each sums in its own order: a draw
            # within _TIE_REL of the bound on |Z - EZ| counts as a tie
            obs, draws, bound = _lag_sum_draws(
                S.condensed, W.profile[None], config.permutations, config.seed
            )
            tol = _TIE_REL * bound[0]
            count = int(np.sum(orient(draws[:, 0]) >= orient(obs[0]) - tol))
            p = (1.0 + count) / (config.permutations + 1.0)

    return TestResult(
        z=z,
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
    run_test, and each of ``weight_specs`` a WeightSpec. The coordinates
    Z_k - EZ_k share one similarity matrix, centered once; their covariance
    comes from B shared random permutations (the same permutation is
    applied to every coordinate). The p-value is the permutation tail of M
    over those draws.
    """
    m = len(weight_specs)
    if m < 2:
        raise InvalidValue(f"need at least 2 weight specs, got {m}")
    B = _check_count(B, "B")
    if B < 500:
        raise InvalidValue(f"need at least 500 permutations, got {B}")
    seed = _check_seed(seed)
    n = series.n
    if n < 4:
        raise TooFewObservations(f"the test needs n >= 4 observations, got n={n}")
    S = build_similarity_matrix(series, kernel)
    profiles = np.stack([build_weight_matrix(n, spec).profile for spec in weight_specs])
    d_obs, d_perm, _ = _lag_sum_draws(S.condensed, profiles, B, seed)
    sigma = np.cov(d_perm, rowvar=False, ddof=1)
    sigma = sigma + 1e-8 * (np.trace(sigma) / m) * np.eye(m)
    try:
        m_obs = float(d_obs @ np.linalg.solve(sigma, d_obs))
        m_perm = np.einsum("bk,kb->b", d_perm, np.linalg.solve(sigma, d_perm.T))
    except np.linalg.LinAlgError:
        raise DegenerateVariance(
            "permutation covariance is singular even after regularization"
        ) from None
    if not math.isfinite(m_obs) or not np.isfinite(m_perm).all():
        raise DegenerateVariance("Mahalanobis statistic is not finite")
    p = (1.0 + int(np.sum(m_perm >= m_obs))) / (B + 1.0)
    return m_obs, float(p)
