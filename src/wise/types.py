"""Core immutable data containers.

Every array is converted one way, by _freeze: text and complex entries are an
InvalidValue and ragged rows a ShapeMismatch, and the result is float64 and
read-only, so instances are safe to share across threads. Validation happens in ``__post_init__``;
downstream code may assume the invariants hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import squareform

from .errors import InvalidValue, NotAQuantile, ShapeMismatch

SERIES_KINDS = ("vector", "matrix", "function", "quantile")

_KIND_NDIM = {"vector": 2, "matrix": 3, "function": 2, "quantile": 2}


def _real_array(raw, what: str) -> np.ndarray:
    """raw as a float64 array. Ragged rows are a ShapeMismatch; complex
    entries, whose imaginary part a cast would drop, and text, which a cast
    would parse when it spells a number, an InvalidValue."""
    try:
        arr = np.asarray(raw)
        if arr.dtype.kind == "c":
            raise InvalidValue(f"{what} holds complex values")
        if arr.dtype.kind in "SU" or arr.dtype.kind == "O" and any(
            isinstance(v, (str, bytes)) for v in arr.flat
        ):
            raise InvalidValue(f"{what} holds text")
        return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        # ragged rows raise ValueError on conversion in recent numpy
        if "inhomogeneous" in str(exc) or "sequence" in str(exc):
            raise ShapeMismatch(f"{what} rows have inconsistent shapes: {exc}") from None
        raise InvalidValue(f"{what} is not numeric: {exc}") from None


def _freeze(raw, what: str) -> np.ndarray:
    """raw converted by _real_array, as a read-only C array: raw itself when
    it already is one and owns its data (a kernel's fresh output, handed
    over), else a copy."""
    a = _real_array(raw, what)
    if a.flags.c_contiguous and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ObservationSeries:
    """A time-ordered sample of identically shaped observations.

    Parameters
    ----------
    kind : str
        One of ``vector`` (data shape (n, p)), ``matrix`` ((n, rows, cols)),
        ``function`` ((n, grid_len), sampled on a uniform grid over [0, 1]),
        or ``quantile`` ((n, grid_len), each row nondecreasing).
    data : np.ndarray
        The observations, first axis indexing time.

    Notes
    -----
    The observation shape is ``data.shape[1:]``.
    Construction requires only n >= 1; the analytic test path additionally
    requires n >= 4 and enforces that in :func:`wise.core.validate_series`
    and :func:`wise.engine.run_test`.
    """

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in SERIES_KINDS:
            raise InvalidValue(f"unknown observation kind {self.kind!r}")
        arr = _freeze(self.data, "series")
        object.__setattr__(self, "data", arr)
        if arr.ndim != _KIND_NDIM[self.kind]:
            raise ShapeMismatch(
                f"kind={self.kind} expects {_KIND_NDIM[self.kind]}-d data, "
                f"got shape {arr.shape}"
            )
        if arr.shape[0] < 1:
            raise ShapeMismatch("series holds no observations")
        if min(arr.shape[1:]) < 1:
            raise ShapeMismatch(f"degenerate observation shape {arr.shape[1:]}")
        if self.kind == "function" and arr.shape[1] < 2:
            raise ShapeMismatch("function observations need at least 2 grid points")
        if not np.isfinite(arr).all():
            raise InvalidValue("series contains NaN or infinite entries")
        if self.kind == "quantile" and np.any(np.diff(arr, axis=1) < 0):
            raise NotAQuantile("quantile observations must be nondecreasing")

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise observation similarities S, held as pdist holds them.

    ``condensed`` is the strict upper triangle S_ij, i < j, row by row: the
    order of scipy's pdist and of ``np.triu_indices(n, 1)``. ``diagonal`` is
    S_ii. The layout is symmetric by construction; build from a square array
    with :meth:`from_square`.
    """

    condensed: np.ndarray
    diagonal: np.ndarray

    def __post_init__(self):
        for name in ("condensed", "diagonal"):
            arr = _freeze(getattr(self, name), f"similarity {name}")
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise ShapeMismatch(f"similarity {name} must be a vector, got shape {arr.shape}")
            # a NaN reaches both extremes and an infinity one of them, so
            # no n(n-1)/2 temporary of flags is needed
            if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise InvalidValue("similarity matrix contains NaN or infinite entries")
        n = self.n
        if self.condensed.shape[0] != n * (n - 1) // 2:
            raise ShapeMismatch(
                f"{self.condensed.shape[0]} pairs do not match a diagonal of length {n}"
            )

    @classmethod
    def from_square(cls, a) -> "SimilarityMatrix":
        """From a square array of reals, which must be finite and exactly symmetric."""
        arr = _real_array(a, "similarity matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeMismatch(f"similarity matrix must be square, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidValue("similarity matrix contains NaN or infinite entries")
        if not np.array_equal(arr, arr.T):
            raise ShapeMismatch("similarity matrix must be exactly symmetric")
        return cls(squareform(arr, checks=False), arr.diagonal())

    @property
    def n(self) -> int:
        return self.diagonal.shape[0]

    @property
    def values(self) -> np.ndarray:
        """A fresh read-only n x n copy, for display and dense oracles."""
        out = squareform(self.condensed, checks=False)
        out.flat[:: self.n + 1] = self.diagonal
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class WeightMatrix:
    """Lag weights W_ij = w(|i-j|), stored as the Toeplitz profile w(0..n-1)."""

    profile: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.profile, "weight profile")
        object.__setattr__(self, "profile", arr)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ShapeMismatch(f"weight profile must be a non-empty vector, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidValue("weight profile contains NaN or infinite entries")
        if arr[0] != 0.0:
            raise InvalidValue("weight matrix diagonal must be zero (w(0) = 0)")

    @property
    def n(self) -> int:
        return self.profile.shape[0]


@dataclass(frozen=True)
class MomentSummary:
    """Off-diagonal sums of a similarity matrix S, centered once.

    s1 = sum_{i != j} S_ij. B is S minus its off-diagonal mean, with a zero
    diagonal; s_row[i] = sum_j B_ij, s2 = sum_ij B_ij^2 and s3 = |s_row|^2
    are the S side of the Daniels-Mantel moments, none a difference of large
    raw sums. s_abs_row[i] = sum_j |B_ij| and s_abs_max = max |B_ij| feed the
    regularity ratios. lag_sums[t] = D_t sums B_ij over the pairs j - i = t
    (D_0 = 0), so any lag weight gives Z - EZ = 2 sum_t a(t) D_t, with a its
    profile centered over the pairs: one summary serves every weight.
    """

    s1: float
    s2: float
    s3: float
    s_row: np.ndarray
    s_abs_row: np.ndarray
    s_abs_max: float
    lag_sums: np.ndarray

    def __post_init__(self):
        for name in ("s_row", "s_abs_row", "lag_sums"):
            object.__setattr__(self, name, _freeze(getattr(self, name), name))
        if self.s_row.ndim != 1 or not self.s_row.shape == self.s_abs_row.shape == self.lag_sums.shape:
            raise ShapeMismatch("row-sum and lag-sum vectors must share one dimension")

    @property
    def n(self) -> int:
        return self.s_row.shape[0]
