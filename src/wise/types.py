"""Core immutable data containers.

All arrays are float64 and marked read-only after construction, so instances
are safe to share across threads. Validation happens in ``__post_init__``;
downstream code may assume the invariants hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial.distance import squareform

from .errors import InvalidValue, NotAQuantile, ShapeMismatch

if TYPE_CHECKING:
    from .weights import WeightSpec

SERIES_KINDS = ("vector", "matrix", "function", "quantile")

_KIND_NDIM = {"vector": 2, "matrix": 3, "function": 2, "quantile": 2}


def _real_array(raw, what: str) -> np.ndarray:
    """raw as a float64 array. Ragged rows are a ShapeMismatch; text and
    complex entries, whose imaginary part a cast would drop, an InvalidValue."""
    try:
        arr = np.asarray(raw)
        if arr.dtype.kind == "c":
            raise InvalidValue(f"{what} holds complex values")
        return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        # ragged rows raise ValueError on conversion in recent numpy
        if "inhomogeneous" in str(exc) or "sequence" in str(exc):
            raise ShapeMismatch(f"{what} rows have inconsistent shapes: {exc}") from None
        raise InvalidValue(f"{what} is not numeric: {exc}") from None


def _freeze(a: np.ndarray) -> np.ndarray:
    """a as a read-only float64 C array: a itself when it already is one and
    owns its data (a kernel's fresh output, handed over), else a copy."""
    if a.dtype == np.float64 and a.flags.c_contiguous and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, dtype=np.float64, order="C")
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
    Construction requires only n >= 1; the analytic test path additionally
    requires n >= 4 and enforces that in :func:`wise.core.validate_series`
    and :func:`wise.engine.run_test`.
    """

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in SERIES_KINDS:
            raise InvalidValue(f"unknown observation kind {self.kind!r}")
        arr = _freeze(np.asarray(self.data))
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

    @property
    def p(self) -> int:
        if self.kind != "vector":
            raise ShapeMismatch(f"p is defined for vector series, not {self.kind}")
        return self.data.shape[1]

    @property
    def rows(self) -> int:
        if self.kind != "matrix":
            raise ShapeMismatch(f"rows is defined for matrix series, not {self.kind}")
        return self.data.shape[1]

    @property
    def cols(self) -> int:
        if self.kind != "matrix":
            raise ShapeMismatch(f"cols is defined for matrix series, not {self.kind}")
        return self.data.shape[2]

    @property
    def grid_len(self) -> int:
        if self.kind not in ("function", "quantile"):
            raise ShapeMismatch(f"grid_len is not defined for {self.kind} series")
        return self.data.shape[1]


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
            arr = _freeze(np.asarray(getattr(self, name)))
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
    spec: "WeightSpec"

    def __post_init__(self):
        arr = _freeze(np.asarray(self.profile))
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
    """Off-diagonal sums of a (similarity, weight) pair, centered once.

    w1 = sum_{i != j} W_ij and s1 = sum_{i != j} S_ij are raw totals. A and
    B are W and S minus their off-diagonal means, with zero diagonals; then

        w_row[i] = sum_j A_ij   w2 = sum_ij A_ij^2   w3 = sum_i w_row[i]^2

    and s_row, s2, s3 likewise from B: the Daniels-Mantel sums of the
    closed-form permutation moments, none a difference of large raw sums.
    s_abs_row[i] = sum_j |B_ij| and s_abs_max = max |B_ij| feed the
    regularity ratios; zc = sum_ij A_ij B_ij = Z - EZ.

    The B sums come from one walk over the condensed pairs i < j, each of
    which stands for B_ij and B_ji: it adds to s_row at i and at j, twice
    to s2, and to the lag sum D_(j-i), so zc = 2 sum_t a(t) D_t with a(t)
    the centered weight A_ij at lag t = |i - j|.
    """

    w1: float
    w2: float
    w3: float
    w_row: np.ndarray
    s1: float
    s2: float
    s3: float
    s_row: np.ndarray
    s_abs_row: np.ndarray
    s_abs_max: float
    zc: float

    def __post_init__(self):
        for name in ("w_row", "s_row", "s_abs_row"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name))))
        if self.w_row.ndim != 1 or not self.w_row.shape == self.s_row.shape == self.s_abs_row.shape:
            raise ShapeMismatch("row-sum vectors must share one dimension")

    @property
    def n(self) -> int:
        return self.w_row.shape[0]
