"""Similarity kernels for vector, matrix, functional and quantile observations.

Distance-type kernels return negated distances, so S(x, x) = 0 and
S(x, y) <= 0; larger values mean more similar. The Gaussian kernel instead
lives in (0, 1] with S(x, x) = 1.

    neg_l1                 -sum_k |x_k - y_k|                  vector
    neg_l2                 -||x - y||_2                        vector
    neg_sq_l2_scaled       -sum_k (x_k - y_k)^2 / p            vector
    frobenius              -||x - y||_F                        matrix
    gaussian(sigma)        exp(-||x - y||_2^2 / (2 sigma^2))   vector
    functional_l2          -(integral (x - y)^2 dtau)^(1/2)    function
    wasserstein1_quantile  -sum_k |x_k - y_k| / grid_len       quantile

Functional observations are samples on a uniform grid over [0, 1]; the
integral uses the trapezoidal rule on that grid. Quantile observations are
discretized quantile functions on a uniform probability grid, so the mean
absolute difference is the discrete 1-Wasserstein distance.

The knn_affinity kernel is defined at matrix level only: entry (i, j) is 1
when each point is among the other's k nearest under a base distance, 1/2
when only one direction holds, else 0. See :func:`knn_affinity_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import BadWeightParam, KernelMismatch, ParseError
from .types import ObservationSeries, SimilarityMatrix

FAMILIES = (
    "neg_l1",
    "neg_l2",
    "neg_sq_l2_scaled",
    "frobenius",
    "gaussian",
    "functional_l2",
    "wasserstein1_quantile",
    "knn_affinity",
)

# kinds each family accepts; knn_affinity defers to its base kernel
_ACCEPTS = {
    "neg_l1": ("vector",),
    "neg_l2": ("vector",),
    "neg_sq_l2_scaled": ("vector",),
    "frobenius": ("matrix",),
    "gaussian": ("vector",),
    "functional_l2": ("function",),
    "wasserstein1_quantile": ("quantile",),
}

_DISTANCE_FAMILIES = (
    "neg_l1",
    "neg_l2",
    "neg_sq_l2_scaled",
    "frobenius",
    "functional_l2",
    "wasserstein1_quantile",
)


@dataclass(frozen=True)
class KernelSpec:
    family: str
    sigma: Optional[float] = None
    k: Optional[int] = None
    base: Optional["KernelSpec"] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadWeightParam(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian":
            if self.sigma is None or not self.sigma > 0:
                raise BadWeightParam(f"gaussian requires sigma > 0, got {self.sigma}")
        if self.family == "knn_affinity":
            if self.k is None or int(self.k) < 1:
                raise BadWeightParam(f"knn requires k >= 1, got {self.k}")
            object.__setattr__(self, "k", int(self.k))
            base = self.base if self.base is not None else KernelSpec("neg_l1")
            if base.family not in _DISTANCE_FAMILIES:
                raise BadWeightParam(
                    f"knn base must be a distance kernel, got {base.family!r}"
                )
            object.__setattr__(self, "base", base)

    def accepts(self) -> Tuple[str, ...]:
        if self.family == "knn_affinity":
            return self.base.accepts()
        return _ACCEPTS[self.family]

    def to_json_obj(self) -> dict:
        obj: dict = {"family": self.family}
        if self.sigma is not None:
            obj["sigma"] = float(self.sigma)
        if self.k is not None:
            obj["k"] = int(self.k)
        if self.base is not None:
            obj["base"] = self.base.to_json_obj()
        return obj

    def to_string(self) -> str:
        if self.family == "gaussian":
            return f"gaussian:sigma={self.sigma:g}"
        if self.family == "knn_affinity":
            return f"knn:k={self.k},base={self.base.to_string()}"
        return self.family


def neg_l1() -> KernelSpec:
    return KernelSpec("neg_l1")


def neg_l2() -> KernelSpec:
    return KernelSpec("neg_l2")


def neg_sq_l2_scaled() -> KernelSpec:
    return KernelSpec("neg_sq_l2_scaled")


def frobenius() -> KernelSpec:
    return KernelSpec("frobenius")


def gaussian(sigma: float) -> KernelSpec:
    return KernelSpec("gaussian", sigma=float(sigma))


def functional_l2() -> KernelSpec:
    return KernelSpec("functional_l2")


def wasserstein1_quantile() -> KernelSpec:
    return KernelSpec("wasserstein1_quantile")


def knn_affinity(k: int, base: Optional[KernelSpec] = None) -> KernelSpec:
    return KernelSpec("knn_affinity", k=k, base=base)


def _check_kind(spec: KernelSpec, kind: str):
    if kind not in spec.accepts():
        raise KernelMismatch(
            f"kernel {spec.family} accepts kinds {spec.accepts()}, got {kind!r}"
        )


def similarity_evaluate(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Raw kernel value s(x, y) for one observation pair."""
    if spec.family == "knn_affinity":
        raise KernelMismatch(
            "knn_affinity is defined at matrix level; use knn_affinity_matrix"
        )
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise KernelMismatch(f"observation shapes differ: {x.shape} vs {y.shape}")
    f = spec.family
    if f == "neg_l1":
        return float(-np.sum(np.abs(x - y)))
    if f == "neg_l2":
        return float(-np.sqrt(np.sum((x - y) ** 2)))
    if f == "neg_sq_l2_scaled":
        return float(-np.sum((x - y) ** 2) / x.size)
    if f == "frobenius":
        return float(-np.sqrt(np.sum((x - y) ** 2)))
    if f == "gaussian":
        return float(np.exp(-np.sum((x - y) ** 2) / (2.0 * spec.sigma**2)))
    if f == "functional_l2":
        return float(-np.sqrt(np.sum(_trapezoid_weights(x.shape[-1]) * (x - y) ** 2)))
    # wasserstein1_quantile
    return float(-np.sum(np.abs(x - y)) / x.size)


def _trapezoid_weights(g: int) -> np.ndarray:
    """Quadrature weights for the trapezoidal rule on a uniform grid over [0,1]."""
    w = np.full(g, 1.0 / (g - 1))
    w[0] = w[-1] = 0.5 / (g - 1)
    return w


def _flat(series: ObservationSeries) -> np.ndarray:
    return series.data.reshape(series.n, -1)


def pairwise_similarity(spec: KernelSpec, series: ObservationSeries) -> np.ndarray:
    """Raw n x n kernel matrix, computed via pairwise-distance fast paths.

    All built-in kernels are symmetric, so the result equals its transpose up
    to the bit and needs no symmetrizing.
    """
    if spec.family == "knn_affinity":
        return knn_affinity_matrix(series, spec.k, spec.base).values.copy()
    _check_kind(spec, series.kind)
    flat = _flat(series)
    f = spec.family
    if f == "neg_l1":
        return -squareform(pdist(flat, metric="cityblock"))
    if f in ("neg_l2", "frobenius"):
        return -squareform(pdist(flat, metric="euclidean"))
    if f == "neg_sq_l2_scaled":
        return -squareform(pdist(flat, metric="sqeuclidean")) / flat.shape[1]
    if f == "gaussian":
        sq = squareform(pdist(flat, metric="sqeuclidean"))
        return np.exp(-sq / (2.0 * spec.sigma**2))
    if f == "functional_l2":
        # trapezoid weights turn the integral into a weighted sqeuclidean,
        # so scaling columns by sqrt(weight) reduces it to a plain pdist
        w = _trapezoid_weights(flat.shape[1])
        return -squareform(pdist(flat * np.sqrt(w), metric="euclidean"))
    # wasserstein1_quantile
    return -squareform(pdist(flat, metric="cityblock")) / flat.shape[1]


def knn_affinity_matrix(
    series: ObservationSeries, k: int, base: Optional[KernelSpec] = None
) -> SimilarityMatrix:
    """Symmetrized k-nearest-neighbour affinity under a base distance.

    A_ij = 1 when j is among the k nearest of i (self excluded); the output
    is (A + A^T)/2, so entries are 0, 0.5 or 1. Distance ties are broken by
    the lower time index, which makes the graph reproducible.
    """
    spec = KernelSpec("knn_affinity", k=k, base=base)
    _check_kind(spec, series.kind)
    n = series.n
    if spec.k >= n:
        raise BadWeightParam(f"knn requires k < n, got k={spec.k}, n={n}")
    dist = -pairwise_similarity(spec.base, series)
    np.fill_diagonal(dist, np.inf)
    # stable argsort on each row: equal distances keep index order
    order = np.argsort(dist, axis=1, kind="stable")
    neighbors = order[:, : spec.k]
    a = np.zeros((n, n))
    rows = np.repeat(np.arange(n), spec.k)
    a[rows, neighbors.ravel()] = 1.0
    return SimilarityMatrix((a + a.T) / 2.0)


def parse_kernel_spec(text: str) -> KernelSpec:
    """Parse the `family[:key=value,...]` grammar.

    Examples: `neg_l1`, `gaussian:sigma=2.5`, `knn:k=5,base=neg_l2`.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty kernel spec")
    family, sep, rest = text.partition(":")
    family = family.strip()
    if family == "knn":
        family = "knn_affinity"
    if family not in FAMILIES:
        raise ParseError(f"unknown kernel family {family!r}")
    if family == "gaussian":
        if not sep or not rest.strip():
            raise ParseError("gaussian requires sigma, e.g. gaussian:sigma=2.5")
        kwargs = {}
        for part in rest.split(","):
            key, _, raw = part.partition("=")
            key = key.strip()
            if key != "sigma":
                raise ParseError(f"gaussian has no parameter {key!r}")
            if "sigma" in kwargs:
                raise ParseError("gaussian repeats parameter 'sigma'")
            try:
                kwargs["sigma"] = float(raw)
            except ValueError:
                raise ParseError(f"sigma has non-numeric value {raw!r}") from None
        return KernelSpec("gaussian", **kwargs)
    if family == "knn_affinity":
        if not sep or not rest.strip():
            raise ParseError("knn requires k, e.g. knn:k=5,base=neg_l2")
        k = None
        base = None
        for part in rest.split(","):
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key == "k":
                try:
                    k = int(raw)
                except ValueError:
                    raise ParseError(f"k has non-integer value {raw!r}") from None
            elif key == "base":
                if raw == "knn" or raw == "knn_affinity":
                    raise ParseError("knn cannot be its own base kernel")
                base = parse_kernel_spec(raw)
            else:
                raise ParseError(f"knn has no parameter {key!r}")
        if k is None:
            raise ParseError("knn requires k, e.g. knn:k=5")
        return KernelSpec("knn_affinity", k=k, base=base)
    if sep and rest.strip():
        raise ParseError(f"{family} takes no parameters, got {rest!r}")
    return KernelSpec(family)


def kernel_spec_from_json_obj(obj: dict) -> KernelSpec:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParseError("kernel JSON object needs a 'family' field")
    family = obj["family"]
    if family == "knn":
        family = "knn_affinity"
    if family not in FAMILIES:
        raise ParseError(f"unknown kernel family {family!r}")
    kwargs: dict = {}
    if "sigma" in obj:
        kwargs["sigma"] = float(obj["sigma"])
    if "k" in obj:
        kwargs["k"] = int(obj["k"])
    if "base" in obj:
        kwargs["base"] = kernel_spec_from_json_obj(obj["base"])
    return KernelSpec(family, **kwargs)
