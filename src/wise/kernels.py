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
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
from scipy.spatial.distance import pdist, squareform

from ._grammar import Param, family_of, read_fields, single_group, to_text, tokenize, validate
from .errors import BadWeightParam, KernelMismatch
from .types import ObservationSeries, SimilarityMatrix


@dataclass(frozen=True)
class KernelSpec:
    family: str
    sigma: Optional[float] = None
    k: Optional[int] = None
    base: Optional["KernelSpec"] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise BadWeightParam(f"unknown kernel family {self.family!r}")
        if self.family == "knn_affinity" and self.base is None:
            object.__setattr__(self, "base", KernelSpec("neg_l1"))
        validate(self, _FAMILIES[self.family].params, _name(self.family))
        if self.base is not None and not _FAMILIES[self.base.family].distance:
            raise BadWeightParam(
                f"knn base must be a distance kernel, got {self.base.family!r}"
            )

    def accepts(self) -> Tuple[str, ...]:
        return _FAMILIES[self.family].kinds or self.base.accepts()

    def to_json_obj(self) -> dict:
        obj: dict = {"family": self.family}
        for p in _FAMILIES[self.family].params:
            value = getattr(self, p.field)
            obj[p.field] = value.to_json_obj() if isinstance(value, KernelSpec) else value
        return obj

    def to_string(self) -> str:
        params = _FAMILIES[self.family].params
        return to_text(_name(self.family), params, [[getattr(self, p.field) for p in params]])


def read_kernel_spec(raw) -> KernelSpec:
    """A kernel given as a spec, its text or its JSON object."""
    if isinstance(raw, KernelSpec):
        return raw
    if isinstance(raw, str):
        return parse_kernel_spec(raw)
    return kernel_spec_from_json_obj(raw)


def _sqrt_trapezoid(g: int) -> np.ndarray:
    """Square roots of the trapezoid-rule weights on a uniform grid over [0,1].

    The rule makes the integral a weighted sqeuclidean, so scaling columns by
    these reduces it to a plain euclidean pdist.
    """
    w = np.full(g, 1.0 / (g - 1))
    w[0] = w[-1] = 0.5 / (g - 1)
    return np.sqrt(w)


def _gaussian(d: np.ndarray, spec: KernelSpec) -> np.ndarray:
    np.divide(d, -2.0 * spec.sigma**2, out=d)
    return np.exp(d, out=d)


class _Family(NamedTuple):
    kinds: Tuple[str, ...] = ()  # empty: the base kernel's kinds
    metric: Optional[str] = None  # scipy pdist metric on the flattened observations
    prescale: Optional[Callable[[int], np.ndarray]] = None  # column weights, from row length
    per_column: bool = False  # the distance is divided by the row length
    transform: Optional[Callable[[np.ndarray, KernelSpec], np.ndarray]] = None
    params: Tuple[Param, ...] = ()

    @property
    def distance(self) -> bool:
        """S is the negated distance, with no other transform."""
        return self.metric is not None and self.transform is None


# family -> formula and parameters. The condensed pdist output d becomes S
# in place: negated, or put through ``transform``. knn_affinity has no
# formula of its own; see _knn_affinity.
_FAMILIES = {
    "neg_l1": _Family(("vector",), "cityblock"),
    "neg_l2": _Family(("vector",), "euclidean"),
    "neg_sq_l2_scaled": _Family(("vector",), "sqeuclidean", per_column=True),
    "frobenius": _Family(("matrix",), "euclidean"),
    "gaussian": _Family(
        ("vector",), "sqeuclidean", transform=_gaussian, params=(Param("sigma", low=0.0),)
    ),
    "functional_l2": _Family(("function",), "euclidean", prescale=_sqrt_trapezoid),
    "wasserstein1_quantile": _Family(("quantile",), "cityblock", per_column=True),
    "knn_affinity": _Family(
        params=(
            Param("k", read=int, show=str, low=0),
            Param("base", read=read_kernel_spec, show=KernelSpec.to_string, required=False),
        )
    ),
}
FAMILIES = tuple(_FAMILIES)
# text names that differ from the family; the text and JSON forms accept both
_SHORT = {"knn_affinity": "knn"}


def _name(family: str) -> str:
    return _SHORT.get(family, family)


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


def _distance(spec: KernelSpec, flat: np.ndarray) -> np.ndarray:
    """Fresh condensed pdist vector of the rows of ``flat`` under the family's metric."""
    family = _FAMILIES[spec.family]
    if family.prescale is not None:
        flat = flat * family.prescale(flat.shape[1])
    d = pdist(flat, metric=family.metric)
    if family.per_column:
        d /= flat.shape[1]
    return d


def _transform(spec: KernelSpec, d: np.ndarray) -> np.ndarray:
    """S from distances d of a family with a formula, in place."""
    transform = _FAMILIES[spec.family].transform
    return np.negative(d, out=d) if transform is None else transform(d, spec)


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
    return float(_transform(spec, _distance(spec, np.stack((x, y)).reshape(2, -1)))[0])


def pairwise_similarity(spec: KernelSpec, series: ObservationSeries) -> SimilarityMatrix:
    """The kernel's similarity matrix, from pdist's condensed distances.

    All built-in kernels are symmetric, so only the pairs i < j are computed.
    The diagonal is the transform of a zero distance: 1 for ``gaussian``,
    -0.0 for the negated distances, 0 for knn.
    """
    if series.kind not in spec.accepts():
        raise KernelMismatch(
            f"kernel {spec.family} accepts kinds {spec.accepts()}, got {series.kind!r}"
        )
    flat = series.data.reshape(series.n, -1)
    if spec.family == "knn_affinity":
        s, diagonal = _knn_affinity(flat, spec.k, spec.base), np.zeros(series.n)
    else:
        s = _transform(spec, _distance(spec, flat))
        diagonal = _transform(spec, np.zeros(series.n))
    # the fresh vector is handed over read-only, so it is not copied
    s.flags.writeable = False
    return SimilarityMatrix(s, diagonal)


def _knn_affinity(flat: np.ndarray, k: int, base: KernelSpec) -> np.ndarray:
    n = flat.shape[0]
    if k >= n:
        raise BadWeightParam(f"knn requires k < n, got k={k}, n={n}")
    a = squareform(_distance(base, flat))
    np.fill_diagonal(a, np.inf)
    # stable argsort on each row: equal distances keep index order; ravel
    # copies the k nearest, so the n x n order is freed at once
    neighbors = np.argsort(a, axis=1, kind="stable")[:, :k].ravel()
    # the distances' buffer becomes (A + A^T) / 2: each edge adds 0.5 both ways
    a.fill(0.0)
    rows = np.repeat(np.arange(n), k)
    a[rows, neighbors] += 0.5
    a[neighbors, rows] += 0.5
    return squareform(a, checks=False)


def knn_affinity_matrix(
    series: ObservationSeries, k: int, base: Optional[KernelSpec] = None
) -> SimilarityMatrix:
    """Symmetrized k-nearest-neighbour affinity under a base distance.

    A_ij = 1 when j is among the k nearest of i (self excluded); the output
    is (A + A^T)/2, so entries are 0, 0.5 or 1. Distance ties are broken by
    the lower time index, which makes the graph reproducible.
    """
    return pairwise_similarity(KernelSpec("knn_affinity", k=k, base=base), series)


def parse_kernel_spec(text: str) -> KernelSpec:
    """Parse the `family[:key=value,...]` grammar.

    Examples: `neg_l1`, `gaussian:sigma=2.5`, `knn:k=5,base=neg_l2`. The
    knn base defaults to neg_l1 and must be a distance kernel.
    """
    family, groups = tokenize(text, "kernel")
    return kernel_spec_from_json_obj(single_group(family, groups, "kernel"))


def kernel_spec_from_json_obj(obj: dict) -> KernelSpec:
    """Inverse of :meth:`KernelSpec.to_json_obj` (config-file form)."""
    family, fields = family_of(obj, _FAMILIES, _SHORT, "kernel")
    return KernelSpec(family, **read_fields(fields, _FAMILIES[family].params, _name(family)))
