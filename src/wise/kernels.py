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
when only one direction holds, else 0. Distance ties are broken by the
lower time index, which makes the graph reproducible. See
:func:`pairwise_similarity`.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from ._grammar import Param, family_of, read_fields, single_group, to_text, tokenize, validate
from .errors import BadWeightParam, InvalidValue, KernelMismatch
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
            Param("k", read=operator.index, show=str, low=0),
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


# pair x feature operations in one block of the pairwise kernel; an input no
# larger is a single pdist call
_BLOCK_OPS = 2**24
# pairs in one cdist call of a block, whatever the row length: the call's
# rectangle is the one buffer each worker adds
_TILE_PAIRS = 2**15


# set while this process fills one range of a fan-out beside other ranges
_in_range = False


def thread_count() -> int:
    """Worker count of the kernel pool, the bench processes and the
    permutation draw processes: WISE_THREADS if set, else min(4, cpu count).

    While a process fills one range of _fill_in_forks beside other ranges
    it is 1, so no worker starts workers of its own, and one count caps
    bench processes, draw processes and kernel threads together.
    """
    if _in_range:
        return 1
    env = os.environ.get("WISE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidValue(f"WISE_THREADS must be an integer, got {env!r}") from None
    return max(1, min(4, os.cpu_count() or 1))


def _fill_in_forks(
    fill: Callable[[np.ndarray, int, int], None], out: np.ndarray, bounds: Sequence[int]
) -> None:
    """fill(out, a, b) fills rows a to b - 1 of out, for each pair of
    consecutive bounds.

    The first range runs here and each other range in a forked child,
    which fills its rows of one anonymous shared mapping and leaves through
    os._exit. A child that fails, or cannot be forked, has its range filled
    here afterwards, so out is the same whichever children succeed. Every
    child is reaped before this returns or raises; on any exception the
    children still running are killed first. While the ranges are filled,
    thread_count() is 1 here and in every child, so a range runs no kernel
    threads, and a call made inside a range fills all its own ranges in
    that process. Off Linux, or off the main thread, every range is filled
    here.
    """
    global _in_range
    ranges = list(zip(bounds, bounds[1:]))
    forkable = sys.platform == "linux" and threading.current_thread() is threading.main_thread()
    if len(ranges) == 1 or not forkable or _in_range:
        for a, b in ranges:
            fill(out, a, b)
        return
    shared = np.frombuffer(mmap.mmap(-1, out.nbytes), out.dtype).reshape(out.shape)
    children, again = {}, []
    _in_range = True
    try:
        for a, b in ranges[1:]:
            try:
                pid = os.fork()
            except OSError:
                again.append((a, b))
                continue
            if pid == 0:
                try:
                    fill(shared, a, b)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = (a, b)
        fill(out, *ranges[0])
        while children:
            pid = next(iter(children))
            status = os.waitpid(pid, 0)[1]
            a, b = children.pop(pid)
            if status == 0:
                out[a:b] = shared[a:b]
            else:
                again.append((a, b))
        for a, b in again:
            fill(out, a, b)
    finally:
        _in_range = False
        for pid in children:
            # an unreaped child exists, if only as a zombie, so kill finds it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _blocks(n: int, p: int) -> List[int]:
    """Row bounds of the blocks of the condensed pairs, from 0 to n.

    Each block holds about _BLOCK_OPS pair x feature operations. The last
    is the tail triangle of the most rows whose pairs fit in one block, so
    an input that fits is the single block [0, n].
    """
    pairs = max(1, _BLOCK_OPS // max(p, 1))
    # the largest m with m (m - 1) / 2 <= pairs
    tail = max(0, n - (1 + math.isqrt(1 + 8 * pairs)) // 2)
    bounds, count = [0], 0
    for i in range(tail):
        count += n - 1 - i
        if count >= pairs:
            bounds.append(i + 1)
            count = 0
    if bounds[-1] != tail:
        bounds.append(tail)
    return bounds + [n]


def _fill(d: np.ndarray, flat: np.ndarray, metric: str, starts: List[int], a: int, b: int) -> None:
    """Pairs of rows a to b - 1 into their slice of d, where row i's pairs
    are d[starts[i]:starts[i + 1]], as pdist orders them.

    Rows go in tiles of at most _TILE_PAIRS pairs, one cdist call each: the
    tile [t, u) against rows t + 1 on fills a rectangle whose row i - t
    holds row i's pairs from column i - t on.
    """
    n = flat.shape[0]
    if b == n:
        pdist(flat[a:], metric, out=d[starts[a] :])
        return
    rows = max(1, _TILE_PAIRS // (n - 1 - a))
    buffer = np.empty(min(rows, b - a) * (n - 1 - a))
    for t in range(a, b, rows):
        u = min(t + rows, b)
        rect = buffer[: (u - t) * (n - 1 - t)].reshape(u - t, n - 1 - t)
        cdist(flat[t:u], flat[t + 1 :], metric, out=rect)
        for i in range(t, u):
            d[starts[i] : starts[i + 1]] = rect[i - t, i - t :]


def _distance(spec: KernelSpec, flat: np.ndarray) -> np.ndarray:
    """Fresh condensed pdist vector of the rows of ``flat`` under the family's metric.

    An input of more than one block is filled block by block on a thread
    pool made for the call. Each block writes pdist's own numbers for its
    pairs into the vector, so the result is byte-identical at any block size
    and thread count. One thread makes one pdist call, which saves the
    tiles' cdist calls and copies.
    """
    family = _FAMILIES[spec.family]
    # one C-ordered copy at most: each tile's cdist would otherwise copy the rows after it
    flat = np.ascontiguousarray(flat, dtype=np.float64)
    if family.prescale is not None:
        flat = flat * family.prescale(flat.shape[1])
    n, p = flat.shape
    d = np.empty(n * (n - 1) // 2)
    bounds = _blocks(n, p)
    workers = thread_count() if len(bounds) > 2 else 1
    if workers == 1:
        pdist(flat, family.metric, out=d)
    else:
        starts = [i * (2 * n - 1 - i) // 2 for i in range(n + 1)]
        with ThreadPoolExecutor(workers, thread_name_prefix="wise-kernel") as pool:
            futures = [
                pool.submit(_fill, d, flat, family.metric, starts, a, b)
                for a, b in zip(bounds, bounds[1:])
            ]
        # the pool has waited for every block, so none still writes into d
        # when an error is raised
        for future in futures:
            future.result()
    if family.per_column:
        d /= p
    return d


def _transform(spec: KernelSpec, d: np.ndarray) -> np.ndarray:
    """S from distances d of a family with a formula, in place."""
    transform = _FAMILIES[spec.family].transform
    return np.negative(d, out=d) if transform is None else transform(d, spec)


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
