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

The pairs i < j are cut one way, into the tiles of _tiles: each one cdist
rectangle of a few rows against the rows after the first, within a cap on
its entries, made by _tile. tile_pass runs every pass over the tiles.
pairwise_similarity holds S as pdist's condensed vector, filled from the
tiles once the input is large. core's moment walk takes S's sums tile by
tile, from a held S or from tiles as they are made, which it does not
keep. Either way every pair has the value one pdist call gives it.

The knn_affinity kernel is defined at matrix level only: entry (i, j) is 1
when each point is among the other's k nearest under a base distance, 1/2
when only one direction holds, else 0. Distance ties are broken by the
lower time index, which makes the graph reproducible. See
:func:`pairwise_similarity`.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from ._grammar import Param, Spec, integer
from .errors import BadWeightParam, InvalidValue, KernelMismatch
from .types import ObservationSeries, SimilarityMatrix


@dataclass(frozen=True)
class KernelSpec(Spec):
    """A kernel, in text e.g. ``neg_l1``, ``gaussian:sigma=2.5`` or
    ``knn:k=5,base=neg_l2``. The knn base defaults to neg_l1 and must be a
    distance kernel."""

    family: str
    sigma: Optional[float] = None
    k: Optional[int] = None
    base: Optional["KernelSpec"] = None

    SHORT = {"knn_affinity": "knn"}
    WHAT = "kernel"

    def __post_init__(self):
        if self.family == "knn_affinity" and self.base is None:
            object.__setattr__(self, "base", KernelSpec("neg_l1"))
        super().__post_init__()
        # the gaussian divides by sigma^2, which must be a positive float
        if self.sigma is not None and not 0.0 < self.sigma * self.sigma < math.inf:
            raise BadWeightParam(f"gaussian requires sigma squared in (0, inf), got {self.sigma}")
        if self.base is not None and not _FAMILIES[self.base.family].distance:
            raise BadWeightParam(
                f"knn base must be a distance kernel, got {self.base.family!r}"
            )

    def accepts(self) -> Tuple[str, ...]:
        return _FAMILIES[self.family].kinds or self.base.accepts()


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


# family -> formula and parameters. pdist's distances d become S in place:
# negated, or put through ``transform`` (see _similarity). knn_affinity has
# no formula of its own; see _knn_affinity.
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
            Param("k", read=integer, show=str, low=0),
            Param("base", read=KernelSpec.read, show=KernelSpec.to_string, required=False),
        )
    ),
}
# set here, as the knn base's row reads and writes a KernelSpec
KernelSpec.TABLE = {family: f.params for family, f in _FAMILIES.items()}


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


# pair x feature operations up to which a held S is one pdist call; above
# it, and on more than one thread, S is filled from tiles of at most this
# many operations each (see _condensed)
_BLOCK_OPS = 2**24
# the most entries in one tile's cdist rectangle (see _tiles), and the
# moment walk's cap whatever the row length: that rectangle is the one
# buffer each worker adds
_TILE_PAIRS = 2**15


# while this thread fills a range of _fill_in_forks, .on is True here and
# in the processes it forks
_in_range = threading.local()


def thread_count() -> int:
    """Worker count of the kernel pool, the bench processes and the
    permutation draw processes: WISE_THREADS if set, else the CPUs this
    process may run on, at most 4.

    While a thread fills a range of _fill_in_forks it is 1, so no range
    starts workers of its own, and one count caps bench processes, draw
    processes and kernel threads together.
    """
    if getattr(_in_range, "on", False):
        return 1
    env = os.environ.get("WISE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidValue(f"WISE_THREADS must be an integer, got {env!r}") from None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(4, cpus or 1))


def _fill_in_forks(
    fill: Callable[[np.ndarray, int, int], None], out: np.ndarray, bounds: Sequence[int]
) -> None:
    """fill(out, a, b) fills rows a to b - 1 of out, for each pair of
    consecutive bounds.

    The first range runs here. Each other range runs in a forked child,
    which fills its rows of one anonymous shared mapping and leaves through
    os._exit, where forking is allowed: on Linux, on the main thread and
    outside any range. A range not forked, or whose child fails or cannot
    be forked, is filled here afterwards, so out is the same whichever
    children run. Every child is reaped before this returns or raises; on
    any exception the children still running are killed first. While any
    range is filled, thread_count() is 1 on this thread and in every child,
    so each range runs as one process of one thread, and a call made inside
    a range fills all its own ranges in that process.
    """
    ranges = list(zip(bounds, bounds[1:]))
    was = getattr(_in_range, "on", False)
    forkable = sys.platform == "linux" and threading.current_thread() is threading.main_thread()
    forked, again = (ranges[1:], []) if forkable and not was else ([], ranges[1:])
    if forked:
        shared = np.frombuffer(mmap.mmap(-1, out.nbytes), out.dtype).reshape(out.shape)
    children = {}
    _in_range.on = True
    try:
        for a, b in forked:
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
        _in_range.on = was
        for pid in children:
            # an unreaped child exists, if only as a zombie, so kill finds it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _rows(spec: KernelSpec, flat: np.ndarray) -> np.ndarray:
    """The rows the kernel's metric reads: prescaled, in one C-ordered copy at
    most, since each tile's cdist would otherwise copy the rows after it."""
    flat = np.ascontiguousarray(flat, dtype=np.float64)
    prescale = _FAMILIES[spec.family].prescale
    if prescale is not None:
        flat = flat * prescale(flat.shape[1])
    return flat


def pairwise_similarity(spec: KernelSpec, series: ObservationSeries) -> SimilarityMatrix:
    """The kernel's similarity matrix, from pdist's condensed distances.

    All built-in kernels are symmetric, so only the pairs i < j are computed.
    The diagonal is the transform of a zero distance: 1 for ``gaussian``,
    -0.0 for the negated distances, 0 for knn.
    """
    flat = _flat(spec, series)
    if spec.family == "knn_affinity":
        s, diagonal = _knn_affinity(flat, spec.k, spec.base), np.zeros(series.n)
    else:
        s, diagonal = _condensed(spec, flat), _similarity(spec, np.zeros(series.n), flat.shape[1])
    # the fresh vector is handed over read-only, so it is not copied
    s.flags.writeable = False
    return SimilarityMatrix(s, diagonal)


def _flat(spec: KernelSpec, series: ObservationSeries) -> np.ndarray:
    """The series' observations as rows, once the kernel accepts their kind."""
    if series.kind not in spec.accepts():
        raise KernelMismatch(
            f"kernel {spec.family} accepts kinds {spec.accepts()}, got {series.kind!r}"
        )
    return series.data.reshape(series.n, -1)


@lru_cache(maxsize=8)
def _upper(rows: int, cols: int) -> np.ndarray:
    """Read-only mask of the entries (r, c) with c >= r."""
    mask = np.arange(cols) >= np.arange(rows)[:, None]
    mask.flags.writeable = False
    return mask


def _tiles(n: int, cap: Optional[int] = None) -> List[int]:
    """Row bounds of the tiles of the pairs i < j of n rows, from 0 to n - 1.

    Tile [t, u) is rows t to u - 1 against the rows after t: one row, or as
    many as keep its rectangle, (u - t) (n - 1 - t) entries, within ``cap``
    (default _TILE_PAIRS). The bounds depend on n and ``cap`` alone, so
    every sum taken tile by tile is the same however the tiles are made and
    on however many threads.
    """
    cap = _TILE_PAIRS if cap is None else cap
    bounds = [0]
    while bounds[-1] < n - 1:
        t = bounds[-1]
        bounds.append(min(n - 1, t + max(1, cap // (n - 1 - t))))
    return bounds


def _row_start(i, n: int):
    """Where row i's pairs start in pdist's condensed vector of n rows, for
    an int or an integer array i; row n - 1's start is the vector's length."""
    return i * (2 * n - 1 - i) // 2


def _scatter(pairs: np.ndarray, k: int, cols: int) -> np.ndarray:
    """A tile's pairs, in pdist's order, in the layout of _tile's buffer,
    with 0 left of them; the walk of a held S reads its tiles so."""
    buffer = np.zeros((k + 1) * cols)
    buffer[: k * cols].reshape(k, cols)[_upper(k, cols)] = pairs
    return buffer


def _similarity(spec: KernelSpec, d: np.ndarray, p: int) -> np.ndarray:
    """S from distances d of a family with a formula, in place: divided by
    the row length p if the family is per column, then negated or put
    through its transform."""
    family = _FAMILIES[spec.family]
    if family.per_column:
        d /= p
    return np.negative(d, out=d) if family.transform is None else family.transform(d, spec)


def _tile(spec: KernelSpec, rows: np.ndarray, t: int, u: int) -> np.ndarray:
    """Tile [t, u) of the S of the n rows (see _tiles) as a fresh buffer of
    k + 1 rows of cols, k = u - t and cols = n - 1 - t.

    Its first k rows are the cdist rectangle of rows t to u - 1 against the
    rows after t, put through the formula: row r holds the pairs of row
    t + r at columns c >= r, column c being row t + 1 + c. The entries left
    of them hold no pair of the tile, and the last row is spare.
    """
    k, cols = u - t, len(rows) - 1 - t
    buffer = np.empty((k + 1) * cols)
    rect = buffer[: k * cols].reshape(k, cols)
    cdist(rows[t:u], rows[t + 1 :], _FAMILIES[spec.family].metric, out=rect)
    _similarity(spec, rect, rows.shape[1])
    return buffer


def tile_pass(make: Callable, runs: Iterable, visit: Callable, workers: int) -> Iterator[list]:
    """visit(make(t, u), t, u) on each tile [t, u) of each run, a list of
    consecutive tiles, yielding each run's list of results in run order.

    With one worker the runs run here, one after another. Otherwise each run
    is one task on a thread pool made for the pass, at most two runs per
    worker ahead of the one handed back, and a tile is made and visited on
    the thread that takes its run. An error in a run is raised here once
    the pool has finished the runs it was given, and takes the pool down.
    """

    def run(spans):
        return [visit(make(t, u), t, u) for t, u in spans]

    if workers == 1:
        yield from map(run, runs)
        return
    with ThreadPoolExecutor(workers, thread_name_prefix="wise-kernel") as pool:
        ahead = deque()
        for spans in runs:
            ahead.append(pool.submit(run, spans))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _condensed(spec: KernelSpec, flat: np.ndarray) -> np.ndarray:
    """Fresh condensed S of the rows of flat, in pdist's order.

    On one thread, or at no more than _BLOCK_OPS pair x feature operations,
    this is one pdist call. Otherwise tile_pass runs the tiles of _tiles,
    each within _BLOCK_OPS operations, on thread_count() workers, in runs of
    consecutive tiles, and each row's pairs are copied from its tile into
    their slice of S. Each pair holds pdist's own number, so S is
    byte-identical at any tile size and thread count.
    """
    flat = _rows(spec, flat)
    n, p = flat.shape
    d = np.empty(n * (n - 1) // 2)
    workers = thread_count()
    if workers == 1 or len(d) * p <= _BLOCK_OPS:
        pdist(flat, _FAMILIES[spec.family].metric, out=d)
        return _similarity(spec, d, p)
    # wide rows make smaller tiles, so there are still tiles for every worker
    bounds = _tiles(n, min(_TILE_PAIRS, max(1, _BLOCK_OPS // p)))

    def copy(buffer, t, u):
        rect = buffer.reshape(u - t + 1, n - 1 - t)
        for i in range(t, u):
            d[_row_start(i, n) : _row_start(i + 1, n)] = rect[i - t, i - t :]

    # runs of consecutive tiles of about equal pairs, about eight per worker:
    # one pool task each, so a tile costs no task of its own, and a worker
    # the host slows hands its share on
    share = len(d) / (8 * workers)
    runs = groupby(zip(bounds, bounds[1:]), lambda span: _row_start(span[0], n) // share)
    # an error reaches here once no run still writes into d
    for _ in tile_pass(partial(_tile, spec, flat), (list(run) for _, run in runs), copy, workers):
        pass
    return d


def pilot_similarity(spec: KernelSpec, rows: np.ndarray, groups) -> np.ndarray:
    """S of the pairs within each group of the rows from _rows, group by
    group in pdist's order; each group's rows are sorted, so each pair's
    value is its value in S."""
    d = np.concatenate([pdist(rows[g], _FAMILIES[spec.family].metric) for g in groups])
    return _similarity(spec, d, rows.shape[1])


def _knn_affinity(flat: np.ndarray, k: int, base: KernelSpec) -> np.ndarray:
    n = flat.shape[0]
    if k >= n:
        raise BadWeightParam(f"knn requires k < n, got k={k}, n={n}")
    # the base's S is its negated distances, and negating back is exact
    a = squareform(_condensed(base, flat))
    np.negative(a, out=a)
    # NaN sorts after inf, so no point is its own neighbour; equal distances
    # keep index order in a stable argsort, and ravel copies the k nearest,
    # so the n x n order is freed at once
    np.fill_diagonal(a, np.nan)
    neighbors = np.argsort(a, axis=1, kind="stable")[:, :k].ravel()
    # the distances' buffer becomes (A + A^T) / 2: each edge adds 0.5 both ways
    a.fill(0.0)
    rows = np.repeat(np.arange(n), k)
    a[rows, neighbors] += 0.5
    a[neighbors, rows] += 0.5
    return squareform(a, checks=False)


parse_kernel_spec = KernelSpec.parse
