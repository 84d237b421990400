import math
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from forks import assert_no_child_left, count_forks
from oracles import pair_similarity
from wise import core, kernels
from wise.errors import BadWeightParam, KernelMismatch, ParseError
from wise.kernels import (
    KernelSpec,
    frobenius,
    functional_l2,
    gaussian,
    knn_affinity,
    neg_l1,
    neg_l2,
    neg_sq_l2_scaled,
    pairwise_similarity,
    parse_kernel_spec,
    wasserstein1_quantile,
)
from wise.types import ObservationSeries

DISTANCE_SPECS = [neg_l1(), neg_l2(), neg_sq_l2_scaled()]


def test_neg_l1_value():
    assert pair_similarity(neg_l1(), np.array([0.0, 0.0]), np.array([3.0, 4.0])) == -7.0


def test_neg_l2_value():
    assert pair_similarity(neg_l2(), np.array([0.0, 0.0]), np.array([3.0, 4.0])) == -5.0


def test_neg_sq_l2_scaled_value():
    got = pair_similarity(neg_sq_l2_scaled(), np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    assert got == -12.5


def test_gaussian_self_similarity_is_one():
    x = np.array([1.0, -2.0, 0.5])
    assert pair_similarity(gaussian(1.0), x, x) == 1.0


def test_frobenius_value():
    assert pair_similarity(frobenius(), np.eye(2), np.zeros((2, 2))) == pytest.approx(
        -np.sqrt(2.0)
    )


@pytest.mark.parametrize("spec", DISTANCE_SPECS, ids=lambda s: s.family)
def test_distance_kernels_zero_at_self_and_nonpositive(spec):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        assert pair_similarity(spec, x, x) == 0.0
        assert pair_similarity(spec, x, y) <= 0.0


@pytest.mark.parametrize("spec", [neg_l1(), neg_l2()], ids=lambda s: s.family)
def test_translation_invariance(spec):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(10)
    y = rng.standard_normal(10)
    c = rng.standard_normal(10)
    assert pair_similarity(spec, x + c, y + c) == pytest.approx(
        pair_similarity(spec, x, y), abs=1e-12
    )


def test_scaled_sq_l2_concentrates_near_minus_two():
    # for independent standard-normal coordinates, mean (x_k - y_k)^2 is 2
    rng = np.random.default_rng(42)
    p = 10000
    for _ in range(100):
        x = rng.standard_normal(p)
        y = rng.standard_normal(p)
        got = pair_similarity(neg_sq_l2_scaled(), x, y)
        assert -2.3 < got < -1.7


def test_functional_l2_constant_difference():
    g = 51
    x = np.zeros(g)
    y = np.ones(g)
    # integral of 1 over [0,1] is 1, so the distance is exactly 1
    assert pair_similarity(functional_l2(), x, y) == pytest.approx(-1.0, abs=1e-12)


def test_functional_l2_linear_difference():
    g = 1001
    tau = np.linspace(0.0, 1.0, g)
    got = pair_similarity(functional_l2(), tau, np.zeros(g))
    # integral of tau^2 over [0,1] is 1/3; trapezoid error is O(h^2)
    assert got == pytest.approx(-np.sqrt(1.0 / 3.0), abs=1e-5)


def test_wasserstein1_quantile_shift():
    q = np.linspace(-1.0, 1.0, 41)
    got = pair_similarity(wasserstein1_quantile(), q, q + 0.25)
    assert got == pytest.approx(-0.25, rel=1e-12)


def test_kind_mismatch_raises():
    series = ObservationSeries("matrix", np.zeros((4, 2, 2)))
    with pytest.raises(KernelMismatch):
        pairwise_similarity(neg_l1(), series)


@pytest.mark.parametrize(
    "spec, kind, shape",
    [
        (neg_l1(), "vector", (6, 3)),
        (neg_l2(), "vector", (6, 3)),
        (neg_sq_l2_scaled(), "vector", (6, 3)),
        (gaussian(2.0), "vector", (6, 3)),
        (frobenius(), "matrix", (6, 2, 3)),
        (functional_l2(), "function", (6, 17)),
    ],
    ids=lambda v: v.family if isinstance(v, KernelSpec) else str(v),
)
def test_pairwise_matches_elementwise(spec, kind, shape):
    rng = np.random.default_rng(31)
    series = ObservationSeries(kind, rng.standard_normal(shape))
    fast = pairwise_similarity(spec, series).values
    for i in range(series.n):
        for j in range(series.n):
            slow = pair_similarity(spec, series.data[i], series.data[j])
            assert fast[i, j] == pytest.approx(slow, abs=1e-12)


def test_pairwise_matches_elementwise_quantile():
    rng = np.random.default_rng(32)
    data = np.sort(rng.standard_normal((5, 12)), axis=1)
    series = ObservationSeries("quantile", data)
    fast = pairwise_similarity(wasserstein1_quantile(), series).values
    for i in range(5):
        for j in range(5):
            slow = pair_similarity(wasserstein1_quantile(), data[i], data[j])
            assert fast[i, j] == pytest.approx(slow, abs=1e-12)


def test_knn_colinear_example():
    series = ObservationSeries("vector", np.array([[0.0], [1.0], [10.0]]))
    got = pairwise_similarity(knn_affinity(1, neg_l1()), series).values
    want = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    assert np.array_equal(got, want)


def test_knn_full_neighborhood():
    rng = np.random.default_rng(3)
    series = ObservationSeries("vector", rng.standard_normal((7, 2)))
    got = pairwise_similarity(knn_affinity(6, neg_l2()), series).values
    want = 1.0 - np.eye(7)
    assert np.array_equal(got, want)


def test_knn_ties_break_toward_lower_time_index():
    # three identical points: everyone's single neighbor is the earliest other
    series = ObservationSeries("vector", np.zeros((3, 2)))
    got = pairwise_similarity(knn_affinity(1, neg_l1()), series).values
    want = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    assert np.array_equal(got, want)


def test_knn_k_too_large():
    series = ObservationSeries("vector", np.zeros((4, 2)))
    with pytest.raises(BadWeightParam):
        pairwise_similarity(knn_affinity(4, neg_l1()), series)


def test_knn_base_must_be_distance_type():
    with pytest.raises(BadWeightParam):
        knn_affinity(2, gaussian(1.0))


def test_gaussian_requires_positive_sigma():
    with pytest.raises(BadWeightParam):
        gaussian(0.0)
    with pytest.raises(BadWeightParam):
        gaussian(-1.0)
    with pytest.raises(BadWeightParam):
        gaussian(math.inf)
    # sigma^2 overflows to inf past about 1.3e154 and is 0 below about 1e-162
    for sigma in (1e200, 1e-200):
        with pytest.raises(BadWeightParam, match="squared"):
            gaussian(sigma)


@pytest.mark.parametrize(
    "fields",
    [
        {"family": "knn_affinity", "k": 2.5},
        {"family": "gaussian", "sigma": "2"},
        {"family": "knn_affinity", "k": True},
    ],
)
def test_a_value_of_the_wrong_type_is_a_bad_parameter(fields):
    with pytest.raises(BadWeightParam):
        KernelSpec(**fields)


def test_parse_kernel_specs():
    assert parse_kernel_spec("neg_l1") == neg_l1()
    assert parse_kernel_spec("gaussian:sigma=2.5") == gaussian(2.5)
    parsed = parse_kernel_spec("knn:k=5,base=neg_l2")
    assert parsed.family == "knn_affinity"
    assert parsed.k == 5
    assert parsed.base == neg_l2()


def test_parse_knn_default_base():
    assert parse_kernel_spec("knn:k=3").base == neg_l1()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nosuchkernel",
        "gaussian",
        "gaussian:sigma=abc",
        "gaussian:tau=1",
        "neg_l1:sigma=1",
        "knn",
        "knn:base=neg_l2",
        "knn:k=x",
        "knn:k=2,base=knn",
        "knn:k=2,k=3",
        "neg_l1:family=gaussian",
        "knn:k=2;k=3",
    ],
)
def test_parse_rejects_bad_grammar(text):
    with pytest.raises(ParseError):
        parse_kernel_spec(text)


def test_parse_out_of_range_kernel_parameter():
    with pytest.raises(BadWeightParam):
        parse_kernel_spec("gaussian:sigma=0")
    with pytest.raises(BadWeightParam):
        parse_kernel_spec("gaussian:sigma=inf")
    for sigma in ("1e200", "1e-200"):
        with pytest.raises(BadWeightParam, match="squared"):
            parse_kernel_spec(f"gaussian:sigma={sigma}")
    with pytest.raises(BadWeightParam):
        parse_kernel_spec("knn:k=2,base=gaussian:sigma=1")


@pytest.mark.parametrize(
    "spec",
    [neg_l1(), gaussian(2.5), knn_affinity(4, neg_l2()), functional_l2()],
    ids=lambda s: s.family,
)
def test_string_and_json_round_trips(spec):
    assert parse_kernel_spec(spec.to_string()) == spec
    assert KernelSpec.from_json_obj(spec.to_json_obj()) == spec


@pytest.mark.parametrize(
    "spec", [neg_l1(), gaussian(2.5), knn_affinity(4, neg_l2())], ids=lambda s: s.family
)
def test_read_takes_a_spec_its_text_or_its_json(spec):
    assert [KernelSpec.read(raw) for raw in (spec, spec.to_string(), spec.to_json_obj())] == [spec] * 3


def _trapezoid(g):
    w = np.full(g, 1.0 / (g - 1))
    w[0] = w[-1] = 0.5 / (g - 1)
    return w


# each distance kernel as its own scipy formula, with the kind and observation
# shape it takes; S = INLINE[family](rows flattened to vectors)
INLINE = {
    "neg_l1": (lambda f: -squareform(pdist(f, "cityblock")), "vector", (5,)),
    "neg_l2": (lambda f: -squareform(pdist(f, "euclidean")), "vector", (5,)),
    "neg_sq_l2_scaled": (
        lambda f: -squareform(pdist(f, "sqeuclidean")) / f.shape[1], "vector", (5,)
    ),
    "frobenius": (lambda f: -squareform(pdist(f, "euclidean")), "matrix", (2, 3)),
    "functional_l2": (
        lambda f: -squareform(pdist(f * np.sqrt(_trapezoid(f.shape[1])), "euclidean")),
        "function",
        (9,),
    ),
    "wasserstein1_quantile": (
        lambda f: -squareform(pdist(f, "cityblock")) / f.shape[1], "quantile", (7,)
    ),
}


def assert_layout(S, want):
    """S holds want's upper triangle in pdist's order, and its square form is
    want bit for bit (the -0.0 diagonal of the negated distances included)."""
    assert np.array_equal(S.condensed, want[np.triu_indices(S.n, 1)])
    assert S.values.tobytes() == want.tobytes()


def _series(kind, shape, ties, n=30):
    data = np.random.default_rng(41).standard_normal((n,) + shape)
    if ties:  # coarse values make equal distances, and knn ties to break
        data = np.round(data)
    if kind == "quantile":
        data = np.sort(data, axis=1)
    return ObservationSeries(kind, data)


def _knn(dist, k):
    """(A + A^T) / 2 of each point's k nearest under the square distances
    ``dist``, ties to the lower index; NaN sorts last, so never itself."""
    n = dist.shape[0]
    dist = dist.copy()
    np.fill_diagonal(dist, np.nan)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, np.argsort(dist[i], kind="stable")[:k]] = 1.0
    return (a + a.T) / 2.0


def _inline(family, ties, n=30):
    """A series the family takes, the family's spec and its S by its own
    scipy formula; knn is built on neg_l1 with k = 3."""
    if family == "gaussian":
        series = _series("vector", (5,), ties, n)
        sq = squareform(pdist(series.data, "sqeuclidean"))
        return series, gaussian(1.7), np.exp(-sq / (2.0 * 1.7**2))
    base = "neg_l1" if family == "knn" else family
    formula, kind, shape = INLINE[base]
    series = _series(kind, shape, ties, n)
    want = formula(series.data.reshape(n, -1))
    if family == "knn":
        return series, knn_affinity(3, KernelSpec(base)), _knn(-want, 3)
    return series, KernelSpec(family), want


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize("family", list(INLINE) + ["gaussian"])
def test_pairwise_equals_inline_formula(family, ties):
    series, spec, want = _inline(family, ties)
    assert_layout(pairwise_similarity(spec, series), want)


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize("base", list(INLINE))
def test_knn_equals_inline_construction(base, ties):
    formula, kind, shape = INLINE[base]
    series = _series(kind, shape, ties)
    k = 3
    want = _knn(-formula(series.data.reshape(series.n, -1)), k)
    spec = knn_affinity(k, KernelSpec(base))
    assert_layout(pairwise_similarity(spec, series), want)


# the shifted rows are equal to each other and an inf distance from the
# rest, past the float64 range: the graph is built as from finite ones. One
# shifted row is an inf distance from every other row, as an inf diagonal
# would be from itself, and still takes 3 neighbours, none of them itself
@pytest.mark.parametrize("shifted", [slice(None, None, 3), 1], ids=["every third row", "one row"])
def test_knn_of_base_distances_that_overflow_is_a_graph(shifted):
    data = np.random.default_rng(8).standard_normal((12, 3))
    data[shifted] += 1e200
    series = ObservationSeries("vector", data)
    with np.errstate(over="ignore"):
        dist = squareform(pdist(data, "euclidean"))
        S = pairwise_similarity(knn_affinity(3, neg_l2()), series)
    assert np.isinf(dist).any()
    assert (S.values != 0.0).sum(axis=1).min() >= 3
    assert_layout(S, _knn(dist, 3))


# up to _BLOCK_OPS pair x feature operations S is one pdist call, and past it
# (on more than one thread) it is filled from the tiles of _tiles: 1 puts
# every case on the tiles, 100 all but n = 4, and 10^4 only n = 301 and the
# functional series at n = 50. A tile is one row or a rectangle of at most
# _TILE_PAIRS entries, here 1, 2n or 2^16, and of at most _BLOCK_OPS
# operations: at 1 every tile is one row, at 100 tiles have 1 to 4 rows,
# and at 10^4 with 2^16 every tile has 3 rows or more. Past _BLOCK_OPS the
# pairs never fit in one rectangle of the cap
@pytest.mark.parametrize("tile", ["1 row", "2 rows", "many rows"])
@pytest.mark.parametrize("block_ops", [1, 100, 10**4])
@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("n", [4, 7, 50, 301])
@pytest.mark.parametrize("family", list(INLINE) + ["gaussian", "knn"])
def test_blocked_kernel_is_byte_identical_to_pdist(family, n, threads, block_ops, tile, monkeypatch):
    monkeypatch.setenv("WISE_THREADS", threads)
    monkeypatch.setattr(kernels, "_BLOCK_OPS", block_ops)
    monkeypatch.setattr(kernels, "_TILE_PAIRS", {"1 row": 1, "2 rows": 2 * n, "many rows": 2**16}[tile])
    series, spec, want = _inline(family, ties=False, n=n)
    # freed at once, so the kernel's own buffer is likely this one: a pair
    # no tile fills reads NaN, not a value left by an earlier call
    np.full(n * (n - 1) // 2, np.nan)
    S = pairwise_similarity(spec, series)
    assert S.condensed.tobytes() == want[np.triu_indices(n, 1)].tobytes()


@pytest.mark.parametrize("cap", [1, 7, 64, 1000, 2**15])
def test_every_tile_is_one_row_or_a_rectangle_within_the_cap(cap):
    for n in [*range(2, 301), 1449, 4000]:
        bounds = kernels._tiles(n, cap)
        assert bounds[0] == 0 and bounds[-1] == n - 1, n
        for t, u in zip(bounds, bounds[1:]):
            entries = (u - t) * (n - 1 - t)
            assert u > t, (n, t)
            assert u == t + 1 or entries <= cap, (n, t, u)
            # as many rows as fit: one more would pass the cap
            assert u == n - 1 or entries + n - 1 - t > cap, (n, t, u)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("layout", ["fortran", "sliced"])
@pytest.mark.parametrize("spec", [KernelSpec(f) for f in INLINE] + [gaussian(1.7)], ids=str)
def test_blocked_kernel_reads_any_memory_layout(spec, layout, threads, monkeypatch):
    wide = np.random.default_rng(5).standard_normal((60, 36))
    x = wide[:, ::2] if layout == "sliced" else np.asfortranarray(wide)
    want = kernels._condensed(spec, np.ascontiguousarray(x))  # one pdist call
    monkeypatch.setenv("WISE_THREADS", threads)
    # 1800 operations allow 50 entries of the 36 columns and all 100 of the
    # 18 sliced ones: tiles of 1 to 6 and of 1 to 7 rows
    monkeypatch.setattr(kernels, "_BLOCK_OPS", 1800)
    monkeypatch.setattr(kernels, "_TILE_PAIRS", 100)
    assert kernels._condensed(spec, x).tobytes() == want.tobytes()


def _blocked_setup(monkeypatch):
    """Two threads and the tile pass: tiles of 2 to 9 rows, each of at most
    100 entries; returns a series and its neg_l1 pairs."""
    monkeypatch.setenv("WISE_THREADS", "2")
    monkeypatch.setattr(kernels, "_BLOCK_OPS", 500)  # 500 / 5 columns: 100 pairs
    monkeypatch.setattr(kernels, "_TILE_PAIRS", 100)
    series = _series("vector", (5,), False, n=50)
    return series, -pdist(series.data, "cityblock")


# the two passes over the tiles on the kernel's pool
TILE_PASSES = {
    "held fill": lambda series: pairwise_similarity(neg_l1(), series),
    "streamed walk": lambda series: core.kernel_summary(series, neg_l1()),
}


@pytest.mark.parametrize("caller", list(TILE_PASSES))
def test_an_error_in_a_block_reaches_the_caller(caller, monkeypatch):
    series, want = _blocked_setup(monkeypatch)

    def broken(*args, **kwargs):
        raise MemoryError("no room for this tile")

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "cdist", broken)
        with pytest.raises(MemoryError, match="no room"):
            TILE_PASSES[caller](series)
    # the failed call waited for every tile before raising and took its
    # pool down with it, so the next call starts clean on a pool of its own
    assert pairwise_similarity(neg_l1(), series).condensed.tobytes() == want.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    series, want = _blocked_setup(monkeypatch)
    # the parent's call joins its pool before returning, so no kernel thread
    # holds a lock at the fork, and the child's call makes a pool of its own
    assert pairwise_similarity(neg_l1(), series).condensed.tobytes() == want.tobytes()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = int(pairwise_similarity(neg_l1(), series).condensed.tobytes() != want.tobytes())
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on its parent's pool")
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_tile_pass_hands_back_its_runs_in_run_order():
    # the first run's one tile is the last to finish on three workers
    runs = [[(0, 1)], [(1, 3), (3, 4)], [(4, 5)], [(5, 7)], [(7, 8), (8, 9)]]

    def visit(tile, t, u):
        if t == 0:
            time.sleep(0.2)
        return tile, t, u

    def make(t, u):
        return f"tile {t}-{u}"

    want = [[(make(t, u), t, u) for t, u in run] for run in runs]
    assert list(kernels.tile_pass(make, runs, visit, 3)) == want
    assert list(kernels.tile_pass(make, runs, visit, 1)) == want


def test_the_held_walk_makes_no_thread_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    n = 400  # several tiles of S
    assert len(kernels._tiles(n)) > 3
    series = ObservationSeries("vector", np.random.default_rng(4).standard_normal((n, 3)))
    S = pairwise_similarity(neg_l1(), series)
    monkeypatch.setenv("WISE_THREADS", "2")
    monkeypatch.setattr(kernels, "ThreadPoolExecutor", refuse)
    assert core.moment_summary(S).s1 == pytest.approx(2.0 * S.condensed.sum(), rel=1e-12)


def _write(value):
    """A fill that writes value() into each row of its range."""

    def fill(out, a, b):
        out[a:b] = value()

    return fill


def test_every_range_of_a_fan_out_runs_on_one_worker(monkeypatch):
    monkeypatch.setenv("WISE_THREADS", "3")
    forks = count_forks(monkeypatch)
    out = np.zeros(3)
    kernels._fill_in_forks(_write(kernels.thread_count), out, [0, 1, 2, 3])
    assert out.tolist() == [1.0, 1.0, 1.0]
    assert len(forks) == 2
    assert kernels.thread_count() == 3
    assert_no_child_left()


def test_one_range_runs_here_on_one_worker(monkeypatch):
    monkeypatch.setenv("WISE_THREADS", "3")
    forks = count_forks(monkeypatch)
    out = np.zeros(3)
    kernels._fill_in_forks(_write(kernels.thread_count), out, [0, 3])
    assert out.tolist() == [1.0, 1.0, 1.0]
    assert forks == []
    assert kernels.thread_count() == 3


def test_ranges_off_the_main_thread_run_here_on_one_worker(monkeypatch):
    monkeypatch.setenv("WISE_THREADS", "3")
    forks = count_forks(monkeypatch)
    entered, release = threading.Event(), threading.Event()
    out, after = np.zeros(3), []

    def fill(out, a, b):
        entered.set()
        release.wait(10)
        out[a:b] = kernels.thread_count()

    def run():
        kernels._fill_in_forks(fill, out, [0, 1, 2, 3])
        after.append(kernels.thread_count())

    worker = threading.Thread(target=run)
    worker.start()
    assert entered.wait(10)
    # the budget is the filling thread's; the main thread keeps its own
    assert kernels.thread_count() == 3
    release.set()
    worker.join(10)
    assert not worker.is_alive()
    assert out.tolist() == [1.0, 1.0, 1.0]
    assert forks == []
    assert after == [3]
    assert kernels.thread_count() == 3


def test_the_worker_count_returns_after_an_error_in_the_callers_range(monkeypatch):
    monkeypatch.setenv("WISE_THREADS", "3")
    parent = os.getpid()

    def fill(out, a, b):
        if os.getpid() == parent:
            raise RuntimeError("caller's range failed")
        out[a:b] = 1.0

    with pytest.raises(RuntimeError, match="caller's range"):
        kernels._fill_in_forks(fill, np.zeros(3), [0, 1, 2, 3])
    assert kernels.thread_count() == 3
    assert_no_child_left()


def test_a_fan_out_inside_a_range_forks_no_further(monkeypatch):
    monkeypatch.setenv("WISE_THREADS", "3")
    forks = count_forks(monkeypatch)

    def fill(out, a, b):
        # each row: the pid that fills the range, then the pids that fill
        # the two ranges of a fan-out nested in it
        for row in range(a, b):
            inner = np.zeros(2)
            kernels._fill_in_forks(_write(os.getpid), inner, [0, 1, 2])
            out[row] = [os.getpid(), *inner]

    out = np.zeros((3, 3))
    kernels._fill_in_forks(fill, out, [0, 1, 2, 3])
    assert all(len(set(row)) == 1 for row in out.tolist())
    assert out[0, 0] == os.getpid() and len(set(out[:, 0])) == 3
    # the caller forked the outer ranges' two children and nothing more
    assert forks == [os.getpid()] * 2
    assert_no_child_left()


def test_blocked_kernel_memory_at_n_2000(monkeypatch):
    # p = 2 gives the widest tiles. At 2^21 operations S is filled from the
    # tiles: 16 rows at first, 161 at the end. Only each worker's cdist
    # rectangle is extra, capped at 2^15 entries
    n = 2000
    monkeypatch.setenv("WISE_THREADS", "2")
    monkeypatch.setattr(kernels, "_BLOCK_OPS", 2**21)
    series = ObservationSeries("vector", np.random.default_rng(3).standard_normal((n, 2)))
    tracemalloc.start()
    try:
        pairwise_similarity(neg_l1(), series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * (n - 1) // 2 * 8  # S's pairs and a quarter more


def test_knn_memory_at_n_2000():
    n = 2000
    series = ObservationSeries("vector", np.random.default_rng(3).standard_normal((n, 20)))
    tracemalloc.start()
    try:
        pairwise_similarity(knn_affinity(5, neg_l2()), series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8  # three float64 n x n arrays


@pytest.mark.parametrize("base", list(INLINE))
def test_knn_round_trips_over_every_base(base):
    spec = knn_affinity(2, KernelSpec(base))
    assert parse_kernel_spec(spec.to_string()) == spec
    assert KernelSpec.from_json_obj(spec.to_json_obj()) == spec


def test_canonical_strings():
    assert neg_l1().to_string() == "neg_l1"
    assert gaussian(2.5).to_string() == "gaussian:sigma=2.5"
    assert knn_affinity(4, neg_l2()).to_string() == "knn:k=4,base=neg_l2"
    assert knn_affinity(3).to_string() == "knn:k=3,base=neg_l1"


@pytest.mark.parametrize(
    "text, obj",
    [
        ("neg_l1:sigma=2", {"family": "neg_l1", "sigma": 2}),
        ("gaussian:sigm=1", {"family": "gaussian", "sigm": 1}),
        ("gaussian:sigma=1,k=2", {"family": "gaussian", "sigma": 1, "k": 2}),
        ("knn:k=2,junk=1", {"family": "knn", "k": 2, "junk": 1}),
        ("knn:base=neg_l2", {"family": "knn_affinity", "base": {"family": "neg_l2"}}),
    ],
)
def test_text_and_json_reject_the_same_keys(text, obj):
    with pytest.raises(ParseError):
        parse_kernel_spec(text)
    with pytest.raises(ParseError):
        KernelSpec.from_json_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"family": "knn", "k": 5.7},
        {"family": "knn", "k": "5"},
        {"family": "gaussian", "sigma": "2.5"},
        {"family": "gaussian", "sigma": True},
        {"family": "knn", "k": True},
    ],
)
def test_json_rejects_values_of_the_wrong_type(obj):
    with pytest.raises(ParseError):
        KernelSpec.from_json_obj(obj)


def test_parameters_outside_the_family_rejected():
    with pytest.raises(BadWeightParam):
        KernelSpec("neg_l1", sigma=2.0)
