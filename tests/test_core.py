import numpy as np
import pytest
from scipy.linalg import toeplitz

from oracles import random_sym
from wise import core, kernels
from wise.core import (
    build_similarity_matrix,
    build_weight_matrix,
    moment_summary,
    validate_series,
)
from wise.engine import _raw_moments, _weight_sums
from wise.errors import (
    InvalidValue,
    NotAQuantile,
    ShapeMismatch,
    TooFewObservations,
)
from wise.kernels import gaussian, knn_affinity, neg_l1
from wise.types import ObservationSeries, SimilarityMatrix, WeightMatrix
from wise.weights import cosine, default_weight, fourier, geometric, mixed, parse_weight_spec


def test_validate_series_well_formed():
    rng = np.random.default_rng(0)
    series = validate_series(rng.standard_normal((50, 200)), "vector")
    assert series.n == 50
    assert series.data.shape[1:] == (200,)


def test_validate_series_too_short():
    with pytest.raises(TooFewObservations):
        validate_series(np.zeros((3, 5)), "vector")


def test_validate_series_nan_rejected():
    data = np.zeros((5, 4))
    data[2, 1] = np.nan
    with pytest.raises(InvalidValue):
        validate_series(data, "vector")


def test_validate_series_ragged_rejected():
    with pytest.raises(ShapeMismatch):
        validate_series([[1.0, 2.0], [3.0], [4.0, 5.0], [6.0, 7.0]], "vector")


def test_validate_series_nonmonotone_quantile():
    data = np.tile(np.linspace(0, 1, 6), (4, 1))
    data[1, 3] = -5.0
    with pytest.raises(NotAQuantile):
        validate_series(data, "quantile")


def test_validate_series_matrix_kind():
    series = validate_series(np.zeros((4, 3, 2)), "matrix")
    assert series.data.shape[1:] == (3, 2)


def test_similarity_two_point_example():
    series = ObservationSeries("vector", np.array([[0.0, 0.0], [3.0, 4.0]]))
    S = build_similarity_matrix(series, neg_l1())
    assert S.values[0, 1] == -7.0
    assert S.values[1, 0] == -7.0
    assert S.values[0, 0] == 0.0


def test_similarity_identical_observations():
    series = ObservationSeries("vector", np.ones((5, 3)))
    S = build_similarity_matrix(series, neg_l1())
    assert np.array_equal(S.values, np.zeros((5, 5)))


def test_similarity_diagonal_keeps_kernel_self_value():
    rng = np.random.default_rng(2)
    series = ObservationSeries("vector", rng.standard_normal((5, 3)))
    S = build_similarity_matrix(series, gaussian(1.5))
    assert np.array_equal(np.diag(S.values), np.ones(5))


def test_similarity_equivariant_under_reordering():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((8, 4))
    perm = rng.permutation(8)
    S = build_similarity_matrix(ObservationSeries("vector", data), neg_l1())
    S_perm = build_similarity_matrix(ObservationSeries("vector", data[perm]), neg_l1())
    assert np.allclose(S_perm.values, S.values[np.ix_(perm, perm)], atol=0, rtol=1e-14)


def test_weight_matrix_default_first_row():
    W = build_weight_matrix(4, default_weight())
    assert np.array_equal(toeplitz(W.profile)[0], np.array([0.0, -0.5, -0.8, -0.9]))


def test_weight_matrix_geometric_entry():
    W = build_weight_matrix(4, geometric(0.5))
    assert toeplitz(W.profile)[0, 2] == -0.75


def test_weight_matrix_cosine_period():
    w = toeplitz(build_weight_matrix(5, cosine(4.0)).profile)
    assert w[0, 4] == pytest.approx(0.0, abs=1e-15)
    assert w[0, 2] == pytest.approx(-2.0, abs=1e-15)


@pytest.mark.parametrize(
    "spec",
    [default_weight(), geometric(0.5), cosine(3.0), fourier([(0.5, 4.0), (0.5, 6.0)]), mixed(0.5, 1.2, 7.0)],
    ids=lambda s: s.family,
)
@pytest.mark.parametrize("n", [2, 4, 9])
def test_weight_matrix_toeplitz_zero_diagonal(spec, n):
    w = toeplitz(build_weight_matrix(n, spec).profile)
    assert np.array_equal(w, w.T)
    assert np.array_equal(np.diag(w), np.zeros(n))
    for i in range(n - 1):
        for j in range(n - 1):
            assert w[i, j] == w[i + 1, j + 1]


def test_weight_matrix_needs_two_points():
    with pytest.raises(TooFewObservations):
        build_weight_matrix(1, default_weight())


@pytest.mark.parametrize("n", [5.5, 5.0, True, "5", None])
def test_weight_matrix_size_must_be_an_integer(n):
    with pytest.raises(InvalidValue, match="n must be an integer"):
        build_weight_matrix(n, default_weight())


def test_weight_matrix_size_takes_any_integer_type():
    assert build_weight_matrix(np.int64(5), default_weight()).profile.shape == (5,)


def test_weight_sums_default_weight_n4():
    # w(1..3) = -0.5, -0.8, -0.9 and w_bar = -8/12; centered lags 1/6, -2/15,
    # -7/30 occur 6, 4, 2 times, and the raw row sums -2.2, -1.8, -1.8, -2.2
    # lose 3 w_bar = -2 each, leaving -0.2, 0.2, 0.2, -0.2
    W = build_weight_matrix(4, default_weight())
    (w1,), ((w2,),), ((w3,),), (a,) = _weight_sums(W.profile[None])
    assert w1 == -8.0
    assert w2 == pytest.approx(26.0 / 75.0, rel=1e-12)
    assert w3 == pytest.approx(4 * 0.2**2, rel=1e-12)
    assert a == pytest.approx([0.0, 1.0 / 6.0, -2.0 / 15.0, -7.0 / 30.0], rel=1e-12)


def test_moment_summary_single_pair():
    # s_bar = 1/6: the pair becomes 5/6 twice, the other ten entries -1/6
    s = np.zeros((4, 4))
    s[0, 1] = s[1, 0] = 1.0
    M = moment_summary(SimilarityMatrix.from_square(s))
    assert M.s1 == 2.0
    assert M.s2 == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert M.s3 == pytest.approx(1.0, rel=1e-15)
    assert M.s_row == pytest.approx([0.5, 0.5, -0.5, -0.5], rel=1e-15)
    assert M.s_abs_row == pytest.approx([7 / 6, 7 / 6, 0.5, 0.5], rel=1e-15)
    assert M.s_abs_max == pytest.approx(5.0 / 6.0, rel=1e-15)


@pytest.mark.parametrize("n", [0, 1])
def test_moment_summary_needs_a_pair(n):
    with pytest.raises(TooFewObservations):
        moment_summary(SimilarityMatrix(np.zeros(0), np.zeros(n)))


def test_moment_summary_zero_field():
    M = moment_summary(SimilarityMatrix.from_square(np.zeros((5, 5))))
    assert (M.s1, M.s2, M.s3) == (0.0, 0.0, 0.0)


def test_moment_summary_excludes_diagonal():
    # gaussian self-similarity sits on the diagonal and must not leak in
    rng = np.random.default_rng(4)
    series = ObservationSeries("vector", rng.standard_normal((6, 3)))
    S = build_similarity_matrix(series, gaussian(1.0))
    M = moment_summary(S)
    off = S.values[~np.eye(6, dtype=bool)]
    assert M.s1 == pytest.approx(off.sum(), rel=1e-12)
    assert M.s2 == pytest.approx(((off - off.mean()) ** 2).sum(), rel=1e-12)


def test_moment_summary_row_sum_identities():
    def centered(x):
        out = x - x[~np.eye(len(x), dtype=bool)].mean()
        np.fill_diagonal(out, 0.0)
        return out

    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        S = random_sym(rng, n)
        W = build_weight_matrix(n, default_weight())
        M = moment_summary(S)
        _, ((w2,),), ((w3,),), (a,) = _weight_sums(W.profile[None])
        A, B = centered(toeplitz(W.profile)), centered(S.values)
        assert a == pytest.approx(A[0], rel=1e-12)
        assert M.s_row == pytest.approx(B.sum(axis=1), rel=1e-12)
        assert w2 == pytest.approx((A**2).sum(), rel=1e-12)
        assert w3 == pytest.approx((A.sum(axis=1) ** 2).sum(), rel=1e-12)
        assert M.s3 == pytest.approx((M.s_row**2).sum(), rel=1e-12)
        assert M.s_abs_row == pytest.approx(np.abs(B).sum(axis=1), rel=1e-12)


# a held S is walked on the tiles of _tiles(n), each one row or a rectangle
# of at most _TILE_PAIRS entries: 1 makes every tile one row, 7 one-row
# tiles and one of 2 rows, 64 and 1000 a single tile up to n = 9, and from
# n = 64 on, 64 one-row tiles that run into tiles of up to 6 rows and 1000
# tiles of 15 to 29 rows at n = 64 and 65 and of 3 to 28 at n = 257; 2^15
# makes a single tile but at n = 257, two of 128 rows. The walk never
# reads the weight; each weight checks its own sums and the zc that its
# profile makes of the walk's lag sums at this tile size
@pytest.mark.parametrize("weight", ["default", "geometric:rho=0.5", "cosine:l=4"])
@pytest.mark.parametrize("n", [4, 5, 9, 64, 65, 257])
@pytest.mark.parametrize("tile", [1, 7, 64, 1000, 2**15])
def test_moment_walk_matches_dense_reference_at_any_tile_size(tile, n, weight, monkeypatch):
    monkeypatch.setattr(kernels, "_TILE_PAIRS", tile)
    series = ObservationSeries("vector", np.random.default_rng(n).standard_normal((n, 3)))
    S = build_similarity_matrix(series, neg_l1())
    W = build_weight_matrix(n, parse_weight_spec(weight))
    M = moment_summary(S)
    (w1,), ((w2,),), ((w3,),), (a,) = _weight_sums(W.profile[None])
    got = {
        **{name: getattr(M, name) for name in ("s1", "s2", "s3", "s_row", "s_abs_row", "lag_sums")},
        "w1": w1, "w2": w2, "w3": w3, "a": a, "zc": _raw_moments(M, W.profile[None])[2][0],
    }

    pairs = n * (n - 1)
    off = ~np.eye(n, dtype=bool)
    w, s = toeplitz(W.profile), S.values
    A = np.where(off, w - w[off].mean(), 0.0)
    B = np.where(off, s - s[off].mean(), 0.0)

    def sums(w, s, A, B):
        return {
            "s1": s[off].sum(), "s2": (B * B).sum(), "s3": (B.sum(1) ** 2).sum(), "s_row": B.sum(1),
            "s_abs_row": np.abs(B).sum(1), "lag_sums": np.array([np.trace(B, t) for t in range(n)]),
            "w1": w[off].sum(), "w2": (A * A).sum(), "w3": (A.sum(1) ** 2).sum(), "a": A[0],
            "zc": (A * B).sum(),
        }

    # relative to the same sum of absolute values, the scale of its rounding:
    # centered sums such as a lag sum, zc or cosine's row sums can land near zero
    scale = sums(np.abs(w), np.abs(s), np.abs(A), np.abs(B))
    for name, want in sums(w, s, A, B).items():
        assert np.abs(got[name] - want).max() <= 1e-12 * np.max(scale[name]), name
    # the walk centers by the same float m0 = s1 / pairs
    assert M.s_abs_max == np.abs(S.condensed - M.s1 / pairs).max()


@pytest.mark.parametrize("n", [1449, 1500])
@pytest.mark.parametrize("margin", [8.0, 0.0], ids=["band", "second pass"])
def test_pilot_walk_matches_dense_reference(n, margin, monkeypatch):
    # from core._STREAM_PAIRS pairs on the walk is centered at the pilot mean
    # and corrected to the exact mean; a margin of 0 takes a second pass
    monkeypatch.setattr(core, "_BAND_SE", margin)
    assert n * (n - 1) // 2 >= core._STREAM_PAIRS
    x = np.random.default_rng(n).standard_normal((n, 3))
    S = build_similarity_matrix(ObservationSeries("vector", x), gaussian(1.5))
    M = moment_summary(S)
    off = ~np.eye(n, dtype=bool)
    s = S.values
    B = np.where(off, s - s[off].mean(), 0.0)
    want = {
        "s1": s[off].sum(), "s2": (B * B).sum(), "s3": (B.sum(1) ** 2).sum(), "s_row": B.sum(1),
        "s_abs_row": np.abs(B).sum(1), "lag_sums": np.array([np.trace(B, t) for t in range(n)]),
    }
    scale = {"s1": np.abs(s[off]).sum(), "s_row": np.abs(B).sum(1).max(), "lag_sums": n * np.abs(B).max()}
    for name, value in want.items():
        tol = 1e-12 * scale.get(name, np.max(np.abs(value)))
        assert np.abs(getattr(M, name) - value).max() <= tol, name
    assert M.s_abs_max == np.abs(S.condensed - M.s1 / (n * (n - 1))).max()


# with the streaming size at one pair every n streams; a cap of 1 entry
# makes every tile one row, 7 one-row tiles and one of 2 rows, 64 a single
# tile up to n = 9 and tiles of 1 to 6 rows from n = 64 on, and 2^15 a
# single tile but at n = 257, two of 128 rows
@pytest.mark.parametrize("tile", [1, 7, 64, 2**15])
@pytest.mark.parametrize("n", [4, 5, 9, 64, 65, 257])
def test_streamed_walk_matches_held_walk_and_dense_reference_at_any_tile_size(n, tile, monkeypatch):
    monkeypatch.setattr(core, "_STREAM_PAIRS", 1)
    monkeypatch.setattr(kernels, "_TILE_PAIRS", tile)
    series = ObservationSeries("vector", np.random.default_rng(n).standard_normal((n, 3)))
    S = build_similarity_matrix(series, gaussian(1.0))
    streamed, held = core.kernel_summary(series, gaussian(1.0)), moment_summary(S)
    names = ("s1", "s2", "s3", "s_row", "s_abs_row", "s_abs_max", "lag_sums")
    for name in names:
        assert np.array_equal(getattr(streamed, name), getattr(held, name)), name
    off = ~np.eye(n, dtype=bool)
    s = S.values
    B = np.where(off, s - s[off].mean(), 0.0)
    scale = np.abs(B).sum()
    assert np.abs(held.s_abs_row - np.abs(B).sum(1)).max() <= 1e-12 * scale
    assert np.abs(held.lag_sums - [np.trace(B, t) for t in range(n)]).max() <= 1e-12 * scale
    assert held.s2 == pytest.approx((B * B).sum(), rel=1e-12)


@pytest.mark.parametrize("S", [np.zeros(6), np.zeros((4, 4)), None], ids=["pairs", "square", "none"])
def test_moment_summary_of_what_is_not_a_similarity_matrix_is_an_invalid_value(S):
    with pytest.raises(InvalidValue, match="SimilarityMatrix"):
        moment_summary(S)


@pytest.mark.parametrize("series", [np.zeros((10, 3)), None], ids=["array", "none"])
def test_similarity_of_what_is_not_a_series_is_an_invalid_value(series):
    with pytest.raises(InvalidValue, match="ObservationSeries"):
        build_similarity_matrix(series, neg_l1())


SERIES = ObservationSeries("vector", np.zeros((10, 3)))


@pytest.mark.parametrize(
    "series, spec, match",
    [
        (np.zeros((10, 3)), neg_l1(), "ObservationSeries, got ndarray"),
        (None, neg_l1(), "ObservationSeries, got NoneType"),
        (SERIES, "neg_l1", "KernelSpec, got str"),
        (SERIES, None, "KernelSpec, got NoneType"),
        (SERIES, knn_affinity(3), "knn_affinity"),
    ],
    ids=["array", "no series", "spec text", "no spec", "knn"],
)
def test_kernel_summary_of_bad_input_is_an_invalid_value(series, spec, match):
    with pytest.raises(InvalidValue, match=match):
        core.kernel_summary(series, spec)


def test_kernel_summary_of_one_observation_is_too_few():
    with pytest.raises(TooFewObservations, match="n >= 2"):
        core.kernel_summary(ObservationSeries("vector", np.zeros((1, 3))), neg_l1())


def test_moment_summary_dimension_mismatch():
    # the summary of a 4-point S meets a 5-point W where the moments are formed
    M = moment_summary(SimilarityMatrix.from_square(np.zeros((4, 4))))
    with pytest.raises(ShapeMismatch):
        _raw_moments(M, build_weight_matrix(5, default_weight()).profile[None])


def test_similarity_matrix_requires_exact_symmetry():
    a = np.zeros((3, 3))
    a[0, 1] = 1e-9
    with pytest.raises(ShapeMismatch):
        SimilarityMatrix.from_square(a)


@pytest.mark.parametrize(
    "square, error",
    [
        ([["a", "b"], ["b", "a"]], InvalidValue),
        ([[0.0, 1.0], [1.0]], ShapeMismatch),
        ([[0.0, 1j], [1j, 0.0]], InvalidValue),
        ([["0", "1"], ["1", "0"]], InvalidValue),
    ],
    ids=["text", "ragged", "complex", "numeric_text"],
)
@pytest.mark.parametrize(
    "build",
    [
        SimilarityMatrix.from_square,
        lambda square: ObservationSeries("vector", square),
        lambda square: SimilarityMatrix(square, np.zeros(2)),
        lambda square: WeightMatrix(square),
    ],
    ids=["from_square", "series", "similarity", "weight"],
)
def test_similarity_matrix_rejects_what_is_not_a_real_square(square, error, build):
    with pytest.raises(error):
        build(square)


def test_similarity_matrix_keeps_a_fresh_read_only_vector():
    # a kernel's output is handed over, not copied
    condensed = np.arange(6.0)
    condensed.flags.writeable = False
    assert SimilarityMatrix(condensed, np.zeros(4)).condensed is condensed


def test_similarity_matrix_from_square_round_trips():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((7, 7))
    a = (a + a.T) / 2
    S = SimilarityMatrix.from_square(a)
    assert np.array_equal(S.values, a)
    assert np.array_equal(S.condensed, a[np.triu_indices(7, 1)])
    assert np.array_equal(S.diagonal, np.diag(a))
    assert not S.values.flags.writeable


@pytest.mark.parametrize(
    "condensed, diagonal, error",
    [
        (np.zeros(5), np.zeros(4), ShapeMismatch),  # 4 points have 6 pairs
        (np.zeros((2, 3)), np.zeros(4), ShapeMismatch),
        (np.array([0.0, np.nan, 0.0]), np.zeros(3), InvalidValue),
        (np.zeros(3), np.array([0.0, np.inf, 0.0]), InvalidValue),
    ],
)
def test_similarity_matrix_checks_its_vectors(condensed, diagonal, error):
    with pytest.raises(error):
        SimilarityMatrix(condensed, diagonal)


@pytest.mark.parametrize("where", ["condensed", "diagonal"])
@pytest.mark.parametrize("position", [0, 2, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_similarity_matrix_refuses_a_non_finite_entry_anywhere(where, position, bad):
    vectors = {"condensed": np.linspace(-3.0, 2.0, 10), "diagonal": np.zeros(5)}
    vectors[where][position] = bad
    with pytest.raises(InvalidValue):
        SimilarityMatrix(**vectors)


def test_similarity_matrix_accepts_extreme_finite_values():
    big = np.finfo(np.float64).max
    S = SimilarityMatrix(np.array([-big, big, big]), np.zeros(3))
    assert S.condensed[1] == big


def test_weight_matrix_rejects_nonzero_diagonal():
    with pytest.raises(InvalidValue):
        WeightMatrix(np.array([0.5, -0.5, -0.8]))


def test_weight_matrix_holds_only_its_profile():
    n = 10_000
    W = build_weight_matrix(n, default_weight())
    assert W.profile.nbytes == 8 * n


def test_series_is_immutable():
    series = ObservationSeries("vector", np.zeros((4, 2)))
    with pytest.raises(ValueError):
        series.data[0, 0] = 1.0
