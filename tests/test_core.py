import numpy as np
import pytest
from scipy.linalg import toeplitz

from oracles import random_sym
from wise import core
from wise.core import (
    build_similarity_matrix,
    build_weight_matrix,
    moment_summary,
    validate_series,
)
from wise.errors import (
    InvalidValue,
    NotAQuantile,
    ShapeMismatch,
    TooFewObservations,
)
from wise.kernels import gaussian, neg_l1
from wise.types import ObservationSeries, SimilarityMatrix, WeightMatrix
from wise.weights import cosine, default_weight, fourier, geometric, mixed, parse_weight_spec


def test_validate_series_well_formed():
    rng = np.random.default_rng(0)
    series = validate_series(rng.standard_normal((50, 200)), "vector")
    assert series.n == 50
    assert series.p == 200


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
    assert series.rows == 3 and series.cols == 2


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


def test_moment_summary_default_weight_n4():
    # w(1..3) = -0.5, -0.8, -0.9 and w_bar = -8/12; centered lags 1/6, -2/15,
    # -7/30 occur 6, 4, 2 times, and the raw row sums -2.2, -1.8, -1.8, -2.2
    # lose 3 w_bar = -2 each
    S = SimilarityMatrix.from_square(np.zeros((4, 4)))
    W = build_weight_matrix(4, default_weight())
    M = moment_summary(S, W)
    assert M.w1 == -8.0
    assert M.w2 == pytest.approx(26.0 / 75.0, rel=1e-12)
    assert M.w3 == pytest.approx(0.16, rel=1e-12)
    assert M.w_row == pytest.approx([-0.2, 0.2, 0.2, -0.2], rel=1e-12)


def test_moment_summary_single_pair():
    # s_bar = 1/6: the pair becomes 5/6 twice, the other ten entries -1/6
    s = np.zeros((4, 4))
    s[0, 1] = s[1, 0] = 1.0
    M = moment_summary(SimilarityMatrix.from_square(s), build_weight_matrix(4, default_weight()))
    assert M.s1 == 2.0
    assert M.s2 == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert M.s3 == pytest.approx(1.0, rel=1e-15)
    assert M.s_row == pytest.approx([0.5, 0.5, -0.5, -0.5], rel=1e-15)
    assert M.s_abs_row == pytest.approx([7 / 6, 7 / 6, 0.5, 0.5], rel=1e-15)
    assert M.s_abs_max == pytest.approx(5.0 / 6.0, rel=1e-15)


def test_moment_summary_zero_field():
    M = moment_summary(SimilarityMatrix.from_square(np.zeros((5, 5))), build_weight_matrix(5, default_weight()))
    assert (M.s1, M.s2, M.s3) == (0.0, 0.0, 0.0)


def test_moment_summary_excludes_diagonal():
    # gaussian self-similarity sits on the diagonal and must not leak in
    rng = np.random.default_rng(4)
    series = ObservationSeries("vector", rng.standard_normal((6, 3)))
    S = build_similarity_matrix(series, gaussian(1.0))
    M = moment_summary(S, build_weight_matrix(6, default_weight()))
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
        M = moment_summary(S, W)
        A, B = centered(toeplitz(W.profile)), centered(S.values)
        assert M.w_row == pytest.approx(A.sum(axis=1), rel=1e-12)
        assert M.s_row == pytest.approx(B.sum(axis=1), rel=1e-12)
        assert M.w2 == pytest.approx((A**2).sum(), rel=1e-12)
        assert M.w3 == pytest.approx((M.w_row**2).sum(), rel=1e-12)
        assert M.s3 == pytest.approx((M.s_row**2).sum(), rel=1e-12)
        assert M.s_abs_row == pytest.approx(np.abs(B).sum(axis=1), rel=1e-12)


# _BATCH_PAIRS = 1 and 7 put one row in each block at these n, 64 several
# rows at small n with a ragged last block, 3000 a run of blocks of many
# rows at n = 64 to 257, and 2^16 every row in one block up to n = 65
@pytest.mark.parametrize("weight", ["default", "geometric:rho=0.5", "cosine:l=4"])
@pytest.mark.parametrize("n", [4, 5, 9, 64, 65, 257])
@pytest.mark.parametrize("batch", [1, 7, 64, 3000, 1 << 16])
def test_moment_walk_matches_dense_reference_at_any_block_size(batch, n, weight, monkeypatch):
    monkeypatch.setattr(core, "_BATCH_PAIRS", batch)
    series = ObservationSeries("vector", np.random.default_rng(n).standard_normal((n, 3)))
    S = build_similarity_matrix(series, neg_l1())
    W = build_weight_matrix(n, parse_weight_spec(weight))
    M = moment_summary(S, W)

    pairs = n * (n - 1)
    off = ~np.eye(n, dtype=bool)
    w, s = toeplitz(W.profile), S.values
    A = np.where(off, w - w[off].mean(), 0.0)
    B = np.where(off, s - s[off].mean(), 0.0)

    def sums(w, s, A, B):
        return {
            "w1": w[off].sum(), "w2": (A * A).sum(), "w3": (A.sum(1) ** 2).sum(), "w_row": A.sum(1),
            "s1": s[off].sum(), "s2": (B * B).sum(), "s3": (B.sum(1) ** 2).sum(), "s_row": B.sum(1),
            "s_abs_row": np.abs(B).sum(1), "zc": (A * B).sum(),
        }

    # relative to the same sum of absolute values, the scale of its rounding:
    # centered sums such as zc or cosine's row sums can land near zero
    scale = sums(np.abs(w), np.abs(s), np.abs(A), np.abs(B))
    for name, want in sums(w, s, A, B).items():
        assert np.abs(getattr(M, name) - want).max() <= 1e-12 * scale[name].max(), name
    # the walk centers by the same float m0 = s1 / pairs
    assert M.s_abs_max == np.abs(S.condensed - M.s1 / pairs).max()


def test_moment_summary_dimension_mismatch():
    with pytest.raises(ShapeMismatch):
        moment_summary(SimilarityMatrix.from_square(np.zeros((4, 4))), build_weight_matrix(5, default_weight()))


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
    ],
    ids=["text", "ragged", "complex"],
)
def test_similarity_matrix_rejects_what_is_not_a_real_square(square, error):
    with pytest.raises(error):
        SimilarityMatrix.from_square(square)


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
        WeightMatrix(np.array([0.5, -0.5, -0.8]), default_weight())


def test_weight_matrix_holds_only_its_profile():
    n = 10_000
    W = build_weight_matrix(n, default_weight())
    assert W.profile.nbytes == 8 * n


def test_series_is_immutable():
    series = ObservationSeries("vector", np.zeros((4, 2)))
    with pytest.raises(ValueError):
        series.data[0, 0] = 1.0
