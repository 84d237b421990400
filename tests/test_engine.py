import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng
from hypothesis import given, settings
from hypothesis import strategies as st

from forks import assert_no_child_left, count_forks
from oracles import (
    compute_z,
    dense_centered_moments,
    dense_rearrangement_bounds,
    enumerate_moments,
    enumerate_z,
    long_double_centered_moments,
    random_sym,
)
from wise import engine, kernels
from wise.core import build_similarity_matrix, build_weight_matrix, moment_summary
from wise.engine import (
    TestConfig,
    _raw_moments,
    mahalanobis_aggregate,
    rearrangement_bounds,
    regularity_diagnostics,
    run_test,
)
from wise.errors import DegenerateVariance, InvalidValue, ShapeMismatch, TooFewObservations
from wise.kernels import knn_affinity, neg_l1, neg_l2, pairwise_similarity, parse_kernel_spec
from wise.types import ObservationSeries, SimilarityMatrix
from wise.weights import (
    abs_cosine,
    algebraic,
    cosine,
    default_weight,
    geometric,
    parse_weight_spec,
    weight_profile,
)


def sim(arr) -> SimilarityMatrix:
    return SimilarityMatrix.from_square(np.asarray(arr, dtype=float))


def single_pair(n: int = 4) -> SimilarityMatrix:
    s = np.zeros((n, n))
    s[0, 1] = s[1, 0] = 1.0
    return sim(s)


def off_diag_ones(n: int) -> SimilarityMatrix:
    return sim(np.ones((n, n)) - np.eye(n))


def random_weight_spec(rng):
    fam = int(rng.integers(4))
    if fam == 0:
        return default_weight()
    if fam == 1:
        return geometric(float(rng.uniform(0.2, 0.9)))
    if fam == 2:
        return cosine(float(rng.uniform(2.0, 9.0)))
    return algebraic(float(rng.uniform(1.1, 3.0)))


def diagnostics_of(S: SimilarityMatrix, W):
    return regularity_diagnostics(moment_summary(S, W))


def iid_series(rng, n: int, p: int) -> ObservationSeries:
    return ObservationSeries("vector", rng.standard_normal((n, p)))


def iid_or_var1(kind: str, n: int, p: int) -> ObservationSeries:
    """N(0, I_p) rows seeded by n, or for kind var1 a VAR(1) of coefficient 0.3 on them."""
    x = np.random.default_rng(n).standard_normal((n, p))
    if kind == "var1":
        for t in range(1, n):
            x[t] += 0.3 * x[t - 1]
    return ObservationSeries("vector", x)


# a 4-point series, and a similarity field for it that is a single unit pair (0,1)
def pair_series() -> ObservationSeries:
    return ObservationSeries("vector", np.array([[0.0], [1.0], [2.0], [3.0]]))


def pair_similarity() -> SimilarityMatrix:
    return single_pair(4)


class TestComputeZ:
    def test_off_diag_ones_n3(self):
        z = compute_z(off_diag_ones(3), build_weight_matrix(3, default_weight()))
        assert z == pytest.approx(-3.6, rel=1e-12)

    def test_constant_field_reduces_to_weight_total(self):
        W = build_weight_matrix(4, default_weight())
        z = compute_z(off_diag_ones(4), W)
        assert z == pytest.approx(-8.0, rel=1e-12)
        M = moment_summary(off_diag_ones(4), W)
        assert z == pytest.approx(M.w1, rel=1e-14)

    def test_two_pair_field(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 1.0
        s[1, 2] = s[2, 1] = 2.0
        z = compute_z(sim(s), build_weight_matrix(3, default_weight()))
        assert z == pytest.approx(-3.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compute_z(off_diag_ones(3), build_weight_matrix(4, default_weight()))


class TestPermutationMoments:
    def test_single_pair_anchor(self):
        W = build_weight_matrix(4, default_weight())
        ez, var = _raw_moments(moment_summary(single_pair(), W), 4)[:2]
        assert ez == pytest.approx(-4.0 / 3.0, rel=1e-14)
        assert var == pytest.approx(0.1155556, abs=1e-6)

    def test_constant_field_has_zero_variance(self):
        W = build_weight_matrix(4, default_weight())
        ez, var = _raw_moments(moment_summary(off_diag_ones(4), W), 4)[:2]
        assert ez == pytest.approx(-8.0, rel=1e-12)
        assert var == 0.0

    def test_needs_four_observations(self):
        W = build_weight_matrix(3, default_weight())
        M = moment_summary(off_diag_ones(3), W)
        with pytest.raises(TooFewObservations):
            _raw_moments(M, 3)


class TestEnumerateMoments:
    def test_three_point_oracle(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 1.0
        s[1, 2] = s[2, 1] = 2.0
        S = sim(s)
        W = build_weight_matrix(3, default_weight())
        ez, var = enumerate_moments(S, W)
        assert ez == pytest.approx(-3.6, rel=1e-12)
        assert var == pytest.approx(0.24, rel=1e-10)
        # the six permutations realize three values, each twice
        assert sorted(enumerate_z(S, W)) == pytest.approx([-4.2, -4.2, -3.6, -3.6, -3.0, -3.0], rel=1e-9)

    def test_matches_closed_form_on_anchor(self):
        W = build_weight_matrix(4, default_weight())
        S = single_pair()
        ez_e, var_e = enumerate_moments(S, W)
        ez_c, var_c = _raw_moments(moment_summary(S, W), 4)[:2]
        assert ez_e == pytest.approx(ez_c, rel=1e-12)
        assert var_e == pytest.approx(var_c, rel=1e-12)

    def test_constant_field_variance_zero(self):
        W = build_weight_matrix(4, default_weight())
        _, var = enumerate_moments(off_diag_ones(4), W)
        assert var == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_closed_form_agrees_with_enumeration(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            S = random_sym(rng, n)
            W = build_weight_matrix(n, random_weight_spec(rng))
            ez_e, var_e = enumerate_moments(S, W)
            ez_c, var_c = _raw_moments(moment_summary(S, W), n)[:2]
            assert ez_c == pytest.approx(ez_e, rel=1e-10, abs=1e-12)
            assert var_c == pytest.approx(var_e, rel=1e-10, abs=1e-12)


class TestRunTest:
    def test_single_pair_anchor(self):
        res = run_test(pair_series(), pair_similarity(), default_weight())
        assert res.z == pytest.approx(-1.0, rel=1e-12)
        assert res.z_g == pytest.approx(0.98058, abs=1e-4)
        assert res.p_value == pytest.approx(0.3268, abs=1e-3)
        assert res.method == "analytic"
        assert not res.reject

    def test_constant_similarity_is_degenerate(self):
        res = run_test(pair_series(), sim(np.ones((4, 4))), default_weight())
        assert res.p_value == 1.0
        assert res.z_g == 0.0
        assert res.var_z == 0.0
        assert not res.reject
        assert any("degenerate" in w or "identically zero" in w for w in res.diagnostics.warnings)

    def test_identical_observations_degenerate_with_nan_ratios(self):
        series = ObservationSeries("vector", np.ones((5, 3)))
        res = run_test(series, neg_l1(), default_weight())
        assert res.p_value == 1.0
        assert not res.reject
        assert math.isnan(res.diagnostics.ratio1)
        assert res.diagnostics.warnings

    def test_too_few_observations(self):
        series = ObservationSeries("vector", np.zeros((3, 2)))
        with pytest.raises(TooFewObservations):
            run_test(series, neg_l1(), default_weight())

    def test_analytic_sidedness_relations(self):
        series = pair_series()
        p_two = run_test(series, pair_similarity(), default_weight()).p_value
        p_up = run_test(
            series, pair_similarity(), default_weight(), TestConfig(sidedness="upper")
        ).p_value
        p_low = run_test(
            series, pair_similarity(), default_weight(), TestConfig(sidedness="lower")
        ).p_value
        assert p_up + p_low == pytest.approx(1.0, rel=1e-12)
        assert p_two == pytest.approx(2.0 * min(p_up, p_low), rel=1e-12)

    def test_permutation_p_matches_exact_tail(self):
        # Z takes values -1.0, -1.6, -1.8 with probabilities 1/2, 1/3, 1/6
        # under re-indexing; |Z_b - EZ| >= |Z_obs - EZ| has probability 2/3.
        cfg = TestConfig(method="permutation", permutations=2000, seed=42)
        res = run_test(pair_series(), pair_similarity(), default_weight(), cfg)
        assert res.method == "permutation"
        assert res.p_value == pytest.approx(2.0 / 3.0, abs=0.04)

    def test_permutation_p_deterministic(self):
        cfg = TestConfig(method="permutation", permutations=300, seed=9)
        rng = np.random.default_rng(0)
        series = iid_series(rng, 12, 3)
        a = run_test(series, neg_l1(), default_weight(), cfg)
        b = run_test(series, neg_l1(), default_weight(), cfg)
        assert a.p_value == b.p_value

    def test_permutation_sidedness_tails_cover(self):
        rng = np.random.default_rng(3)
        series = iid_series(rng, 10, 2)
        ps = {}
        for side in ("upper", "lower"):
            cfg = TestConfig(method="permutation", permutations=200, seed=5, sidedness=side)
            ps[side] = run_test(series, neg_l1(), default_weight(), cfg).p_value
        assert ps["upper"] + ps["lower"] >= 1.0
        assert all(0.0 < p <= 1.0 for p in ps.values())

    @pytest.mark.parametrize("side", ["two_sided", "upper", "lower"])
    def test_permutation_counts_draws_that_tie_z(self, side):
        # a knn field and a cosine weight hold few values, so many draws tie
        # Z, or mirror it around EZ, as exact sums that round apart: a draw
        # within 1e-10 of the bound on |Z - EZ| counts as a tie
        n, B, seed = 120, 300, 4
        kernel = knn_affinity(5, neg_l2())
        off = ~np.eye(n, dtype=bool)
        ties = 0
        for weight in (cosine(4.0), abs_cosine(3.0)):
            W = build_weight_matrix(n, weight)
            w_bound = float(2.0 * (n - np.arange(n)) @ np.abs(W.profile))
            for data_seed in range(6):
                series = iid_series(np.random.default_rng(data_seed), n, 10)
                cfg = TestConfig(method="permutation", permutations=B, seed=seed, sidedness=side)
                res = run_test(series, kernel, weight, cfg)
                S = build_similarity_matrix(series, kernel).values
                tol = 1e-10 * np.abs(S[off] - S[off].mean()).max() * w_bound
                zc = compute_z(SimilarityMatrix.from_square(S), W) - res.e_z
                perms = (default_rng(SeedSequence((seed, b))).permutation(n) for b in range(B))
                zcs = np.array(
                    [compute_z(SimilarityMatrix.from_square(S[np.ix_(pi, pi)]), W) for pi in perms]
                ) - res.e_z
                tail, gap = {
                    "two_sided": (np.abs(zcs) >= abs(zc) - tol, np.abs(zcs) - abs(zc)),
                    "upper": (zcs >= zc - tol, zcs - zc),
                    "lower": (zcs <= zc + tol, zcs - zc),
                }[side]
                ties += int(np.sum(np.abs(gap) <= tol))
                assert res.p_value == (1 + int(tail.sum())) / (B + 1)
        assert ties > 0

    def test_moments_invariant_under_reordering(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((12, 3))
        perm = rng.permutation(12)
        a = run_test(ObservationSeries("vector", data), neg_l1(), default_weight())
        b = run_test(ObservationSeries("vector", data[perm]), neg_l1(), default_weight())
        assert b.e_z == pytest.approx(a.e_z, rel=1e-12)
        assert b.var_z == pytest.approx(a.var_z, rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(1e-3, 1e3),
        b=st.floats(-1e8, 1e8),
    )
    def test_standardization_invariance(self, seed, a, b):
        # off-diagonal affine maps S -> aS + b (a > 0) leave z_g alone. The
        # image T rounds each entry to ulp(b), so it is compared with its own
        # preimage (T - b) / a, which holds exactly what T holds.
        n = 6
        S = random_sym(np.random.default_rng(seed), n).values
        off = np.ones((n, n)) - np.eye(n)
        T = a * S + b * off
        preimage = (T - b * off) / a

        def z_g_of(values):
            return run_test(
                ObservationSeries("vector", np.arange(float(n))[:, None]), sim(values), default_weight()
            ).z_g

        base = z_g_of(preimage)
        assert base != 0.0
        assert z_g_of(T) == pytest.approx(base, abs=1e-9)

    def test_permutation_p_super_uniform(self):
        # under exchangeable data P(p <= a) = floor(a(B+1))/(B+1) <= a; the
        # extra 2.58 se term is the Monte-Carlo allowance for 600 replicates
        B, reps = 199, 600
        rng = np.random.default_rng(20260819)
        ps = np.empty(reps)
        for r in range(reps):
            series = iid_series(rng, 16, 4)
            cfg = TestConfig(method="permutation", permutations=B, seed=r)
            ps[r] = run_test(series, neg_l1(), default_weight(), cfg).p_value
        for alpha in (0.01, 0.05, 0.1):
            hit = float(np.mean(ps <= alpha))
            se = math.sqrt(alpha * (1.0 - alpha) / reps)
            assert hit <= alpha + 2.0 / B + 2.58 * se

    def test_result_json_shape(self):
        res = run_test(pair_series(), pair_similarity(), default_weight())
        obj = res.to_json_obj()
        assert set(obj) == {
            "z", "e_z", "var_z", "z_g", "p_value", "reject", "alpha", "method", "diagnostics",
        }
        assert set(obj["diagnostics"]) == {"ratio1", "ratio2", "ratio3", "alignment", "warnings"}
        assert isinstance(obj["reject"], bool)
        assert isinstance(obj["diagnostics"]["warnings"], list)

    def test_json_maps_nan_to_null(self):
        series = ObservationSeries("vector", np.ones((5, 3)))
        obj = run_test(series, neg_l1(), default_weight()).to_json_obj()
        assert obj["diagnostics"]["ratio1"] is None
        assert obj["p_value"] == 1.0


class TestPrecomputedSimilarity:
    """S as the kernel: the spec's own matrix, or that matrix read back from
    its square, gives every number the spec gives."""

    WEIGHTS = [default_weight(), cosine(4.0)]

    @pytest.mark.parametrize("square", [False, True], ids=["pairwise", "from_square"])
    @pytest.mark.parametrize("kind", ["iid", "var1"])
    @pytest.mark.parametrize("text", ["neg_l1", "gaussian:sigma=2", "knn:k=3,base=neg_l2"])
    def test_matches_the_spec(self, text, kind, square):
        spec, series = parse_kernel_spec(text), iid_or_var1(kind, 40, 6)
        S = pairwise_similarity(spec, series)
        if square:
            S = SimilarityMatrix.from_square(S.values)
        configs = [TestConfig()] + [
            TestConfig(method="permutation", permutations=200, seed=3, sidedness=side)
            for side in ("two_sided", "upper", "lower")
        ]
        for cfg in configs:
            assert run_test(series, S, default_weight(), cfg) == run_test(
                series, spec, default_weight(), cfg
            )
        assert mahalanobis_aggregate(series, S, self.WEIGHTS, B=500, seed=4) == (
            mahalanobis_aggregate(series, spec, self.WEIGHTS, B=500, seed=4)
        )

    def test_s_of_another_n_is_a_shape_mismatch(self):
        S = pairwise_similarity(neg_l1(), iid_or_var1("iid", 40, 6))
        short = iid_or_var1("iid", 39, 6)
        with pytest.raises(ShapeMismatch):
            run_test(short, S, default_weight())
        with pytest.raises(ShapeMismatch):
            mahalanobis_aggregate(short, S, self.WEIGHTS, B=500, seed=0)

    @pytest.mark.parametrize(
        "kernel",
        [lambda x, y: 1.0, "neg_l1", {"family": "neg_l1"}],
        ids=["callable", "text", "json"],
    )
    def test_any_other_kernel_is_an_invalid_value(self, kernel):
        series = iid_or_var1("iid", 40, 6)
        with pytest.raises(InvalidValue, match="KernelSpec or a SimilarityMatrix"):
            run_test(series, kernel, default_weight())
        with pytest.raises(InvalidValue, match="KernelSpec or a SimilarityMatrix"):
            mahalanobis_aggregate(series, kernel, self.WEIGHTS, B=500, seed=0)

    def test_a_weight_that_is_not_a_spec_is_an_invalid_value(self):
        series = iid_or_var1("iid", 40, 6)
        with pytest.raises(InvalidValue, match="WeightSpec"):
            run_test(series, neg_l1(), "default")
        with pytest.raises(InvalidValue, match="WeightSpec"):
            mahalanobis_aggregate(series, neg_l1(), ["default", cosine(4.0)], B=500, seed=0)


class TestLargeN:
    # at n = 2500 the uncentered moment algebra called these nulls degenerate
    n, p = 2500, 100

    @pytest.mark.parametrize("kind", ["iid", "var1"])
    def test_analytic_matches_dense_centered_reference(self, kind):
        series = iid_or_var1(kind, self.n, self.p)
        res = run_test(series, neg_l1(), default_weight(), TestConfig(method="analytic"))
        assert res.z_g != 0.0 and res.p_value < 1.0
        assert not any("degenerate" in w for w in res.diagnostics.warnings)

        S = build_similarity_matrix(series, neg_l1()).values
        lags = np.abs(np.subtract.outer(np.arange(self.n), np.arange(self.n)))
        z, e_z, var_z = dense_centered_moments(S, weight_profile(default_weight(), lags))
        assert res.z == pytest.approx(z, rel=1e-9)
        assert res.e_z == pytest.approx(e_z, rel=1e-9)
        assert res.var_z == pytest.approx(var_z, rel=1e-9)

    @pytest.mark.parametrize("kind", ["iid", "var1"])
    def test_z_g_matches_long_double_reference(self, kind):
        # z_g sits near 0 under the null, so a relative check against float64
        # code proves little; this one measures the error in sd units
        n = 2000
        series = iid_or_var1(kind, n, 20)
        res = run_test(series, neg_l1(), default_weight())
        S = build_similarity_matrix(series, neg_l1())
        zc, var = long_double_centered_moments(S.values, weight_profile(default_weight(), np.arange(n)))
        zc_got = np.longdouble(res.z_g) * np.sqrt(np.longdouble(res.var_z))
        assert abs(zc_got - zc) / np.sqrt(var) < 2e-12

    def test_analytic_memory_at_n_2000(self):
        # S stays pdist's condensed half; nothing n x n is made on the way
        n = 2000
        series = ObservationSeries("vector", np.random.default_rng(7).standard_normal((n, 20)))
        tracemalloc.start()
        try:
            run_test(series, neg_l1(), default_weight())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8  # one and a half float64 n x n arrays

    def test_permutation_memory_at_n_2000(self):
        # the draws read S folded once, beside S's own pairs: about 1 n x n
        n = 2000
        series = ObservationSeries("vector", np.random.default_rng(7).standard_normal((n, 20)))
        cfg = TestConfig(method="permutation", permutations=100, seed=1)
        tracemalloc.start()
        try:
            run_test(series, neg_l1(), default_weight(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8  # one and a quarter float64 n x n arrays

    def test_permutation_at_n_2000(self):
        n, B = 2000, 100
        series = ObservationSeries("vector", np.random.default_rng(2000).standard_normal((n, 20)))
        cfg = TestConfig(method="permutation", permutations=B, seed=3)
        perm = run_test(series, neg_l1(), default_weight(), cfg)
        analytic = run_test(series, neg_l1(), default_weight())
        assert perm.p_value in {(1 + c) / (B + 1) for c in range(B + 1)}
        assert (perm.z, perm.e_z, perm.var_z) == (analytic.z, analytic.e_z, analytic.var_z)

    def test_analytic_result_does_not_depend_on_the_thread_count(self, monkeypatch):
        # small blocks put the kernel on the pool; the walk after it stays on
        # the calling thread, so every reported number is the same
        monkeypatch.setattr(kernels, "_BLOCK_OPS", 100)
        series = iid_or_var1("var1", 600, 40)
        seen = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("WISE_THREADS", threads)
            r = run_test(series, neg_l1(), default_weight())
            d = r.diagnostics
            seen.add(repr((r.z, r.e_z, r.var_z, r.z_g, r.p_value, d.ratio1, d.ratio2, d.ratio3)))
        assert len(seen) == 1


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(InvalidValue):
            TestConfig(alpha=0.0)
        with pytest.raises(InvalidValue):
            TestConfig(alpha=1.0)

    def test_unknown_method(self):
        with pytest.raises(InvalidValue):
            TestConfig(method="bootstrap")

    def test_permutation_budget_floor(self):
        with pytest.raises(InvalidValue):
            TestConfig(method="permutation", permutations=99)
        TestConfig(method="permutation", permutations=100)

    def test_unknown_sidedness(self):
        with pytest.raises(InvalidValue):
            TestConfig(sidedness="both")

    def test_seed_width(self):
        with pytest.raises(InvalidValue):
            TestConfig(seed=2**64)

    # 2**64 is test_seed_width
    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        with pytest.raises(InvalidValue):
            TestConfig(method="permutation", seed=seed)

    def test_seed_takes_any_integer_type(self):
        assert TestConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    @pytest.mark.parametrize("method", ["analytic", "permutation"])
    def test_permutation_count_must_be_an_integer(self, method):
        with pytest.raises(InvalidValue, match="permutations must be an integer"):
            TestConfig(method=method, permutations=150.5)

    @pytest.mark.parametrize("alpha", ["0.1", None, True])
    def test_alpha_must_be_a_real_number(self, alpha):
        with pytest.raises(InvalidValue, match="alpha"):
            TestConfig(alpha=alpha)


class TestDiagnostics:
    def test_single_pair_anchor_values(self):
        W = build_weight_matrix(4, default_weight())
        rep = diagnostics_of(single_pair(), W)
        assert rep.ratio1 == pytest.approx(5.0 / 3.0, rel=1e-10)
        assert rep.ratio2 == pytest.approx(49.0 * 3.0 / 720.0, rel=1e-10)
        assert rep.ratio3 == pytest.approx(29.0 / 60.0, rel=1e-10)
        assert rep.alignment == pytest.approx(1.0 / 6.0, rel=1e-9)
        assert len(rep.warnings) == 1 and "ratio1" in rep.warnings[0]

    def test_constant_off_diagonal_is_degenerate(self):
        W = build_weight_matrix(5, default_weight())
        with pytest.raises(DegenerateVariance):
            diagnostics_of(off_diag_ones(5), W)

    def test_alignment_centered_near_zero_for_iid(self):
        rng = np.random.default_rng(77)
        vals = []
        W = build_weight_matrix(20, default_weight())
        for _ in range(200):
            S = build_similarity_matrix(iid_series(rng, 20, 5), neg_l1())
            vals.append(diagnostics_of(S, W).alignment)
        vals = np.asarray(vals)
        sem = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 4.0 * sem

    def test_needs_four_observations(self):
        with pytest.raises(TooFewObservations):
            diagnostics_of(off_diag_ones(3), build_weight_matrix(3, default_weight()))


class TestRearrangementBounds:
    def test_identity_z_always_inside(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(4, 8))
            S = random_sym(rng, n)
            W = build_weight_matrix(n, random_weight_spec(rng))
            lo, hi = rearrangement_bounds(S, W)
            assert lo <= compute_z(S, W) <= hi

    def test_fully_constant_matrix_collapses(self):
        n = 4
        S = sim(np.full((n, n), 0.7))
        W = build_weight_matrix(n, default_weight())
        lo, hi = rearrangement_bounds(S, W)
        z = compute_z(S, W)
        assert lo == pytest.approx(z, rel=1e-12)
        assert hi == pytest.approx(z, rel=1e-12)

    def test_constant_off_diagonal_touches_tight_side(self):
        # with nonpositive weights and positive c the opposed pairing
        # reproduces the identity pairing, so Z sits on the lower bound
        S = off_diag_ones(5)
        W = build_weight_matrix(5, default_weight())
        lo, hi = rearrangement_bounds(S, W)
        z = compute_z(S, W)
        assert lo == pytest.approx(z, rel=1e-12)
        assert hi >= z

    def test_contains_all_permuted_values_exhaustively(self):
        rng = np.random.default_rng(14)
        for n in (4, 5, 6):
            S = random_sym(rng, n)
            W = build_weight_matrix(n, random_weight_spec(rng))
            lo, hi = rearrangement_bounds(S, W)
            zs = enumerate_z(S, W)
            assert np.all((lo - 1e-12 <= zs) & (zs <= hi + 1e-12))

    @pytest.mark.parametrize(
        "weight", ["default", "geometric:rho=0.5", "cosine:l=4", "mixed:alpha=0.5,beta=1.2,l=7"]
    )
    @pytest.mark.parametrize("kernel", ["neg_l1", "gaussian:sigma=2", "knn:k=3,base=neg_l2"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 50, 300])
    def test_equals_the_dense_sort(self, n, kernel, weight):
        # the profile repeated by its lag counts and the pairs taken twice
        # beside the diagonal sort to the dense arrays' own sorted entries
        series = iid_series(np.random.default_rng(n), n, 5)
        S = pairwise_similarity(parse_kernel_spec(kernel), series)
        W = build_weight_matrix(n, parse_weight_spec(weight))
        assert rearrangement_bounds(S, W) == dense_rearrangement_bounds(S, W)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rearrangement_bounds(off_diag_ones(4), build_weight_matrix(5, default_weight()))


def draw_inputs(n: int, m: int):
    """Random condensed pairs of an n-point field and m lag profiles."""
    s_pairs = np.random.default_rng(n).standard_normal(n * (n - 1) // 2)
    specs = (default_weight(), cosine(4.0), geometric(0.5))[:m]
    return s_pairs, np.stack([build_weight_matrix(n, spec).profile for spec in specs])


class TestLagSumDraws:
    def spy_draws(self, monkeypatch):
        # records the (B, m) draws of every call to the shared draw routine
        seen = []
        real = engine._lag_sum_draws

        def spy(*args):
            out = real(*args)
            assert_no_child_left()
            seen.append(out[1])
            return out

        monkeypatch.setattr(engine, "_lag_sum_draws", spy)
        return seen

    def test_draws_are_a_prefix_of_a_longer_stream(self, monkeypatch):
        seen = self.spy_draws(monkeypatch)
        # at n = 40 the draws fold 800 pairs: 150 draws run in one process,
        # 400 and more are split across two
        monkeypatch.setattr(engine, "_FORK_PAIR_DRAWS", 300 * 800)
        monkeypatch.setenv("WISE_THREADS", "2")
        forks = count_forks(monkeypatch)
        series = iid_series(np.random.default_rng(5), 40, 3)
        for B in (150, 400):
            cfg = TestConfig(method="permutation", permutations=B, seed=7)
            run_test(series, neg_l1(), default_weight(), cfg)
        # the aggregate takes at least 500 draws
        specs = [default_weight(), cosine(4.0)]
        for B in (500, 1000):
            mahalanobis_aggregate(series, neg_l1(), specs, B=B, seed=7)
        short, long, agg_short, agg_long = seen
        assert short.shape == (150, 1) and agg_short.shape == (500, 2)
        assert np.array_equal(short, long[:150])
        assert np.array_equal(agg_short, agg_long[:500])
        assert len(forks) == 3

    # n = 4 and 7 hold every draw in one batch, so they never fork; up to
    # n = 256 a batch holds several draws and the last one is ragged
    @pytest.mark.parametrize("n", [4, 7, 24, 25, 256, 257, 400])
    def test_draws_do_not_depend_on_the_worker_count(self, monkeypatch, n):
        monkeypatch.setattr(engine, "_FORK_PAIR_DRAWS", 0)
        forks = count_forks(monkeypatch)
        for m in (1, 3):
            s_pairs, profiles = draw_inputs(n, m)
            for B in (100, 501, 1000):
                monkeypatch.setenv("WISE_THREADS", "1")
                want = engine._lag_sum_draws(s_pairs, profiles, B, 11)
                for threads in ("1", "2", "3"):
                    monkeypatch.setenv("WISE_THREADS", threads)
                    got = engine._lag_sum_draws(s_pairs, profiles, B, 11)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
                    assert_no_child_left()
        assert (len(forks) > 0) == (n > 7)

    def test_a_failing_worker_is_redone_in_process(self, monkeypatch):
        s_pairs, profiles = draw_inputs(64, 3)
        monkeypatch.setenv("WISE_THREADS", "1")
        want = engine._lag_sum_draws(s_pairs, profiles, 300, 2)
        parent, real = os.getpid(), engine.default_rng

        def fails_in_a_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return real(*args)

        monkeypatch.setattr(engine, "default_rng", fails_in_a_child)
        monkeypatch.setattr(engine, "_FORK_PAIR_DRAWS", 0)
        monkeypatch.setenv("WISE_THREADS", "3")
        forks = count_forks(monkeypatch)
        got = engine._lag_sum_draws(s_pairs, profiles, 300, 2)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert len(forks) == 2
        assert_no_child_left()

    def test_an_interrupt_in_the_caller_reaps_every_worker(self, monkeypatch):
        s_pairs, profiles = draw_inputs(64, 1)
        parent, real = os.getpid(), engine.default_rng

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(engine, "default_rng", interrupted)
        monkeypatch.setattr(engine, "_FORK_PAIR_DRAWS", 0)
        monkeypatch.setenv("WISE_THREADS", "3")
        forks = count_forks(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            engine._lag_sum_draws(s_pairs, profiles, 5000, 2)
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["off the main thread", "off Linux"])
    def test_a_call_that_cannot_fork_fills_every_range_itself(self, monkeypatch, where):
        s_pairs, profiles = draw_inputs(64, 3)
        monkeypatch.setenv("WISE_THREADS", "1")
        want = engine._lag_sum_draws(s_pairs, profiles, 300, 4)
        # on the main thread on Linux these settings fork twice, as in
        # test_a_failing_worker_is_redone_in_process
        monkeypatch.setattr(engine, "_FORK_PAIR_DRAWS", 0)
        monkeypatch.setenv("WISE_THREADS", "3")
        forks = count_forks(monkeypatch)
        if where == "off Linux":
            monkeypatch.setattr(sys, "platform", "darwin")
            got = engine._lag_sum_draws(s_pairs, profiles, 300, 4)
        else:
            with ThreadPoolExecutor(1) as pool:
                got = pool.submit(engine._lag_sum_draws, s_pairs, profiles, 300, 4).result()
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert forks == []

    # both parities fold differently; up to n = 256 one bincount takes a
    # batch of draws, and from n = 363 a draw takes several blocks of rows
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 24, 25, 255, 256, 257, 400, 401])
    def test_draws_match_dense_reference(self, n):
        seed, B = 13, 12
        series = iid_series(np.random.default_rng(n), n, 3)
        Ws = [build_weight_matrix(n, spec) for spec in (default_weight(), cosine(4.0))]
        profiles = np.stack([W.profile for W in Ws])
        for kernel in (neg_l1(), knn_affinity(2, neg_l2())):
            S = build_similarity_matrix(series, kernel)
            e_z = [_raw_moments(moment_summary(S, W), n)[0] for W in Ws]
            observed, draws, bound = engine._lag_sum_draws(S.condensed, profiles, B, seed)
            perms = [np.arange(n)]
            perms += [default_rng(SeedSequence((seed, k))).permutation(n) for k in range(B)]
            for got, pi in zip([observed, *draws], perms):
                permuted = SimilarityMatrix.from_square(S.values[np.ix_(pi, pi)])
                want = [compute_z(permuted, W) - ez for W, ez in zip(Ws, e_z)]
                assert np.all(np.abs(got - want) <= 1e-12 * bound)

    def test_memory_does_not_grow_with_B(self):
        n = 300
        series = iid_series(np.random.default_rng(6), n, 10)
        peaks = []
        for B in (200, 2000):
            cfg = TestConfig(method="permutation", permutations=B, seed=1)
            tracemalloc.start()
            try:
                run_test(series, neg_l1(), default_weight(), cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.1 * min(peaks)
        assert max(peaks) < 8 * n * n * 8  # eight float64 n x n arrays


class TestMahalanobis:
    def test_duplicated_spec_reduces_to_squared_standardized_z(self):
        data = np.linspace(0.0, 3.0, 30)[:, None] + np.random.default_rng(8).standard_normal(
            (30, 4)
        )
        series = ObservationSeries("vector", data)
        single = run_test(series, neg_l1(), default_weight())
        assert abs(single.z_g) > 0.5  # keep the relative comparison meaningful
        m, p = mahalanobis_aggregate(
            series, neg_l1(), [default_weight(), default_weight()], B=2000, seed=3
        )
        assert m == pytest.approx(single.z_g**2, rel=0.15)
        assert 0.0 < p <= 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        series = iid_series(rng, 20, 3)
        specs = [default_weight(), cosine(4.0)]
        first = mahalanobis_aggregate(series, neg_l1(), specs, B=500, seed=11)
        second = mahalanobis_aggregate(series, neg_l1(), specs, B=500, seed=11)
        assert first == second

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(1e-3, 1e3),
        b=st.floats(-1e8, 1e8),
    )
    def test_invariance_under_affine_similarity(self, seed, a, b):
        # as test_standardization_invariance: m on T = aS + b off the diagonal
        # equals m on T's exact preimage (T - b) / a
        n = 30
        S = random_sym(np.random.default_rng(seed), n).values
        off = np.ones((n, n)) - np.eye(n)
        T = a * S + b * off
        preimage = (T - b * off) / a

        def m_of(values):
            return mahalanobis_aggregate(
                ObservationSeries("vector", np.arange(float(n))[:, None]),
                sim(values),
                [default_weight(), cosine(4.0)],
                B=500,
                seed=seed,
            )[0]

        assert m_of(T) == pytest.approx(m_of(preimage), rel=1e-9)

    def test_constant_similarity_degenerate(self):
        with pytest.raises(DegenerateVariance):
            mahalanobis_aggregate(
                pair_series(), sim(np.ones((4, 4))), [default_weight(), cosine(4.0)], B=500, seed=0
            )

    def test_needs_two_specs(self):
        with pytest.raises(InvalidValue):
            mahalanobis_aggregate(pair_series(), neg_l1(), [default_weight()], B=500, seed=0)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        with pytest.raises(InvalidValue):
            mahalanobis_aggregate(
                pair_series(), neg_l1(), [default_weight(), cosine(4.0)], B=500, seed=seed
            )

    def test_needs_enough_permutations(self):
        with pytest.raises(InvalidValue):
            mahalanobis_aggregate(
                pair_series(), neg_l1(), [default_weight(), cosine(4.0)], B=400, seed=0
            )

    def test_permutation_count_must_be_an_integer(self):
        with pytest.raises(InvalidValue, match="B must be an integer"):
            mahalanobis_aggregate(
                pair_series(), neg_l1(), [default_weight(), cosine(4.0)], B=600.5, seed=0
            )

    def test_size_calibrated_on_iid_data(self):
        rng = np.random.default_rng(99)
        specs = [default_weight(), cosine(4.0)]
        reps = 1000
        rejections = 0
        for r in range(reps):
            series = iid_series(rng, 24, 5)
            _, p = mahalanobis_aggregate(series, neg_l1(), specs, B=500, seed=r)
            rejections += p < 0.05
        assert 0.02 <= rejections / reps <= 0.08
