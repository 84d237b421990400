import hashlib

import numpy as np
import pytest

from wise.errors import BadModelParam, ParseError
from wise.simgen import (
    FAMILIES,
    ModelSpec,
    from_setting,
    generate,
    model_spec_from_json_obj,
    replicate_spec,
)

ALL_SETTINGS = (
    "setting1.1",
    "setting1.2",
    "setting1.3",
    "setting1.4",
    "setting2.1",
    "setting2.2",
    "setting2.3",
    "setting3.1",
    "setting3.2",
    "setting4",
    "setting5",
)


def lag_corr(data: np.ndarray, k: int) -> float:
    """Column-averaged lag-k autocorrelation."""
    cols = [np.corrcoef(data[:-k, j], data[k:, j])[0, 1] for j in range(data.shape[1])]
    return float(np.mean(cols))


@pytest.mark.parametrize("name", ALL_SETTINGS)
def test_every_setting_generates_expected_shape(name):
    series = generate(from_setting(name, 12, 7, seed=1, burn_in=20))
    assert series.kind == "vector"
    assert series.data.shape == (12, 7)
    assert np.isfinite(series.data).all()


@pytest.mark.parametrize("name", ALL_SETTINGS)
def test_generation_is_deterministic(name):
    spec = from_setting(name, 10, 5, seed=99, burn_in=15)
    assert np.array_equal(generate(spec).data, generate(spec).data)


@pytest.mark.parametrize("name", ALL_SETTINGS)
def test_seed_changes_the_draw(name):
    base = from_setting(name, 10, 5, seed=1, burn_in=15)
    other = replicate_spec(base, seed=2)
    assert not np.array_equal(generate(base).data, generate(other).data)


# The seed contract: sha256 of generate(from_setting(name, 37, 11, seed=seed,
# burn_in=burn_in)).data.tobytes() for every preset. burn_in=3 is shorter
# than the svar lags (4 and 12). A change to generate keeps these bytes.
GOLDEN = {
    ("setting1.1", 0, 3): "f8fb73296fefd7f5e6d5b0199c3ac58be40af743011f6297d38503e041d2b9cf",
    ("setting1.1", 0, 200): "f8fb73296fefd7f5e6d5b0199c3ac58be40af743011f6297d38503e041d2b9cf",
    ("setting1.1", 1, 3): "43de86c6530af443ebe0ee2007886fa0e424aee56f0897edb550c064be7582c5",
    ("setting1.1", 1, 200): "43de86c6530af443ebe0ee2007886fa0e424aee56f0897edb550c064be7582c5",
    ("setting1.2", 0, 3): "9ef26fcfc3774c5dc94180de449bc19b0d650329d5eb151094a24b9579e7305c",
    ("setting1.2", 0, 200): "9ef26fcfc3774c5dc94180de449bc19b0d650329d5eb151094a24b9579e7305c",
    ("setting1.2", 1, 3): "fa2d89aa4dcf260b17b63f851fc59cef9ef322b12fa927c7cbb25a158feebdb0",
    ("setting1.2", 1, 200): "fa2d89aa4dcf260b17b63f851fc59cef9ef322b12fa927c7cbb25a158feebdb0",
    ("setting1.3", 0, 3): "96cca176ba85adf19e65c1049270c330c43fefcf3a7da09b46db5481868251d6",
    ("setting1.3", 0, 200): "96cca176ba85adf19e65c1049270c330c43fefcf3a7da09b46db5481868251d6",
    ("setting1.3", 1, 3): "ce2831180cde2b1ea5d8fcb31f008aef69e16d401a910e7f6ada6f88bde436c6",
    ("setting1.3", 1, 200): "ce2831180cde2b1ea5d8fcb31f008aef69e16d401a910e7f6ada6f88bde436c6",
    ("setting1.4", 0, 3): "5c3b610695ec957b0c6f42fc5b474a915e23d458c77ae40a4790988442a56240",
    ("setting1.4", 0, 200): "5c3b610695ec957b0c6f42fc5b474a915e23d458c77ae40a4790988442a56240",
    ("setting1.4", 1, 3): "4e8af7d9a6296453488525c642f1062a0d72d7897d9089edaf214c19abd5a29e",
    ("setting1.4", 1, 200): "4e8af7d9a6296453488525c642f1062a0d72d7897d9089edaf214c19abd5a29e",
    ("setting2.1", 0, 3): "bdcb0381e574e937766d59c1e423bec81781e0bdee97189b23f043b07d010809",
    ("setting2.1", 0, 200): "1016e06744be789ffcb9d6f046de0daaebb67407e3079724d8bf952ca42ea09c",
    ("setting2.1", 1, 3): "0d294836c7f975cb0c794d5764b0f90111d85a5c229ab2690762be3ff7dbc107",
    ("setting2.1", 1, 200): "5adc6db6e5d4112c22b1467c05157a85084ad7821a9ea2538e609130990566b1",
    ("setting2.2", 0, 3): "932f908ed3a8a2a51e762219b4ec2e35857ea4bd05913e17bf3b5349b0b88158",
    ("setting2.2", 0, 200): "cc1fc84a4f4a0f5a6ad7ebc13ed83a1c71f4d38a6fc59514f7647820b84c7f72",
    ("setting2.2", 1, 3): "d4f3e1df07d274a7990d0d064388fee1bf37578836cfba6714cf9b0229d198bc",
    ("setting2.2", 1, 200): "58b8c5706479f1e3ac94673f50612d3cee1c0d0b4f1835c809a420ada5203f90",
    ("setting2.3", 0, 3): "5c1dd3535acf9916e277e60b355dc27722cbf1c0966dac92f8472f227d600bc1",
    ("setting2.3", 0, 200): "579a8e6bab1bb5a336178a941ccf301cb78d9b81949a5098ed66ec8ac7aa71a3",
    ("setting2.3", 1, 3): "f3f6f0064f59b9adce06c01a21f445999d1755512c764cc018296131f3d3d337",
    ("setting2.3", 1, 200): "fe5c539dab537aedb6aee8a44ea7b7ce8440fc5297a55c828cc49d0a01ee89a0",
    ("setting3.1", 0, 3): "bba21c203a20cb15ca85a9af1711bcbf18156ba09435ec533e4bacb488e012f2",
    ("setting3.1", 0, 200): "204d6eb886eeb310c806bb9c8b37cce108261260eb57bb47e9eef0b02726f963",
    ("setting3.1", 1, 3): "a6ad3382876c9e83fad572aea2e37ebf7dec80c0643f2456ccb769fe99cde7fe",
    ("setting3.1", 1, 200): "e19243d5ba6b5b79d54ccf749eec4219c2d4f7e3a8d016beb80e85e7e4b72acc",
    ("setting3.2", 0, 3): "a5b0a2c8e3dc3a71a01a11e7add32a8eabc64d41e54aea2d052b3db0ceec40de",
    ("setting3.2", 0, 200): "5a58301a92ac2b1ddd8e4ecf65e1af97ad6681715b7e5fee1deefff22fad8534",
    ("setting3.2", 1, 3): "09f4365ff6f89b4e29960c04cf2ec1df7ea7ea817cd0871795bcf9db88ba83a6",
    ("setting3.2", 1, 200): "37974e4f9d8615a4a8e31bcab6bb9124d0d0a8f4e499e4431eea0c08e1848688",
    ("setting4", 0, 3): "147b20d2faaf47ad83590369cdd71ec42ac871c00f220441e7aa7483147bad95",
    ("setting4", 0, 200): "5e05ab72b6518724e5ee6ff457edb2fa3054849e8da372cd2a623e63003d20bd",
    ("setting4", 1, 3): "bd62e2751d24d67462503ed62925c9a2231697e7d6f1253dee55a4cc459357a3",
    ("setting4", 1, 200): "94a95cd561b4282e71d479660dd852af8347b6cff478da1a0e8e8ccf4ca16929",
    ("setting5", 0, 3): "3afad9382bef6a20dcb54a54ccec3b95e4b8f35c1e2affa3c142adf0d28cd2d7",
    ("setting5", 0, 200): "3afad9382bef6a20dcb54a54ccec3b95e4b8f35c1e2affa3c142adf0d28cd2d7",
    ("setting5", 1, 3): "6d6acbdae8415e8551914cbef6a1b3c3cda2568aecd021221fd1a9eded73e485",
    ("setting5", 1, 200): "6d6acbdae8415e8551914cbef6a1b3c3cda2568aecd021221fd1a9eded73e485",
}


@pytest.mark.parametrize("name,seed,burn_in", sorted(GOLDEN))
def test_seed_contract_is_bit_identical(name, seed, burn_in):
    data = generate(from_setting(name, 37, 11, seed=seed, burn_in=burn_in)).data
    assert hashlib.sha256(data.tobytes()).hexdigest() == GOLDEN[name, seed, burn_in]


class TestDrawOrder:
    """Freeze the seed-to-output mapping so stored results stay replayable."""

    def test_iid_normal(self):
        spec = ModelSpec("iid_normal", 6, 3, seed=7)
        want = np.random.default_rng(7).standard_normal((6, 3))
        assert np.array_equal(generate(spec).data, want)

    def test_iid_t1(self):
        spec = ModelSpec("iid_t1", 6, 3, seed=7)
        rng = np.random.default_rng(7)
        z = rng.standard_normal((6, 3))
        want = z / np.sqrt(rng.chisquare(1.0, size=(6, 1)))
        assert np.array_equal(generate(spec).data, want)

    def test_var1_scaled_identity(self):
        spec = ModelSpec("var1", 5, 3, seed=11, burn_in=4, coef_scale=0.3)
        rng = np.random.default_rng(11)
        eps = rng.standard_normal((9, 3))
        x = np.zeros(3)
        rows = []
        for t in range(9):
            x = 0.3 * x + eps[t]
            if t >= 4:
                rows.append(x)
        assert np.array_equal(generate(spec).data, np.asarray(rows))

    def test_var1_banded_draws_matrix_before_innovations(self):
        spec = ModelSpec(
            "var1", 5, 4, seed=21, burn_in=3, a_low=-0.01, a_high=0.04, band_div=2.0
        )
        rng = np.random.default_rng(21)
        a = rng.uniform(-0.01, 0.04, size=(4, 4))
        idx = np.arange(4)
        a = np.where(np.abs(idx[:, None] - idx[None, :]) <= 2, a, 0.0)
        eps = rng.standard_normal((8, 4))
        x = np.zeros(4)
        rows = []
        for t in range(8):
            x = a @ x + eps[t]
            if t >= 3:
                rows.append(x)
        assert np.array_equal(generate(spec).data, np.asarray(rows))

    def test_svar(self):
        spec = from_setting("setting3.1", 5, 3, seed=5, burn_in=6)
        rng = np.random.default_rng(5)
        width = int(3 // 50.0)
        idx = np.arange(3)
        mask = np.abs(idx[:, None] - idx[None, :]) <= width
        a = np.where(mask, rng.uniform(-0.01, 0.03, size=(3, 3)), 0.0)
        b = np.where(mask, rng.uniform(-0.01, 0.04, size=(3, 3)), 0.0)
        ab = a @ b
        eps = rng.standard_normal((11, 3))
        x = np.zeros((11, 3))
        for t in range(11):
            acc = eps[t].copy()
            if t >= 1:
                acc += b @ x[t - 1]
            if t >= 4:
                acc += a @ x[t - 4]
            if t >= 5:
                acc -= ab @ x[t - 5]
            x[t] = acc
        assert np.array_equal(generate(spec).data, x[6:])

    def test_garch(self):
        spec = from_setting("setting4", 5, 3, seed=13, burn_in=4)
        rng = np.random.default_rng(13)
        a_diag = rng.uniform(0.0, 0.15, size=3)
        b_diag = rng.uniform(0.0, 0.4, size=3)
        const = np.full(3, 0.002)
        eps = rng.standard_normal((9, 3))
        h2 = const.copy()
        rows = []
        x = np.zeros(3)
        for t in range(9):
            if t > 0:
                h2 = const + a_diag * x * x + b_diag * h2
            x = np.sqrt(h2) * eps[t]
            if t >= 4:
                rows.append(x)
        assert np.array_equal(generate(spec).data, np.asarray(rows))

    def test_nma2_uses_exactly_n_plus_two_innovations(self):
        spec = ModelSpec("nma2", 6, 2, seed=3)
        eps = np.random.default_rng(3).standard_normal((8, 2))
        want = eps[2:] * eps[1:-1] * eps[:-2]
        assert np.array_equal(generate(spec).data, want)


class TestZeroCoefficientReductions:
    def test_var1_with_zero_scale_is_iid(self):
        spec = ModelSpec("var1", 6, 3, seed=17, burn_in=5, coef_scale=0.0)
        eps = np.random.default_rng(17).standard_normal((11, 3))
        assert np.array_equal(generate(spec).data, eps[5:])

    def test_garch_with_zero_coefficients_is_scaled_iid(self):
        spec = from_setting("setting4", 6, 3, seed=19, burn_in=5, garch_a_high=0.0, garch_b_high=0.0)
        rng = np.random.default_rng(19)
        rng.uniform(0.0, 0.0, size=3)
        rng.uniform(0.0, 0.0, size=3)
        eps = rng.standard_normal((11, 3))
        assert np.array_equal(generate(spec).data, np.sqrt(0.002) * eps[5:])


class TestDistributions:
    def test_ar_cov_across_coordinate_correlation(self):
        data = generate(from_setting("setting1.2", 5000, 10, seed=23)).data
        adjacent = [np.corrcoef(data[:, j], data[:, j + 1])[0, 1] for j in range(9)]
        assert np.mean(adjacent) == pytest.approx(0.6, abs=0.05)
        two_apart = [np.corrcoef(data[:, j], data[:, j + 2])[0, 1] for j in range(8)]
        assert np.mean(two_apart) == pytest.approx(0.36, abs=0.05)
        assert data.var(axis=0).mean() == pytest.approx(1.0, abs=0.1)

    def test_t1_has_heavy_tails(self):
        data = generate(from_setting("setting1.3", 2000, 4, seed=29)).data
        assert np.mean(np.abs(data) > 10.0) > 0.02

    def test_lognormal_is_exp_of_standard_normal(self):
        data = generate(from_setting("setting1.4", 3000, 4, seed=31)).data
        assert (data > 0).all()
        logs = np.log(data)
        assert logs.mean() == pytest.approx(0.0, abs=0.05)
        assert logs.std() == pytest.approx(1.0, abs=0.05)

    def test_var1_autocorrelation_tracks_coefficient(self):
        spec = from_setting("setting2.1", 3000, 10, seed=37, coef_scale=0.5)
        data = generate(spec).data
        assert lag_corr(data, 1) == pytest.approx(0.5, abs=0.05)

    def test_garch_is_white_in_levels_but_not_in_squares(self):
        data = generate(from_setting("setting4", 2000, 40, seed=41)).data
        assert abs(lag_corr(data, 1)) < 0.02
        assert lag_corr(data**2, 1) > 0.03

    def test_nma2_square_autocorrelation_profile(self):
        data = generate(from_setting("setting5", 4000, 10, seed=43)).data
        sq = data**2
        assert abs(data.mean()) < 0.05
        assert data.var() == pytest.approx(1.0, abs=0.1)
        assert lag_corr(sq, 1) == pytest.approx(8.0 / 26.0, abs=0.08)
        assert lag_corr(sq, 2) == pytest.approx(2.0 / 26.0, abs=0.05)
        assert abs(lag_corr(sq, 3)) < 0.04  # 2-dependent: zero past lag 2

    def test_iid_families_ignore_burn_in(self):
        a = generate(ModelSpec("iid_normal", 8, 3, seed=47, burn_in=0))
        b = generate(ModelSpec("iid_normal", 8, 3, seed=47, burn_in=500))
        assert np.array_equal(a.data, b.data)

    def test_recursive_families_honor_burn_in(self):
        a = generate(ModelSpec("var1", 8, 3, seed=53, burn_in=0, coef_scale=0.5))
        b = generate(ModelSpec("var1", 8, 3, seed=53, burn_in=50, coef_scale=0.5))
        assert not np.array_equal(a.data, b.data)


class TestModelSpecValidation:
    def test_family_inventory(self):
        assert set(FAMILIES) == {
            "iid_normal",
            "iid_normal_ar_cov",
            "iid_t1",
            "iid_lognormal",
            "var1",
            "svar",
            "garch",
            "nma2",
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "white_noise"},
            {"family": "iid_normal", "n": 0},
            {"family": "iid_normal", "p": 0},
            {"family": "iid_normal", "burn_in": -1},
            {"family": "iid_normal", "seed": 2**64},
            {"family": "iid_normal_ar_cov", "rho": 1.0},
            {"family": "var1", "coef_scale": 1.0},
            {"family": "var1", "coef_scale": -0.1},
            {"family": "var1"},  # banded form without band parameters
            {"family": "var1", "a_low": 0.04, "a_high": -0.01, "band_div": 50.0},
            {"family": "var1", "a_low": -0.01, "a_high": 0.04, "band_div": 0.0},
            {"family": "svar", "a_low": -0.01, "a_high": 0.03, "band_div": 50.0},
            {
                "family": "svar",
                "a_low": -0.01,
                "a_high": 0.03,
                "b_low": -0.01,
                "b_high": 0.04,
                "band_div": 50.0,
                "seasonal_lag": 0,
            },
            {"family": "garch", "garch_a_high": 0.6, "garch_b_high": 0.5},
            {"family": "garch", "garch_const": 0.0},
            # parameters the family does not take
            {"family": "iid_normal", "rho": 0.6},
            {"family": "iid_normal", "seasonal_lag": 3},
            {"family": "garch", "coef_scale": 0.1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        kwargs = {"n": 10, "p": 5, **kwargs}
        with pytest.raises(BadModelParam):
            ModelSpec(**kwargs)

    def test_garch_defaults_filled(self):
        spec = ModelSpec("garch", 10, 5)
        assert (spec.garch_a_high, spec.garch_b_high, spec.garch_const) == (0.15, 0.4, 0.002)

    def test_rho_defaults_only_for_ar_cov(self):
        assert ModelSpec("iid_normal_ar_cov", 10, 5).rho == 0.6
        assert ModelSpec("iid_normal", 10, 5).rho is None
        assert "rho" not in from_setting("setting1.1", 10, 5).to_json_obj()

    @pytest.mark.parametrize(
        "obj",
        [
            {"setting": "setting2.1", "coef_scal": 0.2},
            {"family": "iid_normal", "colour": 1},
            {"setting": "setting1.1", "n": "ten"},
            {"family": "iid_normal", "p": [3]},
            {"family": "var1", "coef_scale": "0.3"},
            {"setting": "setting2.1", "family": "svar"},
            {"setting": "setting1.1", "label": "mine"},
        ],
    )
    def test_unknown_key_or_bad_value_is_parse_error(self, obj):
        with pytest.raises(ParseError):
            model_spec_from_json_obj(obj)

    def test_overrides_are_read_like_json(self):
        with pytest.raises(ParseError):
            from_setting("setting2.1", 10, 5, coef_scal=0.2)
        with pytest.raises(BadModelParam):
            from_setting("setting1.1", 10, 5, seasonal_lag=3)


class TestPresets:
    def test_unknown_setting(self):
        with pytest.raises(ParseError):
            from_setting("setting9.9", 10, 5)

    def test_names_are_case_insensitive(self):
        assert from_setting("Setting1.1", 10, 5).family == "iid_normal"

    def test_preset_parameters(self):
        s21 = from_setting("setting2.1", 10, 5)
        assert (s21.family, s21.coef_scale, s21.label) == ("var1", 0.015, "setting2.1")
        s22 = from_setting("setting2.2", 10, 5)
        assert (s22.a_low, s22.a_high, s22.band_div) == (-0.01, 0.04, 50.0)
        s23 = from_setting("setting2.3", 10, 5)
        assert (s23.a_low, s23.a_high, s23.band_div) == (-0.04, 0.015, 20.0)
        s31 = from_setting("setting3.1", 10, 5)
        assert (s31.seasonal_lag, s31.b_high) == (4, 0.04)
        assert from_setting("setting3.2", 10, 5).seasonal_lag == 12
        assert from_setting("setting1.2", 10, 5).rho == 0.6
        assert from_setting("setting4", 10, 5).garch_a_high == 0.15
        assert from_setting("setting5", 10, 5).family == "nma2"

    def test_overrides_replace_preset_values(self):
        spec = from_setting("setting2.1", 10, 5, coef_scale=0.2)
        assert spec.coef_scale == 0.2
        degenerate = from_setting("setting4", 10, 5, garch_a_high=0.0, garch_b_high=0.0)
        assert degenerate.garch_a_high == 0.0


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ALL_SETTINGS)
    def test_spec_survives_json(self, name):
        spec = from_setting(name, 20, 9, seed=5, burn_in=30)
        back = model_spec_from_json_obj(spec.to_json_obj())
        assert back == spec

    def test_setting_form(self):
        obj = {"setting": "setting2.2", "n": 15, "p": 8, "seed": 2}
        spec = model_spec_from_json_obj(obj)
        assert (spec.family, spec.n, spec.p, spec.seed) == ("var1", 15, 8, 2)
        assert spec.a_high == 0.04

    def test_setting_form_with_override(self):
        obj = {"setting": "setting2.1", "n": 15, "p": 8, "coef_scale": 0.3}
        assert model_spec_from_json_obj(obj).coef_scale == 0.3

    def test_rejects_untagged_object(self):
        with pytest.raises(ParseError):
            model_spec_from_json_obj({"n": 10, "p": 5})

    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            model_spec_from_json_obj(["setting1.1"])


class TestReplicateSpec:
    def test_changes_only_requested_fields(self):
        base = from_setting("setting2.2", 10, 5, seed=1)
        rep = replicate_spec(base, seed=77, n=20)
        assert (rep.seed, rep.n, rep.p) == (77, 20, 5)
        assert (rep.family, rep.a_low, rep.label) == (base.family, base.a_low, base.label)

    def test_same_seed_reproduces(self):
        base = from_setting("setting5", 10, 5, seed=123)
        assert np.array_equal(generate(base).data, generate(replicate_spec(base, seed=123)).data)
