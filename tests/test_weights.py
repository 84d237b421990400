import numpy as np
import pytest

from wise.errors import BadWeightParam, InvalidValue, ParseError
from wise.weights import (
    WeightSpec,
    abs_cosine,
    algebraic,
    cosine,
    default_weight,
    exp_decay,
    fourier,
    geometric,
    mixed,
    parse_weight_spec,
    weight_profile,
    weight_spec_from_json_obj,
)

ALL_SPECS = [
    default_weight(),
    algebraic(1.5),
    geometric(0.5),
    exp_decay(2.0),
    cosine(4.0),
    abs_cosine(3.0),
    fourier([(0.5, 4.0), (0.5, 6.0)]),
    mixed(0.5, 1.2, 7.0),
]

PROXIMITY_SPECS = [default_weight(), algebraic(2.0), geometric(0.3), exp_decay(1.5)]


def test_default_weight_values():
    w = weight_profile(default_weight(), np.arange(4))
    assert w[1] == -0.5
    assert w[3] == -0.9
    assert w[2] == pytest.approx(1.0 / 5.0 - 1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_lag_zero_is_exactly_zero(spec):
    assert weight_profile(spec, np.array([0]))[0] == 0.0


def test_fourier_common_period_returns_to_zero():
    spec = fourier([(0.5, 4.0), (0.5, 6.0)])
    # 12 is a common multiple of both periods, so both cosines are back at 1
    assert abs(weight_profile(spec, np.array([12]))[0]) <= 1e-12


@pytest.mark.parametrize("spec", PROXIMITY_SPECS, ids=lambda s: s.family)
def test_proximity_families_monotone_and_bounded(spec):
    lags = np.arange(0, 60)
    vals = weight_profile(spec, lags)
    assert np.all(np.diff(vals) <= 0)
    assert np.all(vals <= 0.0)
    assert np.all(vals >= -1.0)


@pytest.mark.parametrize("l", [3, 4, 7])
def test_cosine_periodicity(l):
    spec = cosine(float(l))
    lags = np.arange(0, 30)
    assert weight_profile(spec, lags) == pytest.approx(weight_profile(spec, lags + l), abs=1e-12)


def test_profile_matches_scalar_evaluation():
    lags = np.arange(0, 25)
    for spec in ALL_SPECS:
        prof = weight_profile(spec, lags)
        scalars = np.array([weight_profile(spec, np.array([t]))[0] for t in lags])
        assert np.array_equal(prof, scalars)


def test_mixed_blends_proximity_and_cosine():
    spec = mixed(0.25, 1.0, 4.0)
    t = 3
    prox = 1.0 / 3.0 - 1.0
    cos = np.cos(2.0 * np.pi * 3.0 / 4.0) - 1.0
    assert weight_profile(spec, np.array([t]))[0] == pytest.approx(0.25 * prox + 0.75 * cos, rel=1e-12)


def test_negative_lag_rejected():
    with pytest.raises(InvalidValue):
        weight_profile(default_weight(), np.array([-1]))


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: algebraic(1.0),
        lambda: algebraic(0.5),
        lambda: geometric(0.0),
        lambda: geometric(1.0),
        lambda: geometric(1.5),
        lambda: exp_decay(0.0),
        lambda: exp_decay(-1.0),
        lambda: cosine(0.0),
        lambda: abs_cosine(-2.0),
        lambda: fourier([(0.7, 4.0), (0.7, 6.0)]),
        lambda: fourier([(1.0, 4.0)]),
        lambda: fourier([(0.5, 4.0), (0.5, 0.0)]),
        lambda: fourier([]),
        lambda: mixed(0.0, 1.0, 4.0),
        lambda: mixed(1.0, 1.0, 4.0),
        lambda: mixed(0.5, 0.0, 4.0),
        lambda: mixed(0.5, 1.0, 0.0),
    ],
)
def test_bad_parameters_rejected(ctor):
    with pytest.raises(BadWeightParam):
        ctor()


def test_missing_required_parameter_rejected():
    with pytest.raises(BadWeightParam):
        WeightSpec("geometric")


def test_parse_default_alias():
    assert parse_weight_spec("default") == default_weight()
    assert parse_weight_spec("default_cauchy") == default_weight()


def test_parse_scalar_families():
    assert parse_weight_spec("geometric:rho=0.5") == geometric(0.5)
    assert parse_weight_spec("algebraic:beta=2") == algebraic(2.0)
    assert parse_weight_spec("exp_decay:lambda=1.5") == exp_decay(1.5)
    assert parse_weight_spec("cosine:l=4") == cosine(4.0)
    assert parse_weight_spec("mixed:alpha=0.5,beta=1.2,l=7") == mixed(0.5, 1.2, 7.0)


def test_parse_fourier_terms():
    spec = parse_weight_spec("fourier:alpha=0.5,l=4;alpha=0.5,l=6")
    assert spec == fourier([(0.5, 4.0), (0.5, 6.0)])


def test_parse_out_of_range_parameter():
    with pytest.raises(BadWeightParam):
        parse_weight_spec("geometric:rho=1.5")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nosuchfamily",
        "geometric",
        "geometric:rho=abc",
        "geometric:rho=0.5,rho=0.6",
        "geometric:sigma=0.5",
        "default:rho=0.5",
        "fourier:alpha=0.5",
        "fourier:alpha=0.5,l=4,junk=1",
        "fourier",
        "geometric:rho=0.5;rho=0.6",
        "exp_decay:lambda=1,lam=2",
    ],
)
def test_parse_rejects_bad_grammar(text):
    with pytest.raises(ParseError):
        parse_weight_spec(text)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_string_round_trip(spec):
    assert parse_weight_spec(spec.to_string()) == spec


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_json_round_trip(spec):
    assert weight_spec_from_json_obj(spec.to_json_obj()) == spec


@pytest.mark.parametrize(
    "spec", [geometric(0.123456789), exp_decay(1234567.0), fourier([(1 / 3, 4.0), (2 / 3, 7.25)])]
)
def test_string_round_trip_keeps_every_digit(spec):
    assert parse_weight_spec(spec.to_string()) == spec


def test_three_term_fourier_round_trips():
    spec = fourier([(0.2, 4.0), (0.3, 6.0), (0.5, 9.0)])
    assert spec.to_string() == "fourier:alpha=0.2,l=4;alpha=0.3,l=6;alpha=0.5,l=9"
    assert parse_weight_spec(spec.to_string()) == spec
    assert weight_spec_from_json_obj(spec.to_json_obj()) == spec


def test_canonical_strings():
    assert default_weight().to_string() == "default"
    assert exp_decay(1.5).to_string() == "exp_decay:lambda=1.5"
    assert mixed(0.5, 1.2, 7.0).to_string() == "mixed:alpha=0.5,beta=1.2,l=7"


@pytest.mark.parametrize("key", ["lambda", "lam"])
def test_both_lambda_spellings_accepted(key):
    assert parse_weight_spec(f"exp_decay:{key}=1.5") == exp_decay(1.5)
    assert weight_spec_from_json_obj({"family": "exp_decay", key: 1.5}) == exp_decay(1.5)


@pytest.mark.parametrize(
    "obj",
    [
        {"family": "geometric", "rho": 0.5, "junk": 1},
        {"family": "default", "rho": 0.5},
        {"family": "exp_decay", "lam": 1.0, "lambda": 2.0},
        {"family": "geometric"},
        {"family": "geometric", "rho": "abc"},
        {"family": "geometric", "rho": "0.5"},
        {"family": "geometric", "rho": True},
        {"family": "fourier", "terms": [[0.5]]},
        {"family": "fourier", "terms": [["0.5", 4], [0.5, 6]]},
    ],
)
def test_json_rejects_bad_keys_and_values(obj):
    with pytest.raises(ParseError):
        weight_spec_from_json_obj(obj)


def test_parameters_outside_the_family_rejected():
    with pytest.raises(BadWeightParam):
        WeightSpec("geometric", rho=0.5, beta=2.0)
