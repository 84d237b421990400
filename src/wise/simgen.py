"""Seeded generators for the null and alternative simulation models.

Null families draw i.i.d. rows; alternatives add serial structure:

    iid_normal         rows ~ N(0, I_p)
    iid_normal_ar_cov  rows ~ N(0, Sigma), Sigma_ij = rho^|i-j| (rho = 0.6 by default)
    iid_t1             multivariate t with 1 df: N(0, I_p) / chi(1 df) per row
    iid_lognormal      exp of N(0, I_p), elementwise
    var1               X_t = A X_{t-1} + e_t
    svar               X_t = A X_{t-l} + B X_{t-1} - A B X_{t-l-1} + e_t
    garch              X_t = h_t o e_t,  h_t^2 = b + A X_{t-1}^2 + B h_{t-1}^2
    nma2               X_t = e_t o e_{t-1} o e_{t-2}

with e_t i.i.d. N(0, I_p) throughout and o the elementwise product. The
var1 coefficient is either coef_scale * I or a banded random matrix with
entries U(a_low, a_high) for |i-j| <= floor(p / band_div); svar draws A and
B on the same kind of band; garch uses diagonal A, B with diagonals
U(0, garch_a_high) and U(0, garch_b_high) and constant term garch_const.

Recursive families start from the zero state (h_0^2 = b for garch) and
discard ``burn_in`` initial steps; i.i.d. families and the 2-dependent nma2
need no burn-in and ignore the field. Coefficient matrices are drawn from
the spec's seed stream before any innovations, once per series.

svar evaluates its seasonal terms a block of seasonal_lag rows at a time:
the terms A X_{t-l} and A B X_{t-l-1} of rows [s, s + l) read only rows
before s, so each is one matrix product per block, and each step adds
B X_{t-1} by one matrix-vector product. Every row still sums
((e_t + B X_{t-1}) + A X_{t-l}) - A B X_{t-l-1} in that order. A block's
product rounds like a matrix product, not a matrix-vector one, so at band
width >= 1 the output may differ from versions before this scheme by
rounding (about 1e-16 relative); on a diagonal band it is unchanged.

Randomness comes from numpy's PCG64 via ``default_rng(seed)``; normal
variates use its ziggurat sampler. Fixed seed means bit-identical output
regardless of thread count, on any platform numpy supports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._grammar import Param, family_of, integer, read_fields, real, string, validate
from .errors import BadModelParam, InvalidValue, ParseError
from .types import ObservationSeries


_A = (Param("a_low", read=real), Param("a_high", read=real))
_B = (Param("b_low", read=real), Param("b_high", read=real))
_BAND_DIV = Param("band_div", read=real, low=0.0)

# family -> {parameter: default}. A default of None leaves the parameter
# unset; a required one must then be given. The checks a row cannot state
# (closed bounds at 0, low <= high, garch stationarity, var1's choice of
# coef_scale or band) are ModelSpec's _check_<family> methods.
_FAMILIES = {
    "iid_normal": {},
    "iid_normal_ar_cov": {Param("rho", read=real, low=-1.0, high=1.0): 0.6},
    "iid_t1": {},
    "iid_lognormal": {},
    "var1": dict.fromkeys(
        p._replace(required=False) for p in (Param("coef_scale", read=real), *_A, _BAND_DIV)
    ),
    "svar": dict.fromkeys((*_A, *_B, _BAND_DIV, Param("seasonal_lag", read=integer, low=0))),
    "garch": {
        Param("garch_a_high", read=real): 0.15,
        Param("garch_b_high", read=real): 0.4,
        Param("garch_const", read=real, low=0.0): 0.002,
    },
    "nma2": {},
}
FAMILIES = tuple(_FAMILIES)

# the fields of every family; seed and burn_in are closed at 0, checked in code
_COMMON = (
    Param("n", read=integer, low=0),
    Param("p", read=integer, low=0),
    Param("seed", read=integer),
    Param("burn_in", read=integer),
    Param("label", read=string),
)
# every key of a model's JSON form, and of a preset override
_KEYS = {p.field: p._replace(required=False) for ps in (_COMMON, *_FAMILIES.values()) for p in ps}

# the band of both seasonal VAR settings
_SVAR = {"a_low": -0.01, "a_high": 0.03, "b_low": -0.01, "b_high": 0.04, "band_div": 50.0}
# preset name -> (family, parameters beyond the family's defaults)
_SETTINGS = {
    "setting1.1": ("iid_normal", {}),
    "setting1.2": ("iid_normal_ar_cov", {}),
    "setting1.3": ("iid_t1", {}),
    "setting1.4": ("iid_lognormal", {}),
    "setting2.1": ("var1", {"coef_scale": 0.015}),
    "setting2.2": ("var1", {"a_low": -0.01, "a_high": 0.04, "band_div": 50.0}),
    "setting2.3": ("var1", {"a_low": -0.04, "a_high": 0.015, "band_div": 20.0}),
    "setting3.1": ("svar", {**_SVAR, "seasonal_lag": 4}),
    "setting3.2": ("svar", {**_SVAR, "seasonal_lag": 12}),
    "setting4": ("garch", {}),
    "setting5": ("nma2", {}),
}


@dataclass(frozen=True)
class ModelSpec:
    """One fully parameterized data-generating model.

    Only the parameters ``family`` takes are set, with the family's defaults
    filled in; the rest stay None.
    """

    family: str
    n: int
    p: int
    seed: int = 0
    burn_in: int = 200
    label: str = ""
    rho: Optional[float] = None
    coef_scale: Optional[float] = None
    a_low: Optional[float] = None
    a_high: Optional[float] = None
    b_low: Optional[float] = None
    b_high: Optional[float] = None
    band_div: Optional[float] = None
    seasonal_lag: Optional[int] = None
    garch_a_high: Optional[float] = None
    garch_b_high: Optional[float] = None
    garch_const: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadModelParam(f"unknown model family {self.family!r}")
        params = _FAMILIES[self.family]
        for p, default in params.items():
            if getattr(self, p.field) is None:
                object.__setattr__(self, p.field, default)
        validate(self, (*_COMMON, *params), self.family, BadModelParam)
        if self.burn_in < 0:
            raise BadModelParam(f"burn_in must be nonnegative, got {self.burn_in}")
        if not 0 <= self.seed < 2**64:
            raise BadModelParam("seed must be a 64-bit unsigned integer")
        # no family holds more than seasonal_lag + 2 + burn_in + n rows of p floats
        rows = (self.seasonal_lag or 0) + 2 + self.burn_in + self.n
        if rows * self.p * 8 > np.iinfo(np.intp).max:
            raise BadModelParam(
                f"n={self.n}, p={self.p}, burn_in={self.burn_in}: too large for numpy to index"
            )
        getattr(self, f"_check_{self.family}", lambda: None)()

    def _band(self, which: str):
        low = getattr(self, f"{which}_low")
        high = getattr(self, f"{which}_high")
        if low is None or high is None or self.band_div is None:
            raise BadModelParam(f"{self.family} needs {which}_low, {which}_high, band_div")
        if low > high:
            raise BadModelParam(f"{which}_low must not exceed {which}_high")

    def _check_var1(self):
        if self.coef_scale is None:
            self._band("a")
        elif not 0.0 <= self.coef_scale < 1.0:
            raise BadModelParam(f"coef_scale must lie in [0,1), got {self.coef_scale}")

    def _check_svar(self):
        self._band("a")
        self._band("b")

    def _check_garch(self):
        if self.garch_a_high < 0 or self.garch_b_high < 0:
            raise BadModelParam("garch coefficient ranges must be nonnegative")
        if not self.garch_a_high + self.garch_b_high < 1.0:
            raise BadModelParam("garch needs garch_a_high + garch_b_high < 1 for stationarity")

    def to_json_obj(self) -> dict:
        fields = (*_COMMON, *_FAMILIES[self.family])
        values = ((p.field, getattr(self, p.field)) for p in fields)
        return {"family": self.family, **{k: v for k, v in values if v is not None and v != ""}}


def from_setting(
    name: str,
    /,
    n: int,
    p: int,
    seed: int = ModelSpec.seed,
    burn_in: int = ModelSpec.burn_in,
    **overrides,
) -> ModelSpec:
    """Build a ModelSpec from a preset name like 'setting2.1'.

    Keyword overrides replace preset parameters, e.g.
    ``from_setting('setting2.1', 100, 200, coef_scale=0.2)`` or the
    degenerate ``from_setting('setting4', 100, 200, garch_a_high=0.0,
    garch_b_high=0.0)``. An unknown key or a value of the wrong type is a
    ParseError, a parameter the family does not take a BadModelParam.
    """
    key = str(name).strip().lower()
    if key not in _SETTINGS:
        known = ", ".join(sorted(_SETTINGS))
        raise ParseError(f"unknown setting {name!r}; known: {known}")
    if "family" in overrides or "label" in overrides:
        raise ParseError(f"setting {key} fixes the family and the label")
    family, preset = _SETTINGS[key]
    fields = {**preset, "n": n, "p": p, "seed": seed, "burn_in": burn_in, **overrides}
    return ModelSpec(family, label=key, **read_fields(fields, _KEYS.values(), f"setting {key}"))


def model_spec_from_json_obj(obj: dict) -> ModelSpec:
    """ModelSpec from its JSON form; either a {"setting": ...} preset
    reference with overrides, or the full field form. n and p default to
    4 and 1, placeholders for a plan's model, which the grid sizes."""
    if not isinstance(obj, dict):
        raise ParseError("model JSON must be an object")
    fields = {"n": 4, "p": 1, **obj}
    if "setting" in fields:
        return from_setting(fields.pop("setting"), **fields)
    family, fields = family_of(fields, _FAMILIES, {}, "model")
    return ModelSpec(family, **read_fields(fields, _KEYS.values(), "model"))


def _banded_uniform(rng, p: int, low: float, high: float, band_div: float) -> np.ndarray:
    """Random matrix with U(low, high) entries on |i-j| <= floor(p/band_div)."""
    width = int(p // band_div)
    a = rng.uniform(low, high, size=(p, p))
    below = np.tri(p, k=-width - 1, dtype=bool)  # j < i - width
    a[below] = 0.0
    a[below.T] = 0.0
    return a


def _zero_history(rng, spec: ModelSpec, pad: int) -> np.ndarray:
    """The burn_in + n innovations below ``pad`` zero rows, the zero state a
    recursion starts from. The recursion turns each innovation row into its
    value in place, in time order, so it reads only rows already written."""
    x = np.zeros((pad + spec.burn_in + spec.n, spec.p))
    rng.standard_normal(out=x[pad:])
    return x


def _ar1(coef: float, e: np.ndarray, axis: int) -> np.ndarray:
    """y_k = coef * y_(k-1) + e_k along ``axis``, from y_(-1) = 0."""
    # imported here: scipy.signal takes most of a second to import
    from scipy.signal import lfilter

    return lfilter([1.0], [1.0, -coef], e, axis=axis)


def generate(spec: ModelSpec) -> ObservationSeries:
    """Draw one series from the model; pure in (spec, seed)."""
    if not isinstance(spec, ModelSpec):
        raise InvalidValue(f"model must be a ModelSpec, got {type(spec).__name__}")
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n, spec.p
    fam = spec.family

    if fam == "iid_normal":
        data = rng.standard_normal((n, p))
    elif fam == "iid_normal_ar_cov":
        # AR(1) recursion across coordinates gives cov exactly rho^|i-j|
        z = rng.standard_normal((n, p))
        e = np.sqrt(1.0 - spec.rho**2) * z
        e[:, 0] = z[:, 0]
        data = _ar1(spec.rho, e, axis=1)
    elif fam == "iid_t1":
        z = rng.standard_normal((n, p))
        denom = np.sqrt(rng.chisquare(1.0, size=(n, 1)))
        data = z / denom
    elif fam == "iid_lognormal":
        data = np.exp(rng.standard_normal((n, p)))
    elif fam == "nma2":
        eps = rng.standard_normal((n + 2, p))
        data = eps[2:] * eps[1:-1] * eps[:-2]
    elif fam == "var1" and spec.coef_scale is not None:
        eps = rng.standard_normal((spec.burn_in + n, p))
        data = _ar1(spec.coef_scale, eps, axis=0)[-n:]
    elif fam == "var1":
        a = _banded_uniform(rng, p, spec.a_low, spec.a_high, spec.band_div)
        x = _zero_history(rng, spec, 1)
        for prev, row in zip(x, x[1:]):
            row += a.dot(prev)
        data = x[-n:]
    elif fam == "svar":
        a = _banded_uniform(rng, p, spec.a_low, spec.a_high, spec.band_div)
        b = _banded_uniform(rng, p, spec.b_low, spec.b_high, spec.band_div)
        # C-ordered transposes, so a block of rows times one is a plain gemm
        ab_t = (a @ b).T.copy()
        a_t = a.T.copy()
        del a
        lag = spec.seasonal_lag
        x = _zero_history(rng, spec, lag + 1)
        # the seasonal terms of rows [start, start + lag) read only rows
        # before start, which are final: one product per block for each.
        # ndarray.dot makes the same BLAS calls as @ with less overhead per call.
        for start in range(lag + 1, len(x), lag):
            seasonal = x[start - lag : start].dot(a_t)
            back = x[start - lag - 1 : start - 1].dot(ab_t)
            for t in range(start, min(start + lag, len(x))):
                row = x[t]
                row += b.dot(x[t - 1])
                row += seasonal[t - start]
                row -= back[t - start]
        data = x[-n:]
    else:  # garch
        a_diag = rng.uniform(0.0, spec.garch_a_high, size=p)
        b_diag = rng.uniform(0.0, spec.garch_b_high, size=p)
        x = _zero_history(rng, spec, 1)
        h2 = np.zeros(p)
        for prev, row in zip(x, x[1:]):
            h2 = spec.garch_const + a_diag * prev * prev + b_diag * h2
            row *= np.sqrt(h2)
        data = x[-n:]

    return ObservationSeries("vector", data)


def replicate_spec(spec: ModelSpec, seed: int, n: Optional[int] = None, p: Optional[int] = None) -> ModelSpec:
    """Copy of spec with a new seed (and optionally new n, p)."""
    sizes = {key: value for key, value in (("n", n), ("p", p)) if value is not None}
    return replace(spec, seed=seed, **sizes)
