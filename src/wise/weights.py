"""Lag-weight families.

A weight spec maps a nonnegative integer lag t to a real weight w(t), with
w(0) = 0 for every family. Proximity families (default_cauchy, algebraic,
geometric, exp_decay) decay monotonically and stay in [-1, 0]; trigonometric
families (cosine, abs_cosine, fourier) target periodic dependence; mixed
blends one proximity term with one cosine term.

Closed forms, for lag t > 0:

    default_cauchy        1/(1 + t^2) - 1
    algebraic(beta)       (1 + t)^(-beta) - 1,        beta > 1
    geometric(rho)        rho^t - 1,                  0 < rho < 1
    exp_decay(lam)        exp(-(t/lam)^2) - 1,        lam > 0
    cosine(l)             cos(2 pi t / l) - 1,        l > 0
    abs_cosine(l)         |cos(pi t / l)| - 1,        l > 0
    fourier((a_k, l_k))   sum_k a_k cos(2 pi t / l_k) - 1,  a_k in (0,1), sum a_k = 1
    mixed(alpha, beta, l) alpha (t^(-beta) - 1) + (1-alpha)(cos(2 pi t / l) - 1)

The mixed proximity term t^(-beta) is taken to be 1 at t = 0 so that the
family, like every other, returns exactly 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._grammar import Param, Spec, check_range, read_fields, real_float, to_text
from .errors import BadWeightParam, InvalidValue

# relative slack when checking that fourier coefficients sum to one
_FOURIER_SUM_TOL = 1e-12


def _read_terms(raw) -> Tuple[Tuple[float, float], ...]:
    """Fourier (alpha, l) terms, each in range, the alphas summing to one."""
    terms = tuple((real_float(a), real_float(l)) for a, l in raw)
    if not terms:
        raise BadWeightParam("fourier requires at least one (alpha, l) term")
    for term in terms:
        for p, value in zip(_TERM, term):
            check_range(p, value, "fourier term")
    total = sum(a for a, _ in terms)
    if abs(total - 1.0) > _FOURIER_SUM_TOL:
        raise BadWeightParam(f"fourier coefficients must sum to 1, got {total!r}")
    return terms


_ALPHA = Param("alpha", low=0.0, high=1.0)
_L = Param("l", low=0.0)
# one fourier term: [alpha, l] in JSON, alpha=..,l=.. in text
_TERM = (_ALPHA, _L)


@dataclass(frozen=True)
class WeightSpec(Spec):
    """Validated description of one lag-weight family.

    Only the parameters relevant to ``family`` are set; the rest stay None.
    ``terms`` holds the fourier (coefficient, period) pairs, in text
    ``;``-separated groups: ``fourier:alpha=0.5,l=4;alpha=0.5,l=6``.
    """

    family: str
    beta: Optional[float] = None
    rho: Optional[float] = None
    lam: Optional[float] = None
    l: Optional[float] = None
    alpha: Optional[float] = None
    terms: Optional[Tuple[Tuple[float, float], ...]] = None

    TABLE = {
        "default_cauchy": (),
        "algebraic": (Param("beta", low=1.0),),
        "geometric": (Param("rho", low=0.0, high=1.0),),
        "exp_decay": (Param("lam", low=0.0, text="lambda"),),
        "cosine": (_L,),
        "abs_cosine": (_L,),
        "fourier": (Param("terms", read=_read_terms),),
        "mixed": (_ALPHA, Param("beta", low=0.0), _L),
    }
    SHORT = {"default_cauchy": "default"}
    WHAT = "weight"

    def to_json_obj(self) -> dict:
        obj = super().to_json_obj()
        if self.terms is not None:  # as JSON reads them: lists, not tuples
            obj["terms"] = [list(term) for term in self.terms]
        return obj

    def to_string(self) -> str:
        if self.terms is None:
            return super().to_string()
        return to_text(self.family, _TERM, self.terms)

    @classmethod
    def _json_of(cls, family, groups) -> dict:
        if family != "fourier" or not groups:
            return super()._json_of(family, groups)
        terms = [read_fields(group, _TERM, "fourier term") for group in groups]
        return {"family": family, "terms": [[t["alpha"], t["l"]] for t in terms]}


def default_weight() -> WeightSpec:
    return WeightSpec("default_cauchy")


def algebraic(beta: float) -> WeightSpec:
    return WeightSpec("algebraic", beta=float(beta))


def geometric(rho: float) -> WeightSpec:
    return WeightSpec("geometric", rho=float(rho))


def exp_decay(lam: float) -> WeightSpec:
    return WeightSpec("exp_decay", lam=float(lam))


def cosine(l: float) -> WeightSpec:
    return WeightSpec("cosine", l=float(l))


def abs_cosine(l: float) -> WeightSpec:
    return WeightSpec("abs_cosine", l=float(l))


def fourier(terms: Sequence[Tuple[float, float]]) -> WeightSpec:
    return WeightSpec("fourier", terms=tuple(terms))


def mixed(alpha: float, beta: float, l: float) -> WeightSpec:
    return WeightSpec("mixed", alpha=float(alpha), beta=float(beta), l=float(l))


def weight_profile(spec: WeightSpec, lags: np.ndarray) -> np.ndarray:
    """Evaluate w at an array of nonnegative integer lags. Vectorized."""
    t = np.asarray(lags, dtype=np.float64)
    if np.any(t < 0):
        raise InvalidValue("lags must be nonnegative")
    f = spec.family
    if f == "default_cauchy":
        out = 1.0 / (1.0 + t * t) - 1.0
    elif f == "algebraic":
        out = (1.0 + t) ** (-spec.beta) - 1.0
    elif f == "geometric":
        out = spec.rho**t - 1.0
    elif f == "exp_decay":
        out = np.exp(-((t / spec.lam) ** 2)) - 1.0
    elif f == "cosine":
        out = np.cos(2.0 * np.pi * t / spec.l) - 1.0
    elif f == "abs_cosine":
        out = np.abs(np.cos(np.pi * t / spec.l)) - 1.0
    elif f == "fourier":
        out = np.zeros_like(t)
        for a, l in spec.terms:
            out += a * np.cos(2.0 * np.pi * t / l)
        out -= 1.0
    else:  # mixed
        prox = np.zeros_like(t)
        nz = t > 0
        prox[nz] = t[nz] ** (-spec.beta) - 1.0
        out = spec.alpha * prox + (1.0 - spec.alpha) * (
            np.cos(2.0 * np.pi * t / spec.l) - 1.0
        )
    # w(0) = 0 must hold exactly, not just to rounding (fourier coefficients
    # summing to 1-1e-16 would otherwise leak through)
    return np.where(t == 0, 0.0, out)


parse_weight_spec = WeightSpec.parse
