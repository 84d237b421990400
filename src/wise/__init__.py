"""Weighted-similarity test for serial independence.

The test aggregates all pairwise observation similarities with lag-dependent
weights and standardizes the sum by its exact mean and variance under the
permutation null, giving an analytic N(0,1) calibration that works for
high-dimensional, functional and matrix-valued series alike.

Quick start::

    import numpy as np
    from wise import run_test, validate_series, kernels, weights

    series = validate_series(np.random.default_rng(7).standard_normal((100, 50)), "vector")
    result = run_test(series, kernels.neg_l1(), weights.default_weight())
    print(result.z_g, result.p_value)
"""

from . import bench, core, engine, ingest, io, kernels, simgen, weights
from .core import (
    build_similarity_matrix,
    build_weight_matrix,
    moment_summary,
    validate_series,
)
from .engine import (
    DiagnosticsReport,
    TestConfig,
    TestResult,
    mahalanobis_aggregate,
    rearrangement_bounds,
    regularity_diagnostics,
    run_test,
)
from .errors import (
    BadModelParam,
    BadRange,
    BadWeightParam,
    DegenerateVariance,
    ExperimentError,
    InvalidValue,
    KernelMismatch,
    NotAQuantile,
    ParseError,
    ShapeMismatch,
    TooFewObservations,
    WiseError,
)
from .kernels import KernelSpec, parse_kernel_spec
from .simgen import ModelSpec, from_setting, generate
from .types import MomentSummary, ObservationSeries, SimilarityMatrix, WeightMatrix
from .weights import WeightSpec, parse_weight_spec

__version__ = "1.0.0"

__all__ = [
    "BadModelParam",
    "BadRange",
    "BadWeightParam",
    "DegenerateVariance",
    "DiagnosticsReport",
    "ExperimentError",
    "InvalidValue",
    "KernelMismatch",
    "KernelSpec",
    "ModelSpec",
    "MomentSummary",
    "NotAQuantile",
    "ObservationSeries",
    "ParseError",
    "ShapeMismatch",
    "SimilarityMatrix",
    "TestConfig",
    "TestResult",
    "TooFewObservations",
    "WeightMatrix",
    "WeightSpec",
    "WiseError",
    "bench",
    "build_similarity_matrix",
    "build_weight_matrix",
    "core",
    "engine",
    "from_setting",
    "generate",
    "ingest",
    "io",
    "kernels",
    "mahalanobis_aggregate",
    "moment_summary",
    "parse_kernel_spec",
    "parse_weight_spec",
    "rearrangement_bounds",
    "regularity_diagnostics",
    "run_test",
    "simgen",
    "types",
    "validate_series",
    "weights",
]
