"""Names, units and assembly of the benchmark's metrics.

The traced entry points are named where their callers look them up, so a
wrapper placed there sees every call the program makes through that name.
Nothing here imports ``wise``.
"""

from __future__ import annotations

import statistics

from .spans import accounted_time, busy_by_thread, layer_table

# (module, attribute, span name); the span name is "<layer module>.<function>"
ENTRY_POINTS = (
    ("wise.core", "pairwise_similarity", "kernels.pairwise_similarity"),
    ("wise.engine", "build_similarity_matrix", "core.build_similarity_matrix"),
    ("wise.engine", "build_weight_matrix", "core.build_weight_matrix"),
    ("wise.engine", "moment_summary", "core.moment_summary"),
    ("wise.engine", "compute_z", "engine.compute_z"),
    ("wise.engine", "regularity_diagnostics", "engine.regularity_diagnostics"),
    ("wise.engine", "permutation_moments", "engine.permutation_moments"),
    ("wise.engine", "run_test", "engine.run_test"),
    ("wise.engine", "mahalanobis_aggregate", "engine.mahalanobis_aggregate"),
    ("wise.bench", "run_test", "engine.run_test"),
    ("wise.bench", "generate", "simgen.generate"),
    ("wise.bench", "run_experiment", "bench.run_experiment"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in ENTRY_POINTS))

# the work after the kernel on the analytic path
POST_KERNEL = (
    "core.build_similarity_matrix",
    "core.build_weight_matrix",
    "core.moment_summary",
    "engine.compute_z",
    "engine.regularity_diagnostics",
)

END_TO_END = {
    "round_s_mean": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

COUNTS = {
    "kernels.pair_evals": "count",
    "kernels.feature_ops": "count",
    "engine.perm_draws": "count",
    "engine.gather_bytes_computed": "B",
}

DERIVED = {
    "analytic.post_kernel_share": "ratio",
    "bench.parallel_efficiency": "ratio",
    "bench.pool_speedup": "ratio",
    "trace.overhead": "ratio",
    "trace.accounted_share": "ratio",
    "trace.round_s_p50": "s",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.peak_alloc_mb"] = "MiB"
    units.update(COUNTS)
    units.update(DERIVED)
    return units


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _kernel_counts(args, kwargs, result):
    series = _arg(args, kwargs, 1, "series")
    n = getattr(series, "n", 0)
    pairs = n * (n - 1) // 2
    features = series.data[0].size if n else 0
    return {"kernels.pair_evals": pairs, "kernels.feature_ops": pairs * features}


def _gather_counts(n, draws):
    return {"engine.perm_draws": draws, "engine.gather_bytes_computed": draws * n * n * 8}


def _run_test_counts(args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    config = _arg(args, kwargs, 3, "config")
    if getattr(config, "method", None) != "permutation":
        return {}
    # a degenerate null returns p = 1 before any permutation is drawn
    if getattr(result, "z_g", None) == 0.0 and getattr(result, "p_value", None) == 1.0:
        return {}
    return _gather_counts(series.n, config.permutations)


def _aggregate_counts(args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    draws = _arg(args, kwargs, 3, "B")  # the workload always passes B
    return {} if draws is None else _gather_counts(series.n, draws)


COUNTERS = {
    "kernels.pairwise_similarity": _kernel_counts,
    "engine.run_test": _run_test_counts,
    "engine.mahalanobis_aggregate": _aggregate_counts,
}


def parallel_efficiency(spans, workers: int) -> float:
    """Worker busy time / (wall time x workers) over bench.run_experiment
    spans; busy time is the union, per thread, of their direct children."""
    experiments = {s for s in spans if s.name == "bench.run_experiment"}
    if not experiments or workers < 1:
        return 0.0
    children = [s for s in spans if s.parent in experiments]
    busy = sum(
        end - start
        for intervals in busy_by_thread(children).values()
        for start, end in intervals
    )
    return busy / (sum(s.duration for s in experiments) * workers)


def round_layer_metrics(tracer, round_s: float) -> dict:
    """Per-layer metrics of one traced round."""
    table = layer_table(tracer.spans)
    out = {}
    for layer in LAYERS:
        row = table.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
    for key in COUNTS:
        out[key] = tracer.counts.get(key, 0)
    kernel = out["kernels.pairwise_similarity.self_s"]
    post = sum(out[f"{layer}.self_s"] for layer in POST_KERNEL)
    out["analytic.post_kernel_share"] = post / kernel if kernel > 0 else 0.0
    out["trace.accounted_share"] = accounted_time(tracer.spans, tracer.caller) / round_s
    return out


def layer_metrics(rounds, traced_s, untraced_s, peak_bytes, pooled_s, efficiency) -> dict:
    """Medians over traced rounds, plus tracemalloc peaks and trace overhead.

    ``rounds`` holds one round_layer_metrics dict per traced round.
    ``pooled_s`` and ``efficiency`` are the traced round times and parallel
    efficiencies of the rounds run on the bench thread pool; both are empty
    for a workload without one, whose pool metrics are then 0.
    """
    out = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    out["bench.parallel_efficiency"] = statistics.median(efficiency) if efficiency else 0.0
    out["bench.pool_speedup"] = (
        statistics.median(traced_s) / statistics.median(pooled_s) if pooled_s else 0.0
    )
    for layer in LAYERS:
        out[f"{layer}.peak_alloc_mb"] = peak_bytes.get(layer, 0) / 2**20
    out["trace.round_s_p50"] = statistics.median(traced_s)
    out["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    return out
