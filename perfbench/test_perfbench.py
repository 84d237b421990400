"""Tests of the benchmark's own code: reference moments, span arithmetic,
seeded inputs and the metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import reference  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    LAYERS,
    layer_metrics,
    parallel_efficiency,
    per_layer_units,
)
from perfbench.spans import (  # noqa: E402
    MemoryProbe,
    Span,
    Tracer,
    accounted_time,
    concurrency_excess,
    layer_table,
    patched,
    self_times,
)


def _symmetric_zero_diagonal(rng, n):
    a = rng.standard_normal((n, n))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return a


def _enumerated(S, W):
    """Mean and variance of sum_{i != j} W_ij S_pi(i)pi(j) over all n! pi."""
    n = S.shape[0]
    zs = []
    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        zs.append(float(np.sum(W * S[np.ix_(p, p)])))
    zs = np.array(zs)
    return zs.mean(), zs.var()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_reference_moments_match_enumeration(n):
    rng = np.random.default_rng(n)
    S = _symmetric_zero_diagonal(rng, n) + 3.0  # an offset the centering must remove
    for W in (_symmetric_zero_diagonal(rng, n), reference.default_weight_matrix(n)):
        mean, var = _enumerated(S, W)
        ref = reference.centered_moments(S, W)
        assert ref["e_z"] == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert ref["var_z"] == pytest.approx(var, rel=1e-10)
        assert ref["z"] == pytest.approx(float(np.sum(W * S)), rel=1e-12)
        assert not ref["degenerate"]


def test_reference_ignores_diagonal_and_flags_constant_field():
    n = 6
    rng = np.random.default_rng(0)
    W = reference.default_weight_matrix(n)
    S = np.full((n, n), -4.0)
    np.fill_diagonal(S, rng.standard_normal(n))
    ref = reference.centered_moments(S, W)
    assert ref["degenerate"] and ref["p"] == 1.0 and np.isnan(ref["z_g"])


def test_reference_similarity_and_weights_by_hand():
    x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
    S = reference.neg_l1_similarity(x)
    assert S[0, 1] == -4.0 and S[1, 2] == -3.0 and S[0, 2] == -1.0
    W = reference.default_weight_matrix(3)
    assert W[0, 0] == 0.0 and W[0, 1] == -0.5 and W[2, 0] == pytest.approx(-0.8)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    a = reference.iid_normal(3, 50, 4)
    assert np.array_equal(a, reference.iid_normal(3, 50, 4))
    assert not np.array_equal(a, reference.iid_normal(4, 50, 4))
    v = reference.var1(3, 50, 4, 0.3, 20)
    assert v.shape == (50, 4)
    assert np.array_equal(v, reference.var1(3, 50, 4, 0.3, 20))
    assert not np.array_equal(v, reference.var1(4, 50, 4, 0.3, 20))
    # the two streams of one seed are independent draws
    assert not np.array_equal(a, reference.iid_normal(3, 50, 4, stream=1))


def test_var1_follows_its_recursion():
    v = reference.var1(5, 30, 3, 0.3, 10)
    eps = np.random.default_rng([5, 1]).standard_normal((40, 3))
    assert np.allclose(v[1:], 0.3 * v[:-1] + eps[11:], rtol=0, atol=1e-15)


def _span(name, start, end, parent=None, thread=1):
    return Span(name, thread, start, end, parent)


def test_self_time_of_nested_spans():
    root = _span("a", 0.0, 10.0)
    child = _span("b", 1.0, 4.0, root)
    grandchild = _span("c", 2.0, 3.0, child)
    sibling = _span("b", 5.0, 9.0, root)
    spans = [root, child, grandchild, sibling]
    own = self_times(spans)
    assert own[root] == pytest.approx(3.0)
    assert own[child] == pytest.approx(2.0)
    assert own[grandchild] == pytest.approx(1.0)
    table = layer_table(spans)
    assert table["b"] == {"self_s": pytest.approx(6.0), "calls": 2}
    assert sum(own.values()) == pytest.approx(root.duration)
    assert concurrency_excess(spans, caller=1) == 0.0
    assert accounted_time(spans, caller=1) == pytest.approx(10.0)


def test_self_time_with_children_on_two_threads():
    root = _span("pool", 0.0, 10.0, thread=1)
    # thread 2 busy 1..6, thread 3 busy 2..4 and 7..9: they overlap on 2..4
    w2 = _span("job", 1.0, 6.0, root, thread=2)
    inner = _span("step", 2.0, 5.0, w2, thread=2)
    w3a = _span("job", 2.0, 4.0, root, thread=3)
    w3b = _span("job", 7.0, 9.0, root, thread=3)
    spans = [root, w2, inner, w3a, w3b]
    own = self_times(spans)
    # the union of the children covers 1..6 and 7..9
    assert own[root] == pytest.approx(3.0)
    assert own[w2] == pytest.approx(2.0)
    assert concurrency_excess(spans, caller=1) == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(12.0)
    assert accounted_time(spans, caller=1) == pytest.approx(root.duration)
    assert parallel_efficiency(
        [_span("bench.run_experiment", 0.0, 10.0, thread=1)], workers=2
    ) == 0.0


def test_parallel_efficiency_counts_busy_worker_time():
    root = _span("bench.run_experiment", 0.0, 10.0, thread=1)
    spans = [
        root,
        _span("job", 0.0, 8.0, root, thread=2),
        _span("job", 0.0, 4.0, root, thread=3),
        _span("job", 4.0, 8.0, root, thread=3),
    ]
    assert parallel_efficiency(spans, workers=2) == pytest.approx(16.0 / 20.0)


def test_pool_metrics_come_from_the_pooled_rounds():
    rounds = [{"x.self_s": 1.0}, {"x.self_s": 3.0}]
    serial_s, untraced_s = [2.0, 4.0], [2.0, 2.0]
    out = layer_metrics(rounds, serial_s, untraced_s, {}, [4.0, 4.0, 5.0], [0.5, 0.7, 0.9])
    assert out["x.self_s"] == 2.0 and out["trace.overhead"] == 1.5
    assert out["bench.pool_speedup"] == 3.0 / 4.0
    assert out["bench.parallel_efficiency"] == 0.7
    # a workload without a pool reports 0 for both
    out = layer_metrics(rounds, serial_s, untraced_s, {}, [], [])
    assert out["bench.pool_speedup"] == 0.0 and out["bench.parallel_efficiency"] == 0.0


def test_tracer_attributes_worker_spans_to_the_caller():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    leaf_t = tracer.wrap(leaf, "leaf")

    def job(_):
        leaf_t()
        time.sleep(0.005)

    job_t = tracer.wrap(job, "job")

    def pool():
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(job_t, range(4)))

    tracer.wrap(pool, "pool")()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["pool"]
    assert root.thread == tracer.caller and root.parent is None
    assert all(s.parent is root and s.thread != tracer.caller for s in by_name["job"])
    assert all(s.parent.name == "job" and s.parent.thread == s.thread for s in by_name["leaf"])
    assert accounted_time(tracer.spans, tracer.caller) == pytest.approx(root.duration, rel=1e-9)
    table = layer_table(tracer.spans)
    assert table["job"]["calls"] == 4 and table["leaf"]["calls"] == 4


def test_tracer_counts_and_patching_restores():
    tracer = Tracer()
    original = json.dumps
    entry_points = [("json", "dumps", "json.dumps"), ("json", "no_such_name", "gone")]
    counters = {"json.dumps": lambda args, kwargs, result: {"chars": len(result)}}
    with patched(entry_points, tracer.wrap, counters):
        assert json.dumps is not original
        json.dumps([1, 2])
    assert json.dumps is original
    assert [s.name for s in tracer.spans] == ["json.dumps"]
    assert tracer.counts["chars"] == 6
    assert "gone" not in layer_table(tracer.spans)


def test_memory_probe_nests_peaks():
    probe = MemoryProbe()
    size = 8 * 10**6

    def inner():
        a = np.ones(size // 8)
        return float(a[0])

    inner_p = probe.wrap(inner, "inner")

    def outer():
        inner_p()
        b = np.ones(size // 16)
        return float(b[0])

    tracemalloc.start()
    try:
        probe.wrap(outer, "outer")()
    finally:
        tracemalloc.stop()
    assert probe.peak_bytes["inner"] >= size
    assert probe.peak_bytes["outer"] >= probe.peak_bytes["inner"]
    assert probe.peak_bytes["outer"] < 2 * size


def test_benchmark_json_lists_the_metrics_the_code_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert set(spec["layers"]) - {"unmeasured"} == {
        "kernels", "core/types", "engine", "simgen", "bench"
    }
    assert sorted(sum((v for k, v in spec["layers"].items() if k != "unmeasured"), [])) == sorted(
        LAYERS
    )


def test_failure_codes_of_a_result():
    from perfbench.workloads import Tally, result_codes

    tol = {"moment_rel": 1e-6, "z_g_abs": 1e-6, "p_abs": 1e-6}
    ref = {"z": 10.0, "e_z": 4.0, "var_z": 9.0, "z_g": 2.0, "p": 0.0455, "degenerate": False}
    good = SimpleNamespace(z=10.0, e_z=4.0, var_z=9.0, z_g=2.0, p_value=0.0455)
    degenerate = SimpleNamespace(z=10.0, e_z=4.0, var_z=9.0, z_g=0.0, p_value=1.0)
    off = SimpleNamespace(z=10.0, e_z=4.0, var_z=9.1, z_g=1.99, p_value=0.0466)
    assert result_codes(good, ref, tol) == []
    assert result_codes(degenerate, ref, tol) == ["false_degenerate"]
    assert result_codes(off, ref, tol) == ["moment_mismatch"]
    assert result_codes(ValueError("x"), ref, tol) == ["exception"]
    tally = Tally()
    for result in (good, degenerate, off):
        tally.record(result_codes(result, ref, tol))
    tally.record(["dropped_reps"], weight=200, failed=3)
    assert (tally.attempted, tally.failed) == (203, 5)
    assert not tally.correct
    assert tally.codes == {"false_degenerate": 1, "moment_mismatch": 1, "dropped_reps": 1}
