"""Benchmark entry point for the ``wise`` package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; ``wise`` is imported from ``src/`` there and
nowhere else. One process runs one workload: set-up (import, inputs, one
warm-up call) ``setup_repeats`` times, then closed-loop rounds for
``--seconds``, then the correctness checks. With ``--trace 1`` untraced and
traced rounds alternate, together with traced rounds on the library's default
thread count for a workload that has a thread pool, and one more round runs
under tracemalloc for the per-call allocation peaks. The next-to-last line of standard output is a
report with provenance and failure codes; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def timed_rounds(wl, seconds):
    """Closed-loop rounds until ``seconds`` have passed; at least one."""
    times, outputs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outputs.append(wl.round())
        times.append(time.perf_counter() - t0)
    return times, outputs


def plain_run(wl, seconds, import_s, repeats):
    setups = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl.build()
        wl.warm_up()
        setups.append(time.perf_counter() - t0)
    times, outputs = timed_rounds(wl, seconds)
    # read before the checks, whose dense reference arrays must not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally = wl.check(outputs)
    metrics = {
        # the mean, not the median: host speed shifts for seconds at a time, so
        # round times fall in two clusters and a median jumps between them
        "round_s_mean": statistics.fmean(times),
        "work_per_s": wl.work_per_round * len(times) / sum(times),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": import_s + statistics.median(setups),
    }
    extra = {
        "rounds": len(times),
        "round_s": times,
        "round_s_p50": statistics.median(times),
        "setup_repeat_s": setups,
    }
    return metrics, tally, extra


def traced_run(wl, seconds, workers, tol):
    import tracemalloc

    from perfbench.metrics import (
        COUNTERS,
        ENTRY_POINTS,
        layer_metrics,
        parallel_efficiency,
        round_layer_metrics,
    )
    from perfbench.spans import MemoryProbe, Tracer, accounted_time, patched

    wl.build()
    wl.warm_up()
    untraced_s, traced_s, per_round, outputs = [], [], [], []
    pooled_s, efficiency, pooled_accounting = [], [], []

    def untraced():
        t0 = time.perf_counter()
        outputs.append(wl.round())
        untraced_s.append(time.perf_counter() - t0)

    def traced(threads=None):
        tracer = Tracer()
        with patched(ENTRY_POINTS, tracer.wrap, COUNTERS):
            t0 = time.perf_counter()
            outputs.append(wl.round(threads=threads))
            elapsed = time.perf_counter() - t0
        return tracer, elapsed

    def traced_serial():
        tracer, elapsed = traced()
        traced_s.append(elapsed)
        per_round.append(round_layer_metrics(tracer, elapsed))

    def traced_pooled():
        # the same round on the library's default thread count
        tracer, elapsed = traced(threads=workers)
        pooled_s.append(elapsed)
        efficiency.append(parallel_efficiency(tracer.spans, workers))
        pooled_accounting.append(accounted_time(tracer.spans, tracer.caller) / elapsed)

    steps = [untraced, traced_serial] + ([traced_pooled] if wl.has_pool else [])
    # rotate which goes first, so none always follows the same other
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        k = len(traced_s) % len(steps)
        for step in steps[k:] + steps[:k]:
            step()

    # tracemalloc keeps one process-wide peak, so this pass runs on one thread
    probe = MemoryProbe()
    tracemalloc.start()
    try:
        with patched(ENTRY_POINTS, probe.wrap):
            outputs.append(wl.round(threads=1))
    finally:
        tracemalloc.stop()

    tally = wl.check(outputs)
    metrics = layer_metrics(
        per_round, traced_s, untraced_s, probe.peak_bytes, pooled_s, efficiency
    )
    accounting = [r["trace.accounted_share"] for r in per_round] + pooled_accounting
    extra = {
        "rounds": len(traced_s),
        "traced_round_s": traced_s,
        "untraced_round_s": untraced_s,
        "pooled_round_s": pooled_s,
        "accounted_share": accounting,
        "accounting_ok": all(abs(a - 1.0) <= tol["trace_accounting"] for a in accounting),
    }
    return metrics, tally, extra


def _l3_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
                return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wise, workers):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "wise": getattr(wise, "__version__", None),
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "WISE_THREADS": os.environ.get("WISE_THREADS"),
        "bench_thread_count": workers,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "wise" / "__init__.py").is_file():
        print(f"perfbench: no wise package under {src}", file=sys.stderr)
        return 2
    # the script's own directory would let its module names shadow others
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(src), str(ROOT)] + [p for p in sys.path if p != here]

    t0 = time.perf_counter()
    import wise

    import_s = time.perf_counter() - t0
    if Path(wise.__file__).resolve().parent != (src / "wise").resolve():
        print(f"perfbench: imported wise from {wise.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.metrics import END_TO_END, per_layer_units
    from perfbench.workloads import WORKLOADS

    params, tol = SPEC["workloads"][args.workload], SPEC["tolerances"]
    wl = WORKLOADS[args.workload](args.seed, params, tol)
    n_workers = wise.bench.thread_count()
    if args.trace:
        values, tally, extra = traced_run(wl, args.seconds, n_workers, tol)
        units = per_layer_units()
    else:
        values, tally, extra = plain_run(wl, args.seconds, import_s, SPEC["setup_repeats"])
        units = END_TO_END
        extra["import_s"] = import_s
        extra[f"{params['work_unit']}_per_s"] = values["work_per_s"]
    extra["error_rate"] = tally.failed / tally.attempted
    extra["failure_codes"] = dict(tally.codes)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # worker threads of the timed bench rounds; None where no pool runs
        "timed_threads": params.get("threads"),
        **extra,
        "provenance": provenance(wise, n_workers),
    }
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
