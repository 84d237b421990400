"""Benchmark for the ``wise`` package: three workloads, timed from outside.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/spec.json`` holds the
workload parameters, tolerances and the layer-to-metric map.
"""
