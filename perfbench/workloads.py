"""The three workloads: inputs, the call cycle of one round, and the checks.

Every call into ``wise`` looks its function up on the module at call time,
so the wrappers that the traced run puts on those names see it. A round
returns its outputs; checks run on them after the timed region.
"""

from __future__ import annotations

import math
import sys
import traceback
from collections import Counter

import wise
import wise.bench as bench
import wise.engine as engine
from wise import kernels, simgen, weights

from . import reference

# codes that mean an output was wrong, as opposed to an operation failing
WRONG_OUTPUT = ("moment_mismatch", "nondeterministic", "invalid_output")


class Tally:
    """Attempted and failed operations, with a count of each failure code."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.codes = Counter()

    def record(self, codes, weight: int = 1, failed: int | None = None):
        self.attempted += weight
        if codes:
            self.failed += weight if failed is None else failed
        self.codes.update(codes)

    @property
    def correct(self) -> bool:
        return not any(self.codes[code] for code in WRONG_OUTPUT)


def attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the exception it raised; the benchmark counts
    failures instead of stopping at the first one."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return exc


def _close(value, ref, rel):
    return abs(value - ref) <= rel * abs(ref)


def result_codes(result, ref, tol, check_p=True) -> list:
    """Failure codes of one run_test result against the dense reference."""
    if isinstance(result, Exception):
        return ["exception"]
    codes = []
    false_degenerate = not ref["degenerate"] and result.z_g == 0.0 and result.p_value == 1.0
    if false_degenerate:
        codes.append("false_degenerate")
    moments = all(
        _close(getattr(result, key), ref[key], tol["moment_rel"])
        for key in ("z", "e_z", "var_z")
    )
    if not moments:
        codes.append("moment_mismatch")
    elif not false_degenerate and not ref["degenerate"]:
        z_g_ok = abs(result.z_g - ref["z_g"]) <= tol["z_g_abs"]
        p_ok = not check_p or abs(result.p_value - ref["p"]) <= tol["p_abs"]
        if not (z_g_ok and p_ok):
            codes.append("moment_mismatch")
    return codes


def _fields(result):
    if isinstance(result, Exception):
        return None
    if isinstance(result, tuple):
        return result
    return (result.z, result.e_z, result.var_z, result.z_g, result.p_value)


class AnalyticLarge:
    name = "analytic_large"
    has_pool = False

    def __init__(self, seed: int, params: dict, tol: dict):
        self.seed, self.params, self.tol = seed, params, tol
        self.work_per_round = 2

    def build(self):
        prm = self.params
        n, p = prm["n"], prm["p"]
        self.inputs = (
            reference.iid_normal(self.seed, n, p),
            reference.var1(self.seed, n, p, prm["var_coef"], prm["burn_in"]),
        )
        self.series = [wise.validate_series(x, "vector") for x in self.inputs]
        self.kernel = kernels.neg_l1()
        self.weight = weights.default_weight()

    def warm_up(self):
        attempt(engine.run_test, self.series[0], self.kernel, self.weight)

    def round(self, threads=None):
        return [attempt(engine.run_test, s, self.kernel, self.weight) for s in self.series]

    def check(self, rounds) -> Tally:
        tally = Tally()
        for x, results in zip(self.inputs, zip(*rounds)):
            ref = reference.centered_moments(
                reference.neg_l1_similarity(x),
                reference.default_weight_matrix(len(x)),
                self.tol["degenerate_rms_rel"],
            )
            for result in results:
                tally.record(result_codes(result, ref, self.tol))
        return tally


class Permutation:
    name = "permutation"
    has_pool = False

    def __init__(self, seed: int, params: dict, tol: dict):
        self.seed, self.params, self.tol = seed, params, tol
        self.work_per_round = params["B_run_test"] + params["B_aggregate"]

    def build(self):
        prm = self.params
        self.x = reference.iid_normal(self.seed, prm["n"], prm["p"])
        self.series = wise.validate_series(self.x, "vector")
        self.kernel = kernels.neg_l1()
        self.weight = weights.default_weight()
        self.specs = [weights.parse_weight_spec(text) for text in prm["aggregate_weights"]]
        self.config = engine.TestConfig(
            method="permutation", permutations=prm["B_run_test"], seed=self.seed
        )

    def warm_up(self):
        attempt(engine.run_test, self.series, self.kernel, self.weight, self.config)

    def round(self, threads=None):
        return [
            attempt(engine.run_test, self.series, self.kernel, self.weight, self.config),
            attempt(
                engine.mahalanobis_aggregate,
                self.series,
                self.kernel,
                self.specs,
                B=self.params["B_aggregate"],
                seed=self.seed,
            ),
        ]

    def check(self, rounds) -> Tally:
        n, draws = self.params["n"], self.params["B_run_test"]
        ref = reference.centered_moments(
            reference.neg_l1_similarity(self.x),
            reference.default_weight_matrix(n),
            self.tol["degenerate_rms_rel"],
        )
        first = [_fields(r) for r in rounds[0]]
        tally = Tally()
        for test, aggregate in rounds:
            codes = result_codes(test, ref, self.tol, check_p=False)
            if not isinstance(test, Exception):
                count = test.p_value * (draws + 1) - 1
                on_grid = abs(count - round(count)) <= self.tol["p_grid_abs"]
                if not (on_grid and 0 <= round(count) <= draws):
                    codes.append("invalid_output")
                if first[0] is not None and _fields(test) != first[0]:
                    codes.append("nondeterministic")
            tally.record(codes)

            if isinstance(aggregate, Exception):
                tally.record(["exception"])
                continue
            codes = []
            if not all(math.isfinite(v) for v in aggregate):
                codes.append("invalid_output")
            if first[1] is not None and aggregate != first[1]:
                codes.append("nondeterministic")
            tally.record(codes)
        return tally


class MonteCarlo:
    """Timed rounds run the bench on ``params["threads"]`` workers. More than
    one makes the round time follow how the host schedules the GIL holder
    rather than the program, so the thread pool is measured by the traced
    run alone (``has_pool``)."""

    name = "montecarlo"
    has_pool = True

    def __init__(self, seed: int, params: dict, tol: dict):
        self.seed, self.params, self.tol = seed, params, tol
        self.work_per_round = params["replications"] * len(params["settings"])

    def build(self):
        prm = self.params
        self.plans = [
            bench.ExperimentPlan(
                model=simgen.from_setting(setting, prm["n"], prm["p"]),
                n_values=(prm["n"],),
                p_values=(prm["p"],),
                replications=prm["replications"],
                master_seed=self.seed,
            )
            for setting in prm["settings"]
        ]

    def warm_up(self):
        attempt(bench.run_experiment, self.plans[0], threads=self.params["threads"])

    def round(self, threads=None):
        threads = self.params["threads"] if threads is None else threads
        return [attempt(bench.run_experiment, plan, threads=threads) for plan in self.plans]

    def check(self, rounds) -> Tally:
        reps = self.params["replications"]

        def cell(report):
            if isinstance(report, Exception):
                return None
            c = report.cells[0]
            return (c.replications, c.rate)

        first = [cell(r) for r in rounds[0]]
        tally = Tally()
        for reports in rounds:
            for report, expected in zip(reports, first):
                got = cell(report)
                if got is None:
                    tally.record(["exception"], weight=reps)
                    continue
                if expected is not None and got != expected:
                    tally.record(["nondeterministic"], weight=reps)
                elif got[0] < reps:
                    tally.record(["dropped_reps"], weight=reps, failed=reps - got[0])
                else:
                    tally.record([], weight=reps)
        return tally


WORKLOADS = {cls.name: cls for cls in (AnalyticLarge, Permutation, MonteCarlo)}
