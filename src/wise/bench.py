"""Monte-Carlo size/power harness with persisted, reproducible reports.

A plan fixes a model template, an (n, p) grid, a replication count and the
test configuration. Each replication generates a fresh series and runs the
test once; the cell's rejection rate estimates size (null model) or power
(alternative). Per-replication seeds are derived by hashing
(master_seed, setting, n, p, replication index), so every cell is
reproducible in isolation and results do not depend on thread count or
scheduling. Wall-clock seconds are recorded but excluded from the
determinism contract.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple, get_type_hints

from ._grammar import Param, read_fields, real, string
from .engine import TestConfig, _check_count, run_test
from .errors import ExperimentError, InvalidValue, ParseError, WiseError
from .kernels import KernelSpec, read_kernel_spec, thread_count
from .simgen import ModelSpec, generate, model_spec_from_json_obj, replicate_spec
from .weights import WeightSpec, read_weight_spec


@dataclass(frozen=True)
class ExperimentPlan:
    model: ModelSpec
    n_values: Tuple[int, ...]
    p_values: Tuple[int, ...]
    replications: int
    alpha: float = 0.05
    kernel: KernelSpec = KernelSpec("neg_l1")
    weight: WeightSpec = WeightSpec("default_cauchy")
    method: str = "analytic"
    permutations: int = 1000
    master_seed: int = 0
    output_path: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(_check_count(v, "n") for v in self.n_values))
        object.__setattr__(self, "p_values", tuple(_check_count(v, "p") for v in self.p_values))
        if not self.n_values or not self.p_values:
            raise InvalidValue("plan grid must contain at least one n and one p")
        if _check_count(self.replications, "replications") < 100:
            raise InvalidValue(
                f"reported rates need at least 100 replications, got {self.replications}"
            )
        _check_count(self.master_seed, "master_seed")
        # alpha, method and B are checked here once, as every replication uses them
        self.test_config(0)

    def test_config(self, seed: int) -> TestConfig:
        return TestConfig(self.alpha, self.method, self.permutations, seed)

    @property
    def setting(self) -> str:
        return self.model.label or self.model.family


@dataclass(frozen=True)
class CellResult:
    setting: str
    n: int
    p: int
    replications: int
    alpha: float
    rate: float
    mc_se: float
    seconds: float
    seed: int

    def to_json_obj(self) -> dict:
        return asdict(self)


# the report's CSV columns and JSON cell keys, in this order
CSV_COLUMNS = tuple(f.name for f in fields(CellResult))


@dataclass(frozen=True)
class ExperimentReport:
    cells: Tuple[CellResult, ...]
    provenance: dict

    def to_json_obj(self) -> dict:
        return {
            "provenance": self.provenance,
            "cells": [cell.to_json_obj() for cell in self.cells],
        }


def _rep_seeds(master_seed: int, setting: str, n: int, p: int, rep: int) -> Tuple[int, int]:
    """Stable (model_seed, test_seed) pair for one replication.

    Uses a keyed hash rather than Python's hash(), which is salted per
    process and would break reproducibility.
    """
    key = f"{master_seed}|{setting}|{n}|{p}|{rep}".encode()
    digest = hashlib.blake2b(key, digest_size=16).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    )


def _one_replication(plan: ExperimentPlan, n: int, p: int, rep: int):
    model_seed, test_seed = _rep_seeds(plan.master_seed, plan.setting, n, p, rep)
    spec = replicate_spec(plan.model, model_seed, n=n, p=p)
    series = generate(spec)
    return run_test(series, plan.kernel, plan.weight, plan.test_config(test_seed)).reject


def run_experiment(plan: ExperimentPlan, threads: Optional[int] = None) -> ExperimentReport:
    """Run every (n, p) cell of the plan; deterministic for a fixed seed.

    A cell aborts with ExperimentError when more than 1% of its
    replications raise; rarer failures are dropped from the denominator.
    """
    workers = threads if threads is not None else thread_count()
    cells = []
    for n in plan.n_values:
        for p in plan.p_values:
            start = time.perf_counter()
            outcomes = []
            errors = []

            def job(rep, n=n, p=p):
                try:
                    return _one_replication(plan, n, p, rep)
                except WiseError as exc:
                    return exc

            if workers == 1:
                results = [job(rep) for rep in range(plan.replications)]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(job, range(plan.replications)))
            for res in results:
                (errors if isinstance(res, WiseError) else outcomes).append(res)
            if len(errors) > 0.01 * plan.replications:
                raise ExperimentError(
                    f"cell (setting={plan.setting}, n={n}, p={p}): "
                    f"{len(errors)} of {plan.replications} replications failed; "
                    f"first error: {errors[0]}"
                )
            count = len(outcomes)
            rate = sum(outcomes) / count
            mc_se = (rate * (1.0 - rate) / count) ** 0.5
            cells.append(
                CellResult(
                    setting=plan.setting,
                    n=n,
                    p=p,
                    replications=count,
                    alpha=plan.alpha,
                    rate=rate,
                    mc_se=mc_se,
                    seconds=time.perf_counter() - start,
                    seed=plan.master_seed,
                )
            )
    # a plan file that reruns the plan; an analytic plan writes B as null
    provenance = {
        "model": plan.model.to_json_obj(),
        "grid": {"n": list(plan.n_values), "p": list(plan.p_values)},
        "replications": plan.replications,
        "alpha": plan.alpha,
        "kernel": plan.kernel.to_string(),
        "weight": plan.weight.to_string(),
        "method": plan.method,
        "permutations": plan.permutations if plan.method == "permutation" else None,
        "master_seed": plan.master_seed,
    }
    return ExperimentReport(cells=tuple(cells), provenance=provenance)


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for cell in report.cells:
        writer.writerow({**cell.to_json_obj(), "seconds": f"{cell.seconds:.3f}"})
    return buf.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n"


def report_from_json_obj(obj: dict) -> ExperimentReport:
    types = get_type_hints(CellResult)
    cells = tuple(CellResult(**{k: types[k](c[k]) for k in CSV_COLUMNS}) for c in obj["cells"])
    return ExperimentReport(cells=cells, provenance=obj.get("provenance", {}))


def format_report(report: ExperimentReport, fmt: str) -> str:
    """The report as 'csv' or 'json' text."""
    if fmt == "csv":
        return report_to_csv(report)
    if fmt == "json":
        return report_to_json(report)
    raise InvalidValue(f"format must be csv or json, got {fmt!r}")


def export_report(report: ExperimentReport, fmt: str, path: str) -> str:
    """Write the report as 'csv' or 'json'; returns the path written."""
    payload = format_report(report, fmt)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ExperimentError(f"cannot write report to {path}: {exc}") from exc
    return path


def _read_grid(raw) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    axes = read_fields(raw, (Param("n", read=tuple), Param("p", read=tuple)), "plan grid")
    return tuple(map(operator.index, axes["n"])), tuple(map(operator.index, axes["p"]))


def _read_permutations(raw) -> int:
    """B, where the null of an analytic plan's provenance reads as the default."""
    return ExperimentPlan.permutations if raw is None else operator.index(raw)


# plan file key -> its reader; a key without a default is required
_PLAN = (
    Param("model", read=model_spec_from_json_obj),
    Param("grid", read=_read_grid),
    Param("replications", read=operator.index),
    Param("alpha", read=real, required=False),
    Param("kernel", read=read_kernel_spec, required=False),
    Param("weight", read=read_weight_spec, required=False),
    Param("method", read=string, required=False),
    Param("permutations", read=_read_permutations, required=False),
    Param("master_seed", read=operator.index, required=False),
    Param("output", read=string, required=False),
)


def plan_from_json_obj(obj) -> ExperimentPlan:
    """A plan file's object, keyed as _PLAN. An unknown, repeated or missing
    key or a value of the wrong type is a ParseError."""
    values = read_fields(obj, _PLAN, "plan")
    n_values, p_values = values.pop("grid")
    output_path = values.pop("output", None)
    return ExperimentPlan(n_values=n_values, p_values=p_values, output_path=output_path, **values)


def load_plan(path: str) -> ExperimentPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ExperimentError(f"cannot read plan {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"plan {path} is not valid JSON: {exc}") from None
    return plan_from_json_obj(obj)
