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
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple, get_type_hints

from .engine import TestConfig, run_test
from .errors import ExperimentError, InvalidValue, ParseError, WiseError
from .kernels import KernelSpec, kernel_spec_from_json_obj, parse_kernel_spec
from .simgen import ModelSpec, generate, model_spec_from_json_obj, replicate_spec
from .weights import WeightSpec, parse_weight_spec, weight_spec_from_json_obj

def thread_count() -> int:
    """Worker count: WISE_THREADS if set, else min(4, cpu count)."""
    env = os.environ.get("WISE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidValue(f"WISE_THREADS must be an integer, got {env!r}") from None
    return max(1, min(4, os.cpu_count() or 1))


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
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "p_values", tuple(int(v) for v in self.p_values))
        if not self.n_values or not self.p_values:
            raise InvalidValue("plan grid must contain at least one n and one p")
        if self.replications < 100:
            raise InvalidValue(
                f"reported rates need at least 100 replications, got {self.replications}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise InvalidValue(f"alpha must lie in (0,1), got {self.alpha}")
        if self.method not in ("analytic", "permutation"):
            raise InvalidValue(f"method must be analytic or permutation, got {self.method!r}")

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
    config = TestConfig(
        alpha=plan.alpha,
        method=plan.method,
        permutations=plan.permutations,
        seed=test_seed,
    )
    return run_test(series, plan.kernel, plan.weight, config).reject


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


def _spec_from(value, parse_text, parse_obj, what: str):
    if isinstance(value, str):
        return parse_text(value)
    if isinstance(value, dict):
        return parse_obj(value)
    raise ParseError(f"{what} must be a string or JSON object")


def plan_from_json_obj(obj: dict) -> ExperimentPlan:
    """Plan files: {"model": {...}, "grid": {"n": [...], "p": [...]},
    "replications": R, "alpha": A, "kernel": ..., "weight": ...,
    "method": ..., "permutations": B, "master_seed": S, "output": PATH}."""
    if not isinstance(obj, dict):
        raise ParseError("plan JSON must be an object")
    for field in ("model", "grid", "replications"):
        if field not in obj:
            raise ParseError(f"plan JSON is missing the {field!r} field")
    grid = obj["grid"]
    if not isinstance(grid, dict) or "n" not in grid or "p" not in grid:
        raise ParseError("plan grid must be an object with 'n' and 'p' lists")
    model = model_spec_from_json_obj(obj["model"])
    kernel = _spec_from(
        obj.get("kernel", "neg_l1"), parse_kernel_spec, kernel_spec_from_json_obj, "kernel"
    )
    weight = _spec_from(
        obj.get("weight", "default"), parse_weight_spec, weight_spec_from_json_obj, "weight"
    )
    return ExperimentPlan(
        model=model,
        n_values=tuple(grid["n"]),
        p_values=tuple(grid["p"]),
        replications=int(obj["replications"]),
        alpha=float(obj.get("alpha", 0.05)),
        kernel=kernel,
        weight=weight,
        method=obj.get("method", "analytic"),
        permutations=int(obj.get("permutations", 1000)),
        master_seed=int(obj.get("master_seed", 0)),
        output_path=obj.get("output"),
    )


def load_plan(path: str) -> ExperimentPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ExperimentError(f"cannot read plan {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"plan {path} is not valid JSON: {exc}") from None
    return plan_from_json_obj(obj)
