"""Command-line front end.

Subcommands wrap the library one-to-one, so any CLI run is reproducible by
direct function calls with the same parameters:

    test       run the independence test on a CSV/JSONL series
    simulate   draw a series from a named simulation setting
    bench      run a size/power experiment plan (JSON) and export a report
    ingest     turn a check-in log into a daily count-matrix series
    heatmap    emit a similarity matrix as CSV and/or PGM image

Exit codes: 0 the command completed (whatever the test decision), 2 malformed
flags or specs (usage, spec-grammar, model-parameter or plan-key errors), 1 data
or I/O errors and out-of-range test settings, such as alpha, B or the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from datetime import date, timedelta, timezone
from typing import Optional

from . import io as wio
from .bench import export_report, format_report, load_plan, run_experiment
from .core import build_similarity_matrix, validate_series
from .engine import SIDES, TestConfig, run_test
from .errors import BadModelParam, BadRange, BadWeightParam, ParseError, WiseError
from .ingest import TOKYO, GridConfig, ingest_checkins, read_checkin_csv
from .kernels import parse_kernel_spec
from .simgen import ModelSpec, from_setting, generate
from .types import SERIES_KINDS
from .weights import parse_weight_spec


def _load_series(path: str, kind: str):
    """Matrix series are JSONL; every other kind is one CSV row per time point."""
    if kind == "matrix":
        return validate_series(wio.load_matrix_jsonl(path), kind)
    return validate_series(wio.load_vector_csv(path), kind)


def _parse_tz(text: str) -> timezone:
    m = re.fullmatch(r"([+-])(\d{2}):?(\d{2})", text.strip())
    if not m:
        raise ParseError(f"time zone must look like +09:00, got {text!r}")
    sign = 1 if m.group(1) == "+" else -1
    hours, minutes = int(m.group(2)), int(m.group(3))
    if hours > 23 or minutes > 59:
        raise ParseError(f"time zone offset out of range: {text!r}")
    return timezone(sign * timedelta(hours=hours, minutes=minutes))


def _parse_date(text: Optional[str], flag: str) -> Optional[date]:
    if text is None:
        return None
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise BadRange(f"{flag} must be YYYY-MM-DD, got {text!r}") from None


def cmd_test(args) -> int:
    series = _load_series(args.input, args.kind)
    kernel = parse_kernel_spec(args.similarity)
    weight = parse_weight_spec(args.weight)
    method = "permutation" if args.method == "perm" else args.method
    config = TestConfig(args.alpha, method, args.perms, args.seed, args.sidedness)
    result = run_test(series, kernel, weight, config)
    if args.json:
        print(json.dumps(result.to_json_obj(), sort_keys=True))
        return 0
    d = result.diagnostics
    print(f"Z        = {result.z:.6g}")
    print(f"E[Z]     = {result.e_z:.6g}")
    print(f"var[Z]   = {result.var_z:.6g}")
    print(f"Z_G      = {result.z_g:.6g}")
    print(f"p-value  = {result.p_value:.6g}  ({method}, {args.sidedness})")
    print(f"reject   = {'yes' if result.reject else 'no'}  (alpha = {result.alpha:g})")
    print(
        "diag     : "
        f"ratio1={d.ratio1:.4g} ratio2={d.ratio2:.4g} "
        f"ratio3={d.ratio3:.4g} alignment={d.alignment:.4g}"
    )
    for w in d.warnings:
        print(f"warning  : {w}")
    return 0


def cmd_simulate(args) -> int:
    spec = from_setting(args.model, args.n, args.p, seed=args.seed, burn_in=args.burn_in)
    try:
        series = generate(spec)
    except MemoryError:
        # ModelSpec refuses sizes numpy cannot index, not sizes this host cannot hold
        raise MemoryError(f"out of memory drawing an n = {args.n}, p = {args.p} series") from None
    if args.out:
        wio.write_csv(args.out, series.data)
    else:
        for row in series.data:
            print(",".join(repr(float(v)) for v in row))
    return 0


def cmd_bench(args) -> int:
    plan = load_plan(args.plan)
    report = run_experiment(plan, threads=args.threads)
    out = args.out or plan.output_path
    if out:
        export_report(report, args.format, out)
        print(f"wrote {len(report.cells)} cell(s) to {out}", file=sys.stderr)
    else:
        sys.stdout.write(format_report(report, args.format))
    return 0


def cmd_ingest(args) -> int:
    records = read_checkin_csv(args.input)
    grid = GridConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GridConfig)})
    tz = _parse_tz(args.tz) if args.tz else TOKYO
    result = ingest_checkins(
        records,
        grid,
        start=_parse_date(args.start, "--start"),
        end=_parse_date(args.end, "--end"),
        tz=tz,
    )
    wio.write_matrix_jsonl(args.out, result.series.data)
    print(
        f"days={len(result.days)} kept={result.kept} "
        f"dropped_outside_box={result.dropped_outside_box} "
        f"dropped_outside_range={result.dropped_outside_range}"
    )
    return 0


def cmd_heatmap(args) -> int:
    series = _load_series(args.input, args.kind)
    kernel = parse_kernel_spec(args.similarity)
    values = build_similarity_matrix(series, kernel).values
    wrote = []
    if args.csv_out:
        wio.write_csv(args.csv_out, values)
        wrote.append(args.csv_out)
    if args.pgm_out:
        wio.write_pgm(args.pgm_out, values)
        wrote.append(args.pgm_out)
    print(f"wrote {', '.join(wrote)}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wise",
        description="Weighted-similarity test for serial independence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="test a series for serial independence")
    t.add_argument("--input", required=True, help="JSONL for matrix series, else CSV")
    t.add_argument("--kind", choices=SERIES_KINDS, default="vector")
    t.add_argument("--similarity", default="neg_l1", help="kernel spec, e.g. gaussian:sigma=2")
    t.add_argument("--weight", default="default", help="weight spec, e.g. geometric:rho=0.5")
    t.add_argument("--method", choices=("analytic", "perm"), default=TestConfig.method)
    t.add_argument(
        "--perms",
        type=int,
        default=TestConfig.permutations,
        help="permutation count for --method perm",
    )
    t.add_argument("--alpha", type=float, default=TestConfig.alpha)
    t.add_argument("--seed", type=int, default=TestConfig.seed)
    t.add_argument("--sidedness", choices=SIDES, default=TestConfig.sidedness)
    t.add_argument("--json", action="store_true", help="emit the result as one JSON object")
    t.set_defaults(func=cmd_test)

    s = sub.add_parser("simulate", help="draw a series from a simulation setting")
    s.add_argument("--model", required=True, help="setting name, e.g. setting2.1")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--seed", type=int, default=ModelSpec.seed)
    s.add_argument("--burn-in", type=int, default=ModelSpec.burn_in, dest="burn_in")
    s.add_argument("--out", help="output CSV path (default: stdout)")
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bench", help="run an experiment plan")
    b.add_argument("--plan", required=True, help="JSON plan file")
    b.add_argument("--out", help="report path (default: plan's output, else stdout)")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes for the replications (default: WISE_THREADS, which "
        "caps bench processes, draw processes and kernel threads together)",
    )
    b.set_defaults(func=cmd_bench)

    g = sub.add_parser("ingest", help="grid-bin a check-in log into a matrix series")
    g.add_argument("--input", required=True, help="CSV with header timestamp,lat,lon")
    g.add_argument("--out", required=True, help="output JSONL path")
    g.add_argument("--tz", default="+09:00", help="UTC offset for day bucketing")
    g.add_argument("--start", help="first day, YYYY-MM-DD (default: first observed)")
    g.add_argument("--end", help="last day, YYYY-MM-DD (default: last observed)")
    # --lat-min, --lat-max, --lon-min, --lon-max, --rows and --cols
    for f in dataclasses.fields(GridConfig):
        g.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    g.set_defaults(func=cmd_ingest)

    h = sub.add_parser("heatmap", help="emit a similarity matrix as CSV/PGM")
    h.add_argument("--input", required=True)
    h.add_argument("--kind", choices=SERIES_KINDS, default="vector")
    h.add_argument("--similarity", default="neg_l1")
    h.add_argument("--csv-out", dest="csv_out")
    h.add_argument("--pgm-out", dest="pgm_out")
    h.set_defaults(func=cmd_heatmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "heatmap" and not (args.csv_out or args.pgm_out):
        parser.error("heatmap needs --csv-out and/or --pgm-out")
    try:
        return args.func(args)
    except (WiseError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, BadWeightParam, BadModelParam)) else 1


if __name__ == "__main__":
    sys.exit(main())
