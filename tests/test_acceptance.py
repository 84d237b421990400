"""Acceptance gate: one test per release criterion, one printed line each.

Each test prints `[criterion NN] ... PASS/FAIL (detail)` on the live
terminal (bypassing capture) so a plain `pytest -v` run double-reports the
verdicts in both formats. Tolerances are part of the contract and are not
to be loosened here; Monte-Carlo checks run on fixed seeds chosen once.
"""

import math
from datetime import datetime

import numpy as np

from oracles import enumerate_moments, enumerate_z, random_sym
from wise.bench import ExperimentPlan, report_to_csv, run_experiment, thread_count
from wise.cli import main
from wise.core import build_weight_matrix, moment_summary
from wise.engine import TestConfig, _raw_moments, rearrangement_bounds, run_test
from wise.ingest import CheckinRecord, GridConfig, ingest_checkins
from wise.io import load_matrix_jsonl
from wise.kernels import neg_l1
from wise.simgen import from_setting, generate, replicate_spec
from wise.types import ObservationSeries, SimilarityMatrix
from wise.weights import algebraic, cosine, default_weight, geometric


def emit(capsys, num: int, text: str, ok: bool, detail: str):
    with capsys.disabled():
        pad = "." * max(2, 58 - len(text))
        print(f"\n[criterion {num:02d}] {text} {pad} {'PASS' if ok else 'FAIL'} ({detail})")


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def cell_rate(setting: str, n: int, p: int, R: int, seed: int, **overrides):
    plan = ExperimentPlan(
        model=from_setting(setting, n, p, **overrides),
        n_values=(n,),
        p_values=(p,),
        replications=R,
        master_seed=seed,
    )
    cell = run_experiment(plan).cells[0]
    return cell.rate, cell.mc_se


def test_c01_closed_form_moments_match_enumeration(capsys):
    specs = (default_weight(), geometric(0.5), cosine(3.0))
    worst = 0.0
    for n in (4, 5, 6, 7):
        rng = np.random.default_rng(1000 + n)
        weights = [build_weight_matrix(n, spec) for spec in specs]
        for _ in range(200):
            S = random_sym(rng, n)
            for W in weights:
                ez_e, var_e = enumerate_moments(S, W)
                (ez_c,), ((var_c,),) = _raw_moments(moment_summary(S), W.profile[None])[:2]
                worst = max(worst, rel_err(ez_c, ez_e), rel_err(var_c, var_e))
    ok = worst <= 1e-10
    emit(capsys, 1, "closed-form moments match exhaustive enumeration", ok,
         f"max rel err {worst:.2e}")
    assert ok, f"worst relative error {worst}"


def test_c02_hand_verified_moment_anchor(capsys):
    s = np.zeros((4, 4))
    s[0, 1] = s[1, 0] = 1.0
    M = moment_summary(SimilarityMatrix.from_square(s))
    (ez,), ((var,),) = _raw_moments(M, build_weight_matrix(4, default_weight()).profile[None])[:2]
    ok = ez == -4.0 / 3.0 and abs(var - 0.1155556) <= 1e-6
    emit(capsys, 2, "hand-verified moment anchor (n=4 single pair)", ok,
         f"EZ={ez!r}, varZ={var!r}")
    assert ok, (ez, var)


def test_c03_empirical_size_holds_the_level(capsys):
    r11, _ = cell_rate("setting1.1", 50, 200, 350, 0)
    r13, _ = cell_rate("setting1.3", 50, 200, 350, 0)
    ok = abs(r11 - 0.05) <= 0.03 and abs(r13 - 0.05) <= 0.03
    emit(capsys, 3, "empirical size lands on the nominal level", ok,
         f"setting1.1 {r11:.4f}, setting1.3 {r13:.4f}, band 0.05+-0.03")
    assert ok, (r11, r13)


def test_c04_null_normality_of_standardized_statistic(capsys):
    reps = 2000
    base = from_setting("setting1.1", 100, 50)
    zs = np.empty(reps)
    ps = np.empty(reps)
    for i in range(reps):
        series = generate(replicate_spec(base, seed=910_000 + i))
        res = run_test(series, neg_l1(), default_weight())
        zs[i] = res.z_g
        ps[i] = res.p_value
    mean = float(zs.mean())
    var = float(zs.var(ddof=1))
    sizes = {}
    size_ok = True
    for alpha in (0.01, 0.05, 0.10):
        se = math.sqrt(alpha * (1.0 - alpha) / reps)
        sizes[alpha] = float(np.mean(ps < alpha))
        size_ok &= abs(sizes[alpha] - alpha) <= 2.0 * se
    ok = abs(mean) <= 0.07 and 0.90 <= var <= 1.10 and size_ok
    emit(capsys, 4, "null Z_G is standard normal (mean/var/sizes)", ok,
         f"mean {mean:+.4f}, var {var:.4f}, sizes "
         + ", ".join(f"{a}:{sizes[a]:.4f}" for a in sizes))
    assert ok, (mean, var, sizes)


def test_c05_power_against_uncorrelated_dependence(capsys):
    null_rate, _ = cell_rate("setting1.1", 100, 200, 200, 1)
    nma_rate, _ = cell_rate("setting5", 100, 200, 200, 1)
    garch_rate, _ = cell_rate("setting4", 100, 200, 200, 1)
    ok = (
        nma_rate >= 0.3
        and nma_rate - null_rate >= 0.2
        and garch_rate >= 0.3
        and garch_rate - null_rate >= 0.2
    )
    emit(capsys, 5, "power against NMA(2) and GARCH alternatives", ok,
         f"nma {nma_rate:.3f}, garch {garch_rate:.3f}, null {null_rate:.3f}")
    assert ok, (nma_rate, garch_rate, null_rate)


def test_c06_power_against_correlated_dependence_and_monotonicity(capsys):
    null_rate, _ = cell_rate("setting1.1", 100, 200, 200, 1)
    banded_rate, _ = cell_rate("setting2.2", 100, 200, 200, 1)
    rates = []
    for c in (0.0, 0.015, 0.2):
        rates.append(cell_rate("setting2.1", 100, 200, 200, 2, coef_scale=c))
    monotone = all(
        rates[i + 1][0] >= rates[i][0] - 2.0 * math.hypot(rates[i][1], rates[i + 1][1])
        for i in range(len(rates) - 1)
    )
    ok = banded_rate - null_rate >= 0.2 and monotone
    emit(capsys, 6, "power against banded VAR; monotone in signal", ok,
         f"banded {banded_rate:.3f} vs null {null_rate:.3f}; "
         f"ramp {' -> '.join(f'{r:.3f}' for r, _ in rates)}")
    assert ok, (banded_rate, null_rate, rates)


def test_c07_analytic_and_permutation_p_values_agree(capsys):
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(77_000 + i)
        series = ObservationSeries("vector", rng.standard_normal((100, 50)))
        p_analytic = run_test(series, neg_l1(), default_weight()).p_value
        p_perm = run_test(
            series,
            neg_l1(),
            default_weight(),
            TestConfig(method="permutation", permutations=10_000, seed=i),
        ).p_value
        worst = max(worst, abs(p_analytic - p_perm))
    ok = worst <= 0.02
    emit(capsys, 7, "analytic p tracks permutation p (B=10000)", ok,
         f"max |diff| {worst:.4f} over 20 datasets")
    assert ok, worst


def test_c08_rearrangement_bounds_hold_exhaustively(capsys):
    rng = np.random.default_rng(8)
    checked = 0
    margin = float("inf")
    for i in range(1000):
        n = (4, 5, 6)[i % 3]
        S = random_sym(rng, n)
        fam = int(rng.integers(4))
        if fam == 0:
            spec = default_weight()
        elif fam == 1:
            spec = geometric(float(rng.uniform(0.2, 0.9)))
        elif fam == 2:
            spec = cosine(float(rng.uniform(2.0, 9.0)))
        else:
            spec = algebraic(float(rng.uniform(1.1, 3.0)))
        W = build_weight_matrix(n, spec)
        lo, hi = rearrangement_bounds(S, W)
        zs = enumerate_z(S, W)
        checked += zs.size
        margin = min(margin, float(zs.min() - lo), float(hi - zs.max()))
        if margin < -1e-9:
            break
    ok = margin >= -1e-9  # exact bound up to accumulated rounding
    emit(capsys, 8, "every permuted Z sits inside the sorting bounds", ok,
         f"{checked} permuted values, worst margin {margin:.2e}")
    assert ok, margin


def test_c09_degenerate_models_match_their_iid_limit(capsys):
    r_iid, se_iid = cell_rate("setting1.1", 50, 100, 400, 1)
    r_var, se_var = cell_rate("setting2.1", 50, 100, 400, 1, coef_scale=0.0)
    r_garch, se_garch = cell_rate(
        "setting4", 50, 100, 400, 1, garch_a_high=0.0, garch_b_high=0.0
    )
    d_var, t_var = abs(r_var - r_iid), 2.0 * math.hypot(se_iid, se_var)
    d_garch, t_garch = abs(r_garch - r_iid), 2.0 * math.hypot(se_iid, se_garch)
    ok = d_var <= t_var and d_garch <= t_garch
    emit(capsys, 9, "zero-coefficient models reproduce the i.i.d. size", ok,
         f"iid {r_iid:.4f}, var1(0) {r_var:.4f}, garch(0,0) {r_garch:.4f}")
    assert ok, (r_iid, r_var, r_garch, t_var, t_garch)


def test_c10_ingestion_mass_conservation_and_binning(capsys, tmp_path):
    rng = np.random.default_rng(10)
    lines = ["timestamp,lat,lon"]
    for i in range(1000):
        day = 1 + (i % 5)
        lines.append(
            f"2012-04-{day:02d}T{i % 24:02d}:00:00,"
            f"{rng.uniform(35.5, 35.9)},{rng.uniform(139.0, 140.0)}"
        )
    for i in range(37):
        lines.append(f"2012-04-03T12:00:00,{36.2 + i * 0.01},139.5")
    src = tmp_path / "checkins.csv"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "days.jsonl"

    code = main(["ingest", "--input", str(src), "--out", str(out)])
    summary = capsys.readouterr().out.strip()
    data = load_matrix_jsonl(str(out))

    record = CheckinRecord(datetime(2012, 4, 3, 12, 0, 0), 35.7, 139.5)
    single = ingest_checkins([record], GridConfig())
    one_cell = (
        single.series.data.shape == (1, 20, 20)
        and single.series.data[0, 10, 10] == 1.0
        and single.series.data.sum() == 1.0
    )

    ok = (
        code == 0
        and float(data.sum()) == 1000.0
        and "kept=1000" in summary
        and "dropped_outside_box=37" in summary
        and one_cell
    )
    emit(capsys, 10, "ingestion conserves mass and bins (35.7, 139.5) to (10, 10)", ok,
         f"grid sum {data.sum():.0f}, {summary}")
    assert ok, summary


def test_c11_bench_reports_are_thread_count_invariant(capsys):
    plan = ExperimentPlan(
        model=from_setting("setting2.1", 24, 8),
        n_values=(24, 32),
        p_values=(8,),
        replications=100,
        method="permutation",
        permutations=150,
        master_seed=3,
    )

    def strip_seconds(text: str):
        rows = [line.split(",") for line in text.strip().splitlines()]
        return [row[:7] + row[8:] for row in rows]

    serial = strip_seconds(report_to_csv(run_experiment(plan, threads=1)))
    threaded = strip_seconds(report_to_csv(run_experiment(plan, threads=max(2, thread_count()))))
    ok = serial == threaded
    emit(capsys, 11, "bench CSV identical at 1 thread and at max threads", ok,
         f"{len(serial) - 1} data rows compared, seconds column excluded")
    assert ok
