import json
import math
from pathlib import Path

import numpy as np
import pytest

from wise.cli import build_parser, main
from wise.engine import TestConfig
from wise.ingest import GridConfig
from wise.io import load_matrix_jsonl, load_vector_csv, write_csv
from wise.simgen import ModelSpec, from_setting, generate


@pytest.fixture
def series_csv(tmp_path):
    path = str(tmp_path / "series.csv")
    write_csv(path, np.random.default_rng(0).standard_normal((40, 5)))
    return path


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps(
            {
                "model": {"setting": "setting1.1"},
                "grid": {"n": [16], "p": [2]},
                "replications": 100,
                "master_seed": 5,
            }
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def checkin_csv(tmp_path):
    path = tmp_path / "checkins.csv"
    path.write_text(
        "timestamp,lat,lon\n"
        "2012-04-03T10:00:00,35.7,139.5\n"
        "2012-04-04T11:00:00,35.6,139.2\n"
        "2012-04-04T11:30:00,36.5,139.2\n",
        encoding="utf-8",
    )
    return str(path)


class TestTestCommand:
    def test_json_output_is_deterministic(self, series_csv, capsys):
        argv = ["test", "--input", series_csv, "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        obj = json.loads(first)
        assert set(obj) == {
            "z", "e_z", "var_z", "z_g", "p_value", "reject", "alpha", "method", "diagnostics",
        }
        assert obj["method"] == "analytic"
        assert first == json.dumps(obj, sort_keys=True) + "\n"

    def test_text_output_mentions_the_decision(self, series_csv, capsys):
        assert main(["test", "--input", series_csv]) == 0
        out = capsys.readouterr().out
        assert "Z_G" in out
        assert "p-value" in out
        assert "reject" in out

    def test_test_flags_default_to_test_config(self):
        args = build_parser().parse_args(["test", "--input", "series.csv"])
        config = TestConfig()
        got = (args.alpha, args.method, args.perms, args.seed, args.sidedness)
        assert got == (
            config.alpha,
            config.method,
            config.permutations,
            config.seed,
            config.sidedness,
        )

    def test_permutation_method_spelled_perm(self, series_csv, capsys):
        argv = [
            "test", "--input", series_csv, "--method", "perm", "--perms", "200", "--seed", "3",
            "--json",
        ]
        assert main(argv) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["method"] == "permutation"
        assert 0.0 < obj["p_value"] <= 1.0

    def test_constant_series_reports_degenerate_null(self, tmp_path, capsys):
        path = str(tmp_path / "flat.csv")
        write_csv(path, np.ones((6, 2)))
        assert main(["test", "--input", path, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["p_value"] == 1.0
        assert obj["reject"] is False
        assert obj["diagnostics"]["ratio1"] is None
        assert obj["diagnostics"]["warnings"]

    def test_bad_weight_grammar_is_usage_error(self, series_csv, capsys):
        code = main(["test", "--input", series_csv, "--weight", "geometric:rho=1.5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_kernel_family_is_usage_error(self, series_csv):
        assert main(["test", "--input", series_csv, "--similarity", "cosine_sim"]) == 2

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_gaussian_sigma_whose_square_overflows_or_underflows_is_usage_error(
        self, series_csv, capsys, sigma
    ):
        code = main(["test", "--input", series_csv, "--similarity", f"gaussian:sigma={sigma}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(["test", "--input", str(tmp_path / "nope.csv")]) == 1

    def test_short_series_is_data_error(self, tmp_path, capsys):
        path = str(tmp_path / "short.csv")
        write_csv(path, np.zeros((3, 2)))
        assert main(["test", "--input", path]) == 1
        assert "4" in capsys.readouterr().err

    def test_matrix_kind_reads_jsonl(self, tmp_path, capsys):
        from wise.io import write_matrix_jsonl

        path = str(tmp_path / "frames.jsonl")
        write_matrix_jsonl(path, np.random.default_rng(1).standard_normal((8, 3, 3)))
        argv = ["test", "--input", path, "--kind", "matrix", "--similarity", "frobenius", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["p_value"] > 0.0

    def test_matrix_record_of_negative_size_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        lines = [{"t": t, "rows": -2, "cols": -3, "data": [float(t)] * 6} for t in range(6)]
        path.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
        assert main(["test", "--input", str(path), "--kind", "matrix", "--similarity", "frobenius"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "kind, similarity",
        [
            ("function", "functional_l2"),
            ("quantile", "wasserstein1_quantile"),
            ("function", "knn:k=3,base=functional_l2"),
        ],
    )
    def test_curve_kinds_read_csv(self, tmp_path, capsys, kind, similarity):
        # sorted rows are valid observations of either kind
        path = str(tmp_path / "curves.csv")
        write_csv(path, np.sort(np.random.default_rng(2).standard_normal((30, 9)), axis=1))
        argv = ["test", "--input", path, "--kind", kind, "--similarity", similarity, "--json"]
        assert main(argv) == 0
        assert 0.0 < json.loads(capsys.readouterr().out)["p_value"] <= 1.0


class TestSimulateCommand:
    def test_stdout_rows(self, capsys):
        assert main(["simulate", "--model", "setting1.1", "--n", "6", "--p", "3"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 6
        assert all(len(r.split(",")) == 3 for r in rows)

    def test_file_output_round_trips(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        argv = ["simulate", "--model", "setting5", "--n", "10", "--p", "4", "--seed", "2",
                "--out", out]
        assert main(argv) == 0
        data = load_vector_csv(out)
        assert data.shape == (10, 4)

    def test_simulate_flags_default_to_model_spec(self):
        argv = ["simulate", "--model", "setting1.1", "--n", "5", "--p", "2"]
        args = build_parser().parse_args(argv)
        spec = ModelSpec("iid_normal", 5, 2)
        assert (args.seed, args.burn_in) == (spec.seed, spec.burn_in)

    def test_same_seed_same_draw(self, capsys):
        argv = ["simulate", "--model", "setting2.1", "--n", "5", "--p", "3", "--seed", "42",
                "--burn-in", "20"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unknown_setting_is_usage_error(self, capsys):
        assert main(["simulate", "--model", "setting7.7", "--n", "5", "--p", "3"]) == 2

    def test_size_numpy_cannot_index_is_usage_error(self, capsys):
        assert main(["simulate", "--model", "setting1.1", "--n", str(10**20), "--p", "5"]) == 2

    def test_size_the_host_cannot_hold_is_an_error(self, monkeypatch, capsys):
        def out_of_memory(spec):
            raise MemoryError

        monkeypatch.setattr("wise.cli.generate", out_of_memory)
        assert main(["simulate", "--model", "setting1.1", "--n", str(10**12), "--p", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"n = {10**12}, p = 5" in err


class TestBenchCommand:
    def test_csv_report_to_file(self, plan_file, tmp_path, capsys):
        out = str(tmp_path / "rates.csv")
        assert main(["bench", "--plan", plan_file, "--out", out, "--threads", "2"]) == 0
        captured = capsys.readouterr()
        assert "wrote 1 cell(s)" in captured.err
        lines = Path(out).read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "setting,n,p,replications,alpha,rate,mc_se,seconds,seed"
        assert lines[1].startswith("setting1.1,16,2,100,")

    def test_json_report_to_stdout(self, plan_file, capsys):
        assert main(["bench", "--plan", plan_file, "--format", "json", "--threads", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["provenance"]["master_seed"] == 5
        assert len(obj["cells"]) == 1

    def test_plan_output_path_is_fallback(self, tmp_path, capsys):
        out = str(tmp_path / "from_plan.csv")
        plan = {
            "model": {"setting": "setting1.1"},
            "grid": {"n": [16], "p": [2]},
            "replications": 100,
            "output": out,
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        assert main(["bench", "--plan", str(path), "--threads", "1"]) == 0
        capsys.readouterr()
        assert Path(out).read_text(encoding="utf-8").startswith("setting,")

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_data_error(self, plan_file, capsys, threads):
        assert main(["bench", "--plan", plan_file, "--threads", threads]) == 1
        assert capsys.readouterr().err.startswith("error: threads must be at least 1")

    def test_missing_plan_is_data_error(self, tmp_path):
        assert main(["bench", "--plan", str(tmp_path / "none.json")]) == 1

    def test_malformed_plan_is_usage_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["bench", "--plan", str(path)]) == 2

    @pytest.mark.parametrize(
        "model",
        [
            {"setting": "setting2.1", "coef_scal": 0.2},  # no family takes it
            {"setting": "setting1.1", "seasonal_lag": 3},  # this family does not take it
            {"family": "iid_normal", "n": "ten"},
        ],
    )
    def test_bad_model_is_usage_error(self, tmp_path, capsys, model):
        plan = {"model": model, "grid": {"n": [16], "p": [2]}, "replications": 100}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        assert main(["bench", "--plan", str(path), "--threads", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "changes",
        [
            {"seed": 5},
            {"weights": "cosine:l=4"},
            {"permutation": 500},
            {"replications": 150.7},
            {"grid": {"n": [30.9], "p": [2]}},
            {"master_seed": 1.5},
            {"alpha": "0.1"},
            {"replications": "ten"},
            {"kernel": {"family": "knn", "k": 5.7}},
            {"weight": {"family": "geometric", "rho": "0.5"}},
        ],
        ids=lambda changes: json.dumps(changes),
    )
    def test_bad_plan_key_or_type_is_usage_error(self, tmp_path, capsys, changes):
        plan = {"model": {"setting": "setting1.1"}, "grid": {"n": [16], "p": [2]}}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({**plan, "replications": 100, **changes}), encoding="utf-8")
        assert main(["bench", "--plan", str(path), "--threads", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestIngestCommand:
    def test_summary_line_and_output(self, checkin_csv, tmp_path, capsys):
        out = str(tmp_path / "days.jsonl")
        assert main(["ingest", "--input", checkin_csv, "--out", out]) == 0
        summary = capsys.readouterr().out.strip()
        assert summary == "days=2 kept=2 dropped_outside_box=1 dropped_outside_range=0"
        data = load_matrix_jsonl(out)
        assert data.shape == (2, 20, 20)
        assert data.sum() == 2.0

    def test_utc_bucketing_option(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("2012-04-03T23:30:00Z,35.7,139.5\n", encoding="utf-8")
        out = str(tmp_path / "days.jsonl")
        assert main(["ingest", "--input", str(path), "--out", out, "--tz", "+00:00"]) == 0
        assert "days=1" in capsys.readouterr().out

    def test_grid_flags_default_to_grid_config(self):
        args = build_parser().parse_args(["ingest", "--input", "log.csv", "--out", "days.jsonl"])
        grid = GridConfig()
        got = (args.lat_min, args.lat_max, args.lon_min, args.lon_max, args.rows, args.cols)
        assert got == (grid.lat_min, grid.lat_max, grid.lon_min, grid.lon_max, grid.rows, grid.cols)

    def test_grid_flags(self, checkin_csv, tmp_path, capsys):
        out = str(tmp_path / "days.jsonl")
        argv = ["ingest", "--input", checkin_csv, "--out", out, "--rows", "4", "--cols", "6"]
        assert main(argv) == 0
        capsys.readouterr()
        assert load_matrix_jsonl(out).shape == (2, 4, 6)

    def test_bad_timezone_is_usage_error(self, checkin_csv, tmp_path):
        out = str(tmp_path / "days.jsonl")
        assert main(["ingest", "--input", checkin_csv, "--out", out, "--tz", "tokyo"]) == 2

    def test_inverted_range_is_data_error(self, checkin_csv, tmp_path, capsys):
        out = str(tmp_path / "days.jsonl")
        argv = ["ingest", "--input", checkin_csv, "--out", out,
                "--start", "2012-04-09", "--end", "2012-04-01"]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_date_is_data_error(self, checkin_csv, tmp_path):
        out = str(tmp_path / "days.jsonl")
        assert main(["ingest", "--input", checkin_csv, "--out", out, "--start", "April 1"]) == 1


class TestHeatmapCommand:
    def test_writes_both_formats(self, series_csv, tmp_path, capsys):
        csv_out = str(tmp_path / "s.csv")
        pgm_out = str(tmp_path / "s.pgm")
        argv = ["heatmap", "--input", series_csv, "--csv-out", csv_out, "--pgm-out", pgm_out]
        assert main(argv) == 0
        capsys.readouterr()
        S = np.loadtxt(csv_out, delimiter=",")
        assert S.shape == (40, 40)
        assert np.allclose(S, S.T)
        assert Path(pgm_out).read_text(encoding="utf-8").splitlines()[0].strip() == "P2"

    def test_quantile_kind(self, tmp_path, capsys):
        src = str(tmp_path / "q.csv")
        out = str(tmp_path / "q_heat.csv")
        write_csv(src, np.sort(np.random.default_rng(4).standard_normal((12, 5)), axis=1))
        argv = [
            "heatmap", "--input", src, "--kind", "quantile",
            "--similarity", "wasserstein1_quantile", "--csv-out", out,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert np.loadtxt(out, delimiter=",").shape == (12, 12)

    def test_requires_an_output(self, series_csv):
        with pytest.raises(SystemExit) as exc:
            main(["heatmap", "--input", series_csv])
        assert exc.value.code == 2

    @staticmethod
    def _lag_bands(S):
        n = S.shape[0]
        lags = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        return S[(lags >= 1) & (lags <= 2)], S[lags > 10]

    def test_iid_heatmap_is_homogeneous_across_lags(self, tmp_path, capsys):
        src = str(tmp_path / "iid.csv")
        out = str(tmp_path / "iid_heat.csv")
        write_csv(src, np.random.default_rng(6).standard_normal((60, 30)))
        assert main(["heatmap", "--input", src, "--csv-out", out]) == 0
        capsys.readouterr()
        near, far = self._lag_bands(np.abs(np.loadtxt(out, delimiter=",")))
        se = math.hypot(
            near.std(ddof=1) / math.sqrt(near.size),
            far.std(ddof=1) / math.sqrt(far.size),
        )
        assert abs(near.mean() - far.mean()) < 3.0 * se

    def test_autoregressive_heatmap_shows_diagonal_band(self, tmp_path, capsys):
        series = generate(from_setting("setting2.1", 40, 100, seed=0, coef_scale=0.5))
        src = str(tmp_path / "var.csv")
        out = str(tmp_path / "var_heat.csv")
        write_csv(src, series.data)
        assert main(["heatmap", "--input", src, "--csv-out", out]) == 0
        capsys.readouterr()
        near, far = self._lag_bands(np.loadtxt(out, delimiter=","))
        assert near.mean() > far.mean()


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
