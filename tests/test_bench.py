import json
import math

import pytest

from forks import assert_no_child_left
from wise import bench, weights
from wise.bench import (
    CSV_COLUMNS,
    ExperimentPlan,
    _rep_seeds,
    export_report,
    load_plan,
    plan_from_json_obj,
    report_from_json_obj,
    report_to_csv,
    report_to_json,
    run_experiment,
    thread_count,
)
from wise.errors import ExperimentError, InvalidValue, ParseError, TooFewObservations
from wise.kernels import parse_kernel_spec
from wise.simgen import from_setting
from wise.weights import parse_weight_spec


def tiny_plan(**overrides) -> ExperimentPlan:
    kwargs = dict(
        model=from_setting("setting1.1", 20, 3),
        n_values=(20,),
        p_values=(3,),
        replications=120,
        master_seed=7,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def rows_without_seconds(csv_text: str):
    out = []
    for line in csv_text.strip().splitlines():
        parts = line.split(",")
        out.append(parts[:7] + parts[8:])
    return out


class TestThreadCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("WISE_THREADS", "3")
        assert thread_count() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("WISE_THREADS", "0")
        assert thread_count() == 1

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("WISE_THREADS", "many")
        with pytest.raises(InvalidValue):
            thread_count()

    def test_default_is_bounded(self, monkeypatch):
        monkeypatch.delenv("WISE_THREADS", raising=False)
        assert 1 <= thread_count() <= 4


class TestRepSeeds:
    def test_deterministic(self):
        assert _rep_seeds(0, "setting1.1", 50, 100, 3) == _rep_seeds(0, "setting1.1", 50, 100, 3)

    def test_distinct_across_axes(self):
        base = _rep_seeds(0, "setting1.1", 50, 100, 3)
        assert _rep_seeds(0, "setting1.1", 50, 100, 4) != base
        assert _rep_seeds(0, "setting1.1", 51, 100, 3) != base
        assert _rep_seeds(0, "setting1.1", 50, 101, 3) != base
        assert _rep_seeds(1, "setting1.1", 50, 100, 3) != base
        assert _rep_seeds(0, "setting1.2", 50, 100, 3) != base

    def test_values_fit_in_64_bits(self):
        for rep in range(50):
            model_seed, test_seed = _rep_seeds(12345, "svar", 80, 40, rep)
            assert 0 <= model_seed < 2**64
            assert 0 <= test_seed < 2**64


class TestRunExperiment:
    def test_thread_count_does_not_change_results(self):
        plan = tiny_plan()
        serial = run_experiment(plan, threads=1)
        threaded = run_experiment(plan, threads=4)
        assert rows_without_seconds(report_to_csv(serial)) == rows_without_seconds(
            report_to_csv(threaded)
        )

    def test_svar_cells_do_not_depend_on_thread_count(self):
        # band width 1 at p = 60: forked workers run the blocked svar recursion
        plan = tiny_plan(model=from_setting("setting3.1", 20, 60), p_values=(60,))
        serial, forked = (run_experiment(plan, threads=t) for t in (1, 2))
        assert rows_without_seconds(report_to_csv(serial)) == rows_without_seconds(
            report_to_csv(forked)
        )

    def test_repeated_runs_identical(self):
        plan = tiny_plan()
        a = run_experiment(plan, threads=2)
        b = run_experiment(plan, threads=2)
        assert rows_without_seconds(report_to_csv(a)) == rows_without_seconds(report_to_csv(b))

    def test_grid_is_row_major(self):
        plan = tiny_plan(n_values=(16, 24), p_values=(2, 5))
        report = run_experiment(plan, threads=2)
        assert [(c.n, c.p) for c in report.cells] == [(16, 2), (16, 5), (24, 2), (24, 5)]

    def test_rate_and_se_are_consistent(self):
        report = run_experiment(tiny_plan(), threads=2)
        cell = report.cells[0]
        assert cell.replications == 120
        assert 0.0 <= cell.rate <= 0.15  # null model at alpha = 0.05
        assert cell.mc_se == pytest.approx(
            math.sqrt(cell.rate * (1.0 - cell.rate) / cell.replications), rel=1e-12
        )
        assert cell.seconds >= 0.0
        assert cell.seed == 7

    def test_all_failing_cell_aborts(self):
        plan = tiny_plan(n_values=(3,))  # below the n >= 4 floor of the test
        with pytest.raises(ExperimentError):
            run_experiment(plan, threads=2)

    @pytest.mark.parametrize("threads", [0, -1, 2.5])
    def test_threads_below_one_or_not_an_integer_is_invalid(self, threads):
        with pytest.raises(InvalidValue, match="threads"):
            run_experiment(tiny_plan(), threads=threads)

    def test_provenance_records_inputs(self):
        report = run_experiment(tiny_plan(), threads=1)
        prov = report.provenance
        assert prov["model"]["label"] == "setting1.1"
        assert prov["kernel"] == "neg_l1"
        assert prov["weight"] == "default"
        assert prov["grid"] == {"n": [20], "p": [3]}
        assert prov["master_seed"] == 7
        assert prov["permutations"] is None  # analytic runs ignore B


def fail_at(monkeypatch, reps, error=TooFewObservations):
    """Replications in reps raise error; the forked workers inherit the patch."""
    real = bench._one_replication

    def replication(plan, n, p, rep):
        if rep in reps:
            raise error(f"replication {rep} failed")
        return real(plan, n, p, rep)

    monkeypatch.setattr(bench, "_one_replication", replication)


class TestFailedReplications:
    # at two workers the caller runs replications 0-59 and a child 60-119
    def test_a_single_failure_is_dropped_from_the_count(self, monkeypatch):
        fail_at(monkeypatch, {90})
        reports = [run_experiment(tiny_plan(), threads=t) for t in (1, 2)]
        assert [r.cells[0].replications for r in reports] == [119, 119]
        serial, forked = (rows_without_seconds(report_to_csv(r)) for r in reports)
        assert serial == forked
        assert_no_child_left()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_two_failures_abort_with_the_first_error(self, monkeypatch, threads):
        fail_at(monkeypatch, {100, 70})
        with pytest.raises(ExperimentError, match="2 of 120 .* replication 70 failed"):
            run_experiment(tiny_plan(), threads=threads)
        assert_no_child_left()

    def test_an_error_that_is_no_wise_error_propagates_from_a_worker(self, monkeypatch):
        monkeypatch.setenv("WISE_THREADS", "2")
        fail_at(monkeypatch, {100}, RuntimeError)
        with pytest.raises(RuntimeError, match="replication 100 failed"):
            run_experiment(tiny_plan())
        assert thread_count() == 2
        assert_no_child_left()


class TestPlanValidation:
    def test_replication_floor(self):
        with pytest.raises(InvalidValue):
            tiny_plan(replications=99)

    def test_empty_grid(self):
        with pytest.raises(InvalidValue):
            tiny_plan(n_values=())

    def test_alpha_range(self):
        with pytest.raises(InvalidValue):
            tiny_plan(alpha=1.5)

    def test_method_name(self):
        with pytest.raises(InvalidValue):
            tiny_plan(method="jackknife")

    @pytest.mark.parametrize(
        "changes",
        [
            {"model": "setting1.1"},
            {"model": {"setting": "setting1.1"}},
            {"kernel": "neg_l1"},
            {"kernel": {"family": "neg_l1"}},
            {"weight": "default"},
            {"weight": None},
        ],
    )
    def test_model_kernel_and_weight_must_be_specs(self, changes):
        with pytest.raises(InvalidValue, match=next(iter(changes))):
            tiny_plan(**changes)


# each of these differs from a valid plan file in one key
REJECTED_PLANS = {
    "unknown key seed": {"seed": 5},
    "unknown key weights": {"weights": "cosine:l=4"},
    "unknown key permutation": {"permutation": 500},
    "fractional replications": {"replications": 150.7},
    "fractional grid n": {"grid": {"n": [30.9], "p": [2]}},
    "fractional master_seed": {"master_seed": 1.5},
    "alpha as a string": {"alpha": "0.1"},
    "replications as a word": {"replications": "ten"},
    "replications as a bool": {"replications": True},
    "grid n as a bool": {"grid": {"n": [True], "p": [2]}},
    "permutations as a bool": {"permutations": True},
    "master_seed as a bool": {"master_seed": True},
    "seasonal_lag as a bool": {"model": {"setting": "setting3.1", "seasonal_lag": True}},
}


def plan_obj(**changes) -> dict:
    obj = {"model": {"setting": "setting1.1"}, "grid": {"n": [16], "p": [2]}, "replications": 100}
    return {**obj, **changes}


class TestPlanRejection:
    @pytest.mark.parametrize("changes", REJECTED_PLANS.values(), ids=REJECTED_PLANS.keys())
    def test_plan_file_is_a_spec_error(self, changes):
        with pytest.raises(ParseError):
            plan_from_json_obj(plan_obj(**changes))

    def test_permutation_floor_is_checked_when_the_plan_loads(self):
        with pytest.raises(InvalidValue, match="B >= 100"):
            plan_from_json_obj(plan_obj(method="permutation", permutations=50))
        with pytest.raises(InvalidValue, match="B >= 100"):
            tiny_plan(method="permutation", permutations=50)

    @pytest.mark.parametrize(
        "changes",
        [
            {"replications": 150.7},
            {"n_values": (30.9,)},
            {"master_seed": 1.5},
            {"replications": True},
            {"p_values": (True,)},
        ],
    )
    def test_constructor_takes_only_integer_counts(self, changes):
        with pytest.raises(InvalidValue, match="must be an integer"):
            tiny_plan(**changes)

    @pytest.mark.parametrize("changes", [{"n_values": 16}, {"p_values": 2.5}, {"n_values": None}])
    def test_constructor_takes_only_sequences_of_sizes(self, changes):
        with pytest.raises(InvalidValue, match="must be a sequence of integers"):
            tiny_plan(**changes)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {
            "model": from_setting("setting2.1", 20, 3),
            "weight": weights.geometric(0.123456789),
            "method": "permutation",
            "permutations": 100,
        },
    ],
    ids=["analytic", "permutation"],
)
def test_provenance_reruns_the_experiment(overrides):
    plan = tiny_plan(**overrides)
    report = run_experiment(plan, threads=1)
    again = plan_from_json_obj(report.provenance)
    assert (again.model, again.weight) == (plan.model, plan.weight)
    rerun = run_experiment(again, threads=1)
    assert rows_without_seconds(report_to_csv(rerun)) == rows_without_seconds(
        report_to_csv(report)
    )
    assert rerun.provenance == report.provenance


class TestSerialization:
    def test_csv_layout(self):
        report = run_experiment(tiny_plan(), threads=1)
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        fields = lines[1].split(",")
        cell = report.cells[0]
        assert fields[0] == "setting1.1"
        assert (int(fields[1]), int(fields[2]), int(fields[3])) == (20, 3, 120)
        assert float(fields[4]) == cell.alpha
        assert float(fields[5]) == cell.rate  # repr round-trips exactly
        assert float(fields[6]) == cell.mc_se
        assert fields[7] == f"{cell.seconds:.3f}"
        assert int(fields[8]) == 7

    def test_json_round_trip(self):
        report = run_experiment(tiny_plan(), threads=1)
        back = report_from_json_obj(json.loads(report_to_json(report)))
        assert back.cells == report.cells
        assert back.provenance == report.provenance

    def test_export_csv_and_json(self, tmp_path):
        report = run_experiment(tiny_plan(), threads=1)
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        export_report(report, "csv", str(csv_path))
        export_report(report, "json", str(json_path))
        assert csv_path.read_text(encoding="utf-8") == report_to_csv(report)
        assert json.loads(json_path.read_text(encoding="utf-8")) == report.to_json_obj()

    def test_export_rejects_unknown_format(self, tmp_path):
        report = run_experiment(tiny_plan(), threads=1)
        with pytest.raises(InvalidValue):
            export_report(report, "parquet", str(tmp_path / "out"))

    def test_export_surfaces_write_failure(self, tmp_path):
        report = run_experiment(tiny_plan(), threads=1)
        with pytest.raises(ExperimentError):
            export_report(report, "csv", str(tmp_path / "missing" / "out.csv"))


class TestPlanFiles:
    def full_obj(self):
        return {
            "model": {"setting": "setting2.2", "n": 30, "p": 10},
            "grid": {"n": [30, 40], "p": [10]},
            "replications": 150,
            "alpha": 0.1,
            "kernel": "gaussian:sigma=2.0",
            "weight": "geometric:rho=0.5",
            "method": "permutation",
            "permutations": 500,
            "master_seed": 11,
            "output": "rates.csv",
        }

    def test_full_plan_parses(self):
        plan = plan_from_json_obj(self.full_obj())
        assert plan.model.family == "var1"
        assert plan.n_values == (30, 40)
        assert plan.p_values == (10,)
        assert plan.replications == 150
        assert plan.alpha == 0.1
        assert plan.kernel == parse_kernel_spec("gaussian:sigma=2.0")
        assert plan.weight == parse_weight_spec("geometric:rho=0.5")
        assert (plan.method, plan.permutations) == ("permutation", 500)
        assert plan.master_seed == 11
        assert plan.output_path == "rates.csv"
        assert plan.setting == "setting2.2"

    def test_defaults_fill_in(self):
        plan = plan_from_json_obj(
            {"model": {"setting": "setting1.1"}, "grid": {"n": [20], "p": [5]}, "replications": 100}
        )
        assert plan.kernel.family == "neg_l1"
        assert plan.weight.family == "default_cauchy"
        assert (plan.alpha, plan.method, plan.master_seed) == (0.05, "analytic", 0)
        assert plan.output_path is None

    def test_specs_accept_json_object_form(self):
        obj = self.full_obj()
        obj["kernel"] = {"family": "gaussian", "sigma": 2.0}
        obj["weight"] = {"family": "geometric", "rho": 0.5}
        plan = plan_from_json_obj(obj)
        assert plan.kernel.sigma == 2.0
        assert plan.weight.rho == 0.5

    @pytest.mark.parametrize("missing", ["model", "grid", "replications"])
    def test_required_fields(self, missing):
        obj = self.full_obj()
        del obj[missing]
        with pytest.raises(ParseError):
            plan_from_json_obj(obj)

    def test_grid_needs_both_axes(self):
        obj = self.full_obj()
        obj["grid"] = {"n": [30]}
        with pytest.raises(ParseError):
            plan_from_json_obj(obj)

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            plan_from_json_obj([1, 2, 3])

    def test_load_plan_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.full_obj()), encoding="utf-8")
        assert load_plan(str(path)) == plan_from_json_obj(self.full_obj())

    def test_load_plan_after_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.full_obj()), encoding="utf-8-sig")
        assert load_plan(str(path)) == plan_from_json_obj(self.full_obj())

    def test_load_plan_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_plan(str(tmp_path / "nope.json"))

    def test_load_plan_bad_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_plan(str(path))
