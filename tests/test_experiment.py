import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voimc import (
    BudgetExhaustedError,
    ExperimentPlan,
    RngStream,
    analytic_evppi,
    render_csv,
    run_plan,
    write_csv,
)
from voimc.experiment import fit_slope, summarize

from support import TIE_CONFIG


class TestSummarize:
    def test_three_point_example(self):
        s = summarize([1.0, 2.0, 3.0], truth=2.0)
        assert s.median == 2.0
        assert s.rmse == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)

    def test_exact_estimates_have_zero_rmse(self):
        s = summarize([2.5, 2.5, 2.5], truth=2.5)
        assert s.rmse == 0.0
        assert s.minimum == s.maximum == s.mean == 2.5

    def test_two_point_example(self):
        s = summarize([0.0, 4.0], truth=1.0)
        assert s.mean == 2.0
        assert s.rmse == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], truth=0.0)

    @given(
        values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40)
    )
    @settings(deadline=None, max_examples=80)
    def test_quantiles_ordered(self, values):
        s = summarize(values, truth=0.0)
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
        assert s.minimum == min(values)
        assert s.maximum == max(values)


class TestFitSlope:
    def test_exact_square_root_decay(self):
        points = [(c, c**-0.5) for c in (2**8, 2**10, 2**12, 2**14)]
        assert fit_slope(points) == pytest.approx(0.5, abs=1e-12)

    def test_exact_quarter_decay(self):
        points = [(c, c**-0.25) for c in (2**8, 2**10, 2**12)]
        assert fit_slope(points) == pytest.approx(0.25, abs=1e-12)

    def test_noisy_decay_recovered(self):
        gen = RngStream(90).generator()
        budgets = [2**m for m in range(8, 18, 2)]
        points = [(c, c**-0.5 * (1.0 + 0.05 * gen.standard_normal())) for c in budgets]
        assert fit_slope(points) == pytest.approx(0.5, abs=0.1)

    def test_non_positive_rmse_excluded(self):
        points = [(256, 0.1), (1024, 0.05), (4096, 0.0)]
        assert fit_slope(points) == pytest.approx(0.5, abs=1e-12)

    def test_too_few_usable_points_give_nan(self):
        assert math.isnan(fit_slope([(256, 0.1)]))
        assert math.isnan(fit_slope([(256, 0.1), (1024, 0.0), (4096, -1.0)]))


class TestPlanValidation:
    def test_bad_estimator(self, benchmark_model_path):
        with pytest.raises(ValueError):
            ExperimentPlan("evpi-magic", (256,), 1, benchmark_model_path)

    def test_budgets_must_increase(self, benchmark_model_path):
        with pytest.raises(ValueError):
            ExperimentPlan("evpi-single", (256, 256), 1, benchmark_model_path)

    def test_budgets_must_be_positive(self, benchmark_model_path):
        with pytest.raises(ValueError, match="budgets must be positive"):
            ExperimentPlan("evpi-single", (0, 16), 1, benchmark_model_path)

    def test_replications_positive(self, benchmark_model_path):
        with pytest.raises(ValueError):
            ExperimentPlan("evpi-single", (256,), 0, benchmark_model_path)

    def test_default_ratio_is_variance_optimal(self, benchmark_model_path):
        plan = ExperimentPlan("evpi-single", (256,), 1, benchmark_model_path)
        assert plan.level_ratio == 2 ** (-3 / 2)

    @pytest.mark.parametrize("estimator", ["evpi-nested", "evppi-nested", "evpi-coupled"])
    def test_level_law_checked_for_every_estimator(self, benchmark_model_path, estimator):
        with pytest.raises(ValueError, match="ratio"):
            ExperimentPlan(estimator, (256,), 1, benchmark_model_path, ratio=0.9)
        with pytest.raises(ValueError, match="base"):
            ExperimentPlan(estimator, (256,), 1, benchmark_model_path, base=1)

    def test_evppi_requires_subset(self, tmp_path):
        import json

        path = tmp_path / "nosubset.json"
        path.write_text(
            json.dumps({"s": 2, "w0": 0.0, "w": [1.0, 1.0], "mu": [0.0, 0.0], "sigma": [1.0, 1.0]})
        )
        plan = ExperimentPlan("evppi-coupled", (64,), 2, str(path))
        with pytest.raises(ValueError, match="subset"):
            run_plan(plan)


class TestRunPlan:
    def test_single_replication_collapses_quantiles(self, benchmark_model_path):
        plan = ExperimentPlan(
            "evpi-coupled", (256,), 1, benchmark_model_path, seed=3
        )
        report = run_plan(plan)
        s = report.per_budget[256]
        est = report.records[256][0].estimate
        assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == est
        assert math.isnan(report.slope)  # one budget cannot define a slope

    def test_truth_column_uses_analytic_value(self, benchmark_model_path):
        plan = ExperimentPlan(
            "evppi-coupled", (64,), 2, benchmark_model_path, subset=(1, 2), seed=4
        )
        report = run_plan(plan)
        assert report.truth == pytest.approx(
            analytic_evppi(TIE_CONFIG, (1, 2)), abs=1e-14
        )

    def test_subset_falls_back_to_model_file(self, benchmark_model_path):
        plan = ExperimentPlan("evppi-coupled", (64,), 2, benchmark_model_path, seed=4)
        report = run_plan(plan)  # file carries subset [1, 2]
        assert report.truth == pytest.approx(
            analytic_evppi(TIE_CONFIG, (1, 2)), abs=1e-14
        )
        assert "#CONFIG,subset,1|2\n" in render_csv(report, plan)

    def test_every_estimator_name_runs(self, benchmark_model_path):
        for name in (
            "evpi-nested",
            "evpi-single",
            "evpi-coupled",
            "evppi-nested",
            "evppi-single",
            "evppi-coupled",
        ):
            plan = ExperimentPlan(
                name, (64,), 2, benchmark_model_path, subset=(1, 2), seed=8
            )
            report = run_plan(plan)
            assert len(report.records[64]) == 2

    def test_deterministic_across_worker_counts(self, benchmark_model_path):
        plan = ExperimentPlan(
            "evppi-coupled",
            (64, 256),
            6,
            benchmark_model_path,
            subset=(1, 2),
            seed=11,
        )
        serial = run_plan(plan, workers=1)
        again = run_plan(plan, workers=1)
        parallel = run_plan(plan, workers=2)
        assert serial == again
        assert serial == parallel

    def test_workers_below_one_rejected(self, benchmark_model_path):
        plan = ExperimentPlan("evpi-nested", (16,), 1, benchmark_model_path)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                run_plan(plan, workers=workers)

    def test_replication_streams_keyed_by_index_not_order(self, benchmark_model_path):
        # running a superset of budgets must not disturb shared cells
        small = ExperimentPlan(
            "evpi-coupled", (256,), 4, benchmark_model_path, seed=12
        )
        large = ExperimentPlan(
            "evpi-coupled", (64, 256), 4, benchmark_model_path, seed=12
        )
        a = run_plan(small).records[256]
        b = run_plan(large).records[256]
        assert a == b

    def test_exhausted_replications_reported_as_missing(self, benchmark_model_path):
        plan = ExperimentPlan(
            "evpi-single",
            (2,),
            40,
            benchmark_model_path,
            ratio=0.49,
            seed=21,
        )
        report = run_plan(plan)
        rows = report.records[2]
        missing = [r for r in rows if r.estimate is None]
        present = [r for r in rows if r.estimate is not None]
        assert missing and present  # ratio 0.49 fails ~half the time
        assert all(r.cost_used == 0 and r.n_draws == 0 for r in missing)

    def test_all_replications_exhausted_raises(self, benchmark_model_path):
        # find a seed whose three replications all draw a too-deep first level
        for seed in range(200):
            plan = ExperimentPlan(
                "evpi-single",
                (2,),
                3,
                benchmark_model_path,
                ratio=0.49,
                seed=seed,
            )
            try:
                run_plan(plan)
            except BudgetExhaustedError:
                return
        pytest.fail("no all-exhausted seed found in 200 tries")


class TestCsvOutput:
    def _plan(self, benchmark_model_path):
        return ExperimentPlan(
            "evppi-coupled",
            (64, 256),
            5,
            benchmark_model_path,
            subset=(1, 2),
            seed=33,
        )

    def test_layout(self, benchmark_model_path, tmp_path):
        plan = self._plan(benchmark_model_path)
        report = run_plan(plan)
        out = tmp_path / "report.csv"
        write_csv(report, plan, out)
        lines = out.read_text().splitlines()
        header_ix = lines.index(
            "estimator,budget,replication,estimate,truth,cost_used,n_draws"
        )
        assert all(l.startswith("#CONFIG,") for l in lines[:header_ix])
        rows = [l for l in lines if l.startswith("evppi-coupled,")]
        assert len(rows) == 10
        summaries = [l for l in lines if l.startswith("#SUMMARY,")]
        assert len(summaries) == 2
        assert lines[-1].startswith("#SLOPE,")
        first = rows[0].split(",")
        assert first[1] == "64" and first[2] == "1"
        assert float(first[3]) == report.records[64][0].estimate

    def test_render_is_reproducible(self, benchmark_model_path):
        plan = self._plan(benchmark_model_path)
        a = render_csv(run_plan(plan), plan)
        b = render_csv(run_plan(plan), plan)
        assert a == b

    def test_missing_estimates_render_empty(self, benchmark_model_path, tmp_path):
        plan = ExperimentPlan(
            "evpi-single", (2,), 40, benchmark_model_path, ratio=0.49, seed=21
        )
        report = run_plan(plan)
        text = render_csv(report, plan)
        assert any(
            line.split(",")[3] == ""
            for line in text.splitlines()
            if line.startswith("evpi-single,")
        )

    def test_full_precision_round_trip(self, benchmark_model_path):
        plan = self._plan(benchmark_model_path)
        report = run_plan(plan)
        text = render_csv(report, plan)
        row = next(l for l in text.splitlines() if l.startswith("evppi-coupled,"))
        assert float(row.split(",")[3]) == report.records[64][0].estimate


class TestNestedStudyWiring:
    def test_nested_cost_reflects_baseline_term(self, benchmark_model_path):
        plan = ExperimentPlan("evpi-nested", (64,), 2, benchmark_model_path, seed=5)
        report = run_plan(plan)
        for row in report.records[64]:
            assert row.cost_used == 128  # baseline priced on top of the budget
            assert row.n_draws == 64

    def test_nested_evppi_allocation(self, benchmark_model_path):
        plan = ExperimentPlan(
            "evppi-nested", (4096,), 1, benchmark_model_path, subset=(1, 2), seed=6
        )
        report = run_plan(plan)
        row = report.records[4096][0]
        assert row.n_draws == 256  # outer count at gamma = 1
        assert row.cost_used == 256 * 16 + 4096
