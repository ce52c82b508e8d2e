import math
import os
import threading
import time

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
)
from voimc.cli import main as cli_main
from voimc.experiment import _quartiles, _run_cells, fit_slope, summarize

from support import TIE_CONFIG, fresh_python


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

    def test_quartiles_match_numpy_bit_for_bit(self):
        # numpy's partition may leave either zero of a 0.0 / -0.0 tie at a
        # quantile's index, and a sort-based quantile differs there; the copy
        # of numpy's method must pick the same one, and the same NaN and
        # infinities, on every array
        rng = np.random.default_rng(2024)
        specials = np.array([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan])
        for i in range(12_000):
            n = int(rng.integers(1, 65))
            if i % 4 == 0:  # distinct values
                values = rng.standard_normal(n)
            elif i % 4 == 1:  # only signed zeros
                values = rng.choice(specials[:2], n)
            elif i % 4 == 2:  # repeats, signed zeros and infinities
                values = rng.choice(specials[:6], n)
            else:  # repeats, and now and then a NaN
                values = np.where(
                    rng.random(n) < 0.05, np.nan, np.round(rng.standard_normal(n), 1)
                )
                values[rng.random(n) < 0.3] = -0.0
            before = values.tobytes()
            with np.errstate(invalid="ignore"):  # inf - inf in the lerp
                want = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
                got = _quartiles(values)
            assert got.tobytes() == want.tobytes(), values
            assert values.tobytes() == before  # the mean reads them in order


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
        with pytest.raises(ValueError, match="estimator must be one of"):
            ExperimentPlan("evpi-magic", (256,), 1, benchmark_model_path)

    def test_budgets_must_increase(self, benchmark_model_path):
        with pytest.raises(ValueError):
            ExperimentPlan("evpi-single", (256, 256), 1, benchmark_model_path)

    def test_budgets_must_be_positive(self, benchmark_model_path):
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            ExperimentPlan("evpi-single", (0, 16), 1, benchmark_model_path)

    def test_replications_positive(self, benchmark_model_path):
        with pytest.raises(ValueError, match="replications must be a positive"):
            ExperimentPlan("evpi-single", (256,), 0, benchmark_model_path)
        # numpy integers are accepted in every integer field
        ExperimentPlan(
            "evpi-single", (np.int64(256),), np.int32(2), benchmark_model_path,
            seed=np.uint8(3),
        )

    def test_negative_seed_rejected(self, benchmark_model_path):
        with pytest.raises(ValueError, match="seed"):
            ExperimentPlan("evpi-single", (256,), 1, benchmark_model_path, seed=-3)

    def test_default_ratio_is_variance_optimal(self, benchmark_model_path):
        plan = ExperimentPlan("evpi-single", (256,), 1, benchmark_model_path)
        assert plan.level_ratio == 2 ** (-3 / 2)

    @pytest.mark.parametrize("estimator", ["evpi-nested", "evppi-nested", "evpi-coupled"])
    def test_level_law_checked_for_every_estimator(self, benchmark_model_path, estimator):
        with pytest.raises(ValueError, match="ratio"):
            ExperimentPlan(estimator, (256,), 1, benchmark_model_path, ratio=0.9)
        with pytest.raises(ValueError, match="base"):
            ExperimentPlan(estimator, (256,), 1, benchmark_model_path, base=1)

    def test_non_number_ratio_refused(self, benchmark_model_path):
        with pytest.raises(ValueError, match="ratio must be a number"):
            ExperimentPlan("evpi-coupled", (64,), 1, benchmark_model_path, ratio="0.3")

    def test_evppi_requires_subset(self, tmp_path):
        import json

        path = tmp_path / "nosubset.json"
        path.write_text(
            json.dumps({"s": 2, "w0": 0.0, "w": [1.0, 1.0], "mu": [0.0, 0.0], "sigma": [1.0, 1.0]})
        )
        plan = ExperimentPlan("evppi-coupled", (64,), 2, str(path))
        with pytest.raises(ValueError, match="subset"):
            run_plan(plan)

    @pytest.mark.parametrize(
        "field",
        [
            {"subset": (1.5, 2)},
            {"subset": (True, 2)},
            {"budgets": (64.0,)},
            {"budgets": (64, 128.5)},
            {"replications": 1.5},
            {"replications": True},
            {"seed": 1.5},
        ],
        ids=repr,
    )
    def test_non_integer_field_refused_before_any_replication(
        self, benchmark_model_path, monkeypatch, field
    ):
        def never(*_args, **_kwargs):
            pytest.fail("ran a replication of a plan with a non-integer field")

        monkeypatch.setattr("voimc.experiment.run_replication", never)
        fields = {"budgets": (64,), "replications": 1, **field}
        with pytest.raises(ValueError, match="integer"):
            run_plan(
                ExperimentPlan("evppi-single", model_config=benchmark_model_path, **fields)
            )


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
        # counts that are not integers at all are refused too
        for workers in (0, -1, 1.5, True):
            with pytest.raises(ValueError, match="workers must be a positive integer"):
                run_plan(plan, workers=workers)
        assert run_plan(plan, workers=np.int64(1)).records == run_plan(plan).records

    def test_records_do_not_depend_on_the_split(self, benchmark_model_path):
        # 7 cells: no worker count below divides them evenly
        plan = ExperimentPlan("evppi-single", (64,), 7, benchmark_model_path, seed=5)
        serial = run_plan(plan).records
        for workers in (2, 3, 5):
            assert run_plan(plan, workers=workers).records == serial

    def test_starts_at_most_one_process_per_cell(
        self, benchmark_model_path, monkeypatch
    ):
        # the caller runs a share itself, so 64 workers on 2 cells fork once
        forks = []
        fork = os.fork

        def recording():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        two = ExperimentPlan("evpi-coupled", (64, 256), 1, benchmark_model_path, seed=4)
        assert run_plan(two) == run_plan(two, workers=1)
        assert forks == []
        assert run_plan(two, workers=64) == run_plan(two)
        assert len(forks) == 1
        one = ExperimentPlan("evpi-coupled", (64,), 1, benchmark_model_path, seed=4)
        assert run_plan(one, workers=64).records == run_plan(one).records
        assert len(forks) == 1

    def test_stdout_buffer_is_not_flushed_by_children(self, benchmark_model_path):
        # a forked child inherits the caller's unflushed stdout buffer and
        # must leave without writing it
        code = (
            "import sys, voimc\n"
            "plan = voimc.ExperimentPlan('evpi-nested', (16, 32, 64), 2, sys.argv[1])\n"
            "print('written once', end='')\n"
            "voimc.run_plan(plan, workers=3)\n"
        )
        proc = fresh_python("-c", code, benchmark_model_path)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert (proc.stdout, proc.stderr) == ("written once", "")

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
        # the file `voimc study --out` writes holds exactly render_csv's bytes
        plan = self._plan(benchmark_model_path)
        report = run_plan(plan)
        out = tmp_path / "report.csv"
        args = ["study", "--estimator", "evppi-coupled", "--model", benchmark_model_path]
        args += ["--subset", "1,2", "--budgets", "64,256", "--reps", "5", "--seed", "33"]
        assert cli_main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == render_csv(report, plan).encode()
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
        assert row.n_draws == 256  # outer count: 4096**(2/3)
        assert row.cost_used == 256 * 16 + 4096


def _where(*job):
    return os.getpid(), job


class TestRunCells:
    """The cell runner: job i in process i % workers, the caller process 0."""

    @pytest.fixture(autouse=True)
    def leaves_nothing_behind(self):
        # no child process to reap and no pipe left open after any case
        fds = len(os.listdir("/proc/self/fd"))
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_job_i_runs_in_process_i_mod_workers(self, workers):
        jobs = [(i, -i) for i in range(11)]
        outcomes = _run_cells(_where, jobs, workers)
        assert [job for _, job in outcomes] == jobs
        pids = [pid for pid, _ in outcomes]
        shares = [set(pids[first::workers]) for first in range(workers)]
        assert shares[0] == {os.getpid()}
        assert all(len(share) == 1 for share in shares)
        assert len(set.union(*shares)) == workers

    def test_without_fork_the_caller_runs_every_job(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        outcomes = _run_cells(_where, [(i,) for i in range(5)], 3)
        assert outcomes == [(os.getpid(), (i,)) for i in range(5)]

    @pytest.mark.parametrize("error", [ValueError, MemoryError])
    def test_child_error_reaches_the_caller(self, error):
        # the first child's error also ends the second, which would sleep
        def cell(job):
            if job == 1:
                raise error(f"cell {job} failed")
            if job == 2:
                time.sleep(60)
            return job

        start = time.perf_counter()
        with pytest.raises(error, match="^cell 1 failed$"):
            _run_cells(cell, [(0,), (1,), (2,)], 3)
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize(
        "fault, code",
        # a child that dies, and one whose outcomes do not pickle
        [(lambda: os._exit(5), 5), (threading.Lock, 1)],
        ids=["exit-5", "unpicklable"],
    )
    def test_child_without_outcomes_is_named(self, fault, code):
        def cell(job):
            return fault() if job == 1 else job

        message = rf"^study worker process \d+ exited with code {code} without"
        with pytest.raises(RuntimeError, match=message):
            _run_cells(cell, [(0,), (1,)], 2)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_caller_error_kills_the_children(self, error):
        # the children would take a minute; the caller's error ends them
        def cell(job):
            if job == 0:
                raise error("caller failed")
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(error, match="caller failed"):
            _run_cells(cell, [(0,), (1,), (2,)], 3)
        assert time.perf_counter() - start < 30
