import math
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voimc import (
    BudgetExhaustedError,
    DecisionModel,
    ExperimentPlan,
    FactoredSampler,
    LevelDistribution,
    PayoffEvaluationError,
    PriorSampler,
    RngStream,
    analytic_evppi,
    evpi_mlmc,
    evpi_nested,
    evppi_mlmc,
    evppi_nested,
    make_gaussian_model,
    optimal_ratio,
    render_csv,
    run_plan,
)
from voimc import estimators
from voimc.estimators import (
    _BATCH_ROWS,
    _accumulate_best_means,
    _freeze_levels,
    _RunningMoments,
    _best,
    _terms,
    nested_allocation,
)

from finite_support import finite_support_model, finite_support_oracle
from support import (
    OFFSET_CONFIG,
    TIE_CONFIG,
    DrawCounter,
    analytic_evpi,
    budget_rule_mean,
    conditional_correction_mean,
    conditional_plugin_mean,
    conditional_term,
    constant_model,
    icbrt,
    level_correction_mean,
    per_draw_run,
    plugin_mean,
    prior_term,
    serial_nested,
    single_decision_model,
    three_decision_model,
    weighted_level_mean,
)

DIST = LevelDistribution(2, optimal_ratio(2, 1))


@pytest.fixture(scope="module")
def tie_setup():
    model, prior, factored = make_gaussian_model(TIE_CONFIG, (1, 2))
    return model, prior, factored


@pytest.fixture(scope="module")
def tie_model_large_draw():
    # a level law that all but surely draws level 1, whose draws have 2**16 rows
    model, prior, factored = make_gaussian_model(TIE_CONFIG, (1, 2))
    return model, prior, factored, LevelDistribution(2**16, 1e-9)


@pytest.fixture(scope="module")
def offset_setup():
    model, prior, factored = make_gaussian_model(OFFSET_CONFIG, (1, 2))
    return model, prior, factored


def fixed_prior(samples: np.ndarray) -> PriorSampler:
    return PriorSampler(
        dimension=samples.shape[1], draw_fn=lambda _rng, size: samples[:size]
    )


def fixed_factored(samples: np.ndarray, revealed=(1,)) -> FactoredSampler:
    dim = samples.shape[1] + len(revealed)
    return FactoredSampler(
        dimension=dim,
        revealed=tuple(revealed),
        marginal_fn=lambda _rng, size: np.zeros((size, len(revealed))),
        conditional_fn=lambda x1, _rng, size: samples[: x1.shape[0] * size],
    )


def _collect(run, reps: int) -> np.ndarray:
    """Estimates over replications, skipping budget-exhausted ones."""
    vals = []
    for k in range(reps):
        try:
            vals.append(run(k))
        except BudgetExhaustedError:
            pass
    return np.array(vals)


# ---------------------------------------------------------------------------
# plug-in statistic and nested estimators
# ---------------------------------------------------------------------------


class TestMaxMeanPayoff:
    """The nested estimators' baseline term: the best per-decision mean."""

    def test_max_of_means_not_mean_of_maxes(self, tie_setup):
        model, _, _ = tie_setup
        samples = np.array([[1, 1, 1, 1, 1], [-3, -1, -1, -1, -1]], dtype=float)
        # per-decision means are (-1, 0); the mean of per-sample maxima is 2.5
        gen = RngStream(0).generator()
        stop = threading.Event()
        assert _accumulate_best_means(model, fixed_prior(samples), 2, gen, stop) == 0.0

    def test_single_decision_is_plain_mean(self):
        model = single_decision_model(dimension=1)
        samples = fixed_prior(np.array([[2.0], [4.0]]))
        gen = RngStream(0).generator()
        assert _accumulate_best_means(model, samples, 2, gen, threading.Event()) == 3.0

    def test_one_sample_reduces_to_best_payoff(self, tie_setup):
        model, prior, _ = tie_setup
        x = prior.draw(RngStream(14).generator(), 1)
        gen = RngStream(14).generator()
        best = _accumulate_best_means(model, prior, 1, gen, threading.Event())
        assert best == model.payoff_matrix(x)[0].max()

    def test_empty_rejected(self, tie_setup):
        model, prior, factored = tie_setup
        counts = {"outer_draws": 1, "inner_draws": 1, "baseline_draws": 1}
        for name in counts:
            for bad in (0, True, 2.5):
                args = {**counts, name: bad}
                with pytest.raises(ValueError, match=f"{name} must be a positive"):
                    evppi_nested(model, factored, prior, **args, rng=RngStream(0))
                del args["inner_draws"]
                if name != "inner_draws":
                    with pytest.raises(ValueError, match=f"{name} must be a positive"):
                        evpi_nested(model, prior, **args, rng=RngStream(0))
        # numpy integers are counts like any other
        args = {"outer_draws": np.int64(3), "baseline_draws": np.int32(2)}
        assert evpi_nested(model, prior, **args, rng=RngStream(0)) == evpi_nested(
            model, prior, outer_draws=3, baseline_draws=2, rng=RngStream(0)
        )


class TestNestedAllocation:
    def test_reference_budget(self):
        assert nested_allocation(2**12) == (16, 256)

    def test_tiny_budget(self):
        assert nested_allocation(4) == (1, 2)

    def test_exact_integer_floors(self):
        # every budget up to 2**20, and 2**k - 1, 2**k, 2**k + 1 above it,
        # where a floating-point cube root overshoots the floor (at 2**39 - 1
        # it gave an inner count of 8192, although 8192**3 > 2**39 - 1)
        budgets = [*range(4, 2**20 + 1)]
        budgets += [2**k + d for k in range(20, 63) for d in (-1, 0, 1)]
        for budget in budgets:
            assert nested_allocation(budget) == (icbrt(budget), icbrt(budget**2))
        assert nested_allocation(2**39 - 1) == (8191, 67108863)
        # a NumPy integer budget is split as the same Python integer
        assert nested_allocation(np.int64(2**62 + 1)) == nested_allocation(2**62 + 1)

    def test_invalid_arguments(self):
        for budget in (3, 4.5, True, "64"):
            with pytest.raises(ValueError, match="budget must be an integer >= 4"):
                nested_allocation(budget)


class TestNestedEstimators:
    def test_constant_payoffs_give_exact_zero(self, tie_setup):
        _, prior, _ = tie_setup
        model = constant_model((3.0, 1.0))
        result = evpi_nested(
            model, prior, outer_draws=100, baseline_draws=37, rng=RngStream(4)
        )
        assert result.estimate == 0.0
        assert result.cost_used == 137

    def test_non_representable_constant_payoffs_cancel_to_rounding(self, tie_setup):
        # the outer term and the baseline term average through different
        # reductions, so constants binary floating point cannot represent
        # cancel only to rounding: within the worst-case error of summing
        # outer + baseline values of the largest magnitude, 0.3
        _, prior, _ = tie_setup
        model = constant_model((0.1, -2.7, 0.3))
        result = evpi_nested(
            model, prior, outer_draws=100, baseline_draws=1000, rng=RngStream(1)
        )
        assert abs(result.estimate) <= 1100 * np.finfo(float).eps * 0.3

    def test_single_decision_is_mean_zero(self, tie_setup):
        _, prior, _ = tie_setup
        model = single_decision_model()
        vals = [
            evpi_nested(
                model, prior, outer_draws=64, baseline_draws=64, rng=RngStream(5, (k,))
            ).estimate
            for k in range(400)
        ]
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 4 * se

    def test_evpi_nested_mean_matches_exact_two_term_oracle(self, tie_setup):
        # E[estimate] = E[best single-sample payoff] - E[plug-in over L draws],
        # both known in closed form for the benchmark
        model, prior, _ = tie_setup
        L = 1024
        expected = plugin_mean(TIE_CONFIG, 1) - plugin_mean(TIE_CONFIG, L)
        vals = np.array(
            [
                evpi_nested(
                    model, prior, outer_draws=L, baseline_draws=L, rng=RngStream(6, (k,))
                ).estimate
                for k in range(100)
            ]
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - expected) < 4 * se
        # the finite-sample optimism of the subtracted term is real: the
        # estimator sits measurably below the true information value
        assert analytic_evpi(TIE_CONFIG) - expected > 4 * se

    def test_evppi_nested_mean_matches_exact_two_term_oracle(self, tie_setup):
        model, prior, factored = tie_setup
        inner, outer = nested_allocation(2**10)
        expected = conditional_plugin_mean(TIE_CONFIG, (1, 2), inner) - plugin_mean(
            TIE_CONFIG, 2**10
        )
        vals = np.array(
            [
                evppi_nested(
                    model,
                    factored,
                    prior,
                    outer_draws=outer,
                    inner_draws=inner,
                    baseline_draws=2**10,
                    rng=RngStream(7, (k,)),
                ).estimate
                for k in range(80)
            ]
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - expected) < 4 * se

    def test_full_reveal_makes_inner_count_irrelevant(self, tie_setup):
        model, prior, _ = tie_setup
        _, _, factored = make_gaussian_model(TIE_CONFIG, range(1, 6))
        kwargs = dict(outer_draws=50, baseline_draws=64, rng=RngStream(8))
        a = evppi_nested(model, factored, prior, inner_draws=1, **kwargs)
        b = evppi_nested(model, factored, prior, inner_draws=7, **kwargs)
        assert a.estimate == pytest.approx(b.estimate, rel=1e-12)

    def test_cost_accounting(self, tie_setup):
        model, prior, factored = tie_setup
        r = evppi_nested(
            model,
            factored,
            prior,
            outer_draws=11,
            inner_draws=5,
            baseline_draws=17,
            rng=RngStream(9),
        )
        assert r.cost_used == 11 * 5 + 17
        assert r.n_draws == 11

    def test_determinism(self, tie_setup):
        model, prior, _ = tie_setup
        a = evpi_nested(model, prior, outer_draws=200, baseline_draws=100, rng=RngStream(10))
        b = evpi_nested(model, prior, outer_draws=200, baseline_draws=100, rng=RngStream(10))
        assert a == b

    def test_oversized_nested_draw_refused_before_sampling(self, tie_setup):
        model, prior, _ = tie_setup

        def never(*_args):
            pytest.fail("sampled a nested draw above the per-draw memory bound")

        factored = FactoredSampler(5, (1,), never, never)
        # one outer draw of 2**25 inner rows: 2**25 * 5 * 8 bytes > 2**30
        with pytest.raises(MemoryError, match="per-draw bound"):
            evppi_nested(
                model, factored, prior, outer_draws=1, inner_draws=2**25,
                baseline_draws=1, rng=RngStream(0),
            )


def _nested_calls(model, prior, factored, **kwargs):
    """(library call, serial reference) for `evpi_nested` when ``factored`` is
    None, else for `evppi_nested` with 3 inner draws per outer draw."""
    if factored is None:
        run = partial(evpi_nested, model, prior, **kwargs)
    else:
        kwargs["inner_draws"] = 3
        run = partial(evppi_nested, model, factored, prior, **kwargs)
    return run, partial(serial_nested, model, prior, factored=factored, **kwargs)


def _outer_stream(gen: np.random.Generator) -> bool:
    # the outer term's first stream is child(0), the baseline's child(1)
    return gen.bit_generator.seed_seq.spawn_key[-1] == 0


def _raised(call) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def _decisions(count: int, layout: str) -> DecisionModel:
    """``count`` affine decisions of the 5 coordinates, whose payoff array
    comes back C-ordered, Fortran-ordered or as every other column of a
    wider array (``layout`` "C", "F" or "strided")."""
    weights = np.cos(np.arange(5 * count, dtype=float)).reshape(5, count)
    shifts = np.sin(np.arange(count, dtype=float)) / 3

    def payoff(xs):
        values = xs @ weights + shifts
        if layout == "F":
            return np.asfortranarray(values)
        if layout == "strided":
            wide = np.zeros((len(values), 2 * count))
            wide[:, ::2] = values
            return wide[:, ::2]
        return np.ascontiguousarray(values)

    return DecisionModel(tuple(range(count)), payoff, 5)


def _layout_run(call: str, model, prior, factored, rng):
    """Run the estimator that ``call`` names ("evpi-nested", "evppi-nested",
    or "<evpi|evppi>-mlmc-<variant>-<budget rule>") at a fixed size."""
    if call == "evpi-nested":
        return evpi_nested(
            model, prior, outer_draws=3000, baseline_draws=5000, rng=rng
        )
    if call == "evppi-nested":
        return evppi_nested(
            model, factored, prior, outer_draws=300, inner_draws=37,
            baseline_draws=5000, rng=rng,
        )
    estimator, _, variant, rule = call.split("-")
    if estimator == "evpi":
        return evpi_mlmc(model, prior, DIST, 2**13, variant, rng, budget_rule=rule)
    return evppi_mlmc(
        model, factored, prior, DIST, 2**13, variant, variant, rng=rng,
        budget_rule=rule,
    )


class TestPayoffLayout:
    """Every estimator's bits are the same whatever the payoff's layout: the
    nested terms fold in sequence, and `_terms` folds a decision-major copy."""

    @pytest.mark.parametrize(
        "call",
        [
            "evpi-nested",
            "evppi-nested",
            *(
                f"{estimator}-mlmc-{variant}-{rule}"
                for estimator in ("evpi", "evppi")
                for variant in ("single", "coupled")
                for rule in ("expected", "prefix")
            ),
        ],
    )
    @pytest.mark.parametrize("count", [1, 2, 3, 9])
    def test_bits_do_not_depend_on_layout(self, tie_setup, call, count):
        _, prior, factored = tie_setup
        results = []
        for layout in ("C", "F", "strided"):
            model = _decisions(count, layout)
            flags = model.payoff_matrix(np.zeros((4, 5))).flags
            # payoff_matrix hands the layout on as the payoff returned it
            held = {"C": flags.c_contiguous, "F": flags.f_contiguous}
            assert held.get(layout, not flags.forc)
            result = _layout_run(call, model, prior, factored, RngStream(45, (count,)))
            results.append((
                result.estimate.hex(),
                result.term_variance.hex(),
                [
                    (level, s.count, s.mean.hex(), s.second_moment.hex())
                    for level, s in result.per_level.items()
                ],
            ))
        assert results[1] == results[0]
        assert results[2] == results[0]


@pytest.fixture(params=["inline", "threaded"])
def nested_path(request, monkeypatch):
    """Send every nested call down one path: the baseline term on the calling
    thread after the outer term, or on the helper thread beside it."""
    inline_rows = 2**62 if request.param == "inline" else 0
    monkeypatch.setattr(estimators, "_INLINE_ROWS", inline_rows)


class TestConcurrentBaseline:
    """The baseline term runs on a helper thread beside the outer term when a
    call has more than ``_INLINE_ROWS`` payoff rows, and after it on the
    calling thread otherwise."""

    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    @pytest.mark.parametrize("outer, baseline", [(200, 333), (64, 128), (1, 65), (130, 1)])
    @pytest.mark.parametrize(
        "decisions", [1, 2, 3], ids=["one-decision", "tie", "three-decision"]
    )
    def test_bits_match_serial_reference(
        self, tie_setup, monkeypatch, nested_path, evppi, outer, baseline, decisions
    ):
        # a 64-row chunk makes both terms span several chunks, most of them
        # ending on a partial one; numpy's own sum would fold the one-decision
        # baseline pairwise, the reference folds it in sequence
        monkeypatch.setattr(estimators, "_BATCH_ROWS", 64)
        model, prior, factored = tie_setup
        if decisions != 2:
            model = {1: single_decision_model(), 3: three_decision_model()}[decisions]
        run, serial = _nested_calls(
            model, prior, factored if evppi else None,
            outer_draws=outer, baseline_draws=baseline, rng=RngStream(41, (outer,)),
        )
        got, want = run(), serial()
        assert got.estimate.hex() == want.estimate.hex()
        assert got.term_variance.hex() == want.term_variance.hex()
        assert (got.n_draws, got.cost_used) == (want.n_draws, want.cost_used)

    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    def test_no_thread_outlives_a_call(self, tie_setup, nested_path, evppi):
        model, prior, factored = tie_setup
        run, _ = _nested_calls(
            model, prior, factored if evppi else None,
            outer_draws=300, baseline_draws=200, rng=RngStream(42),
        )
        before = threading.active_count()
        run()
        assert threading.active_count() == before

    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    def test_baseline_sampler_error_matches_serial(
        self, tie_setup, monkeypatch, nested_path, evppi
    ):
        monkeypatch.setattr(estimators, "_BATCH_ROWS", 64)
        model, prior, factored = tie_setup

        def draw(gen, size):
            if not _outer_stream(gen):
                raise RuntimeError(f"baseline sampler failed on {size} rows")
            return prior.draw(gen, size)

        failing = PriorSampler(dimension=prior.dimension, draw_fn=draw)
        run, serial = _nested_calls(
            model, failing, factored if evppi else None,
            outer_draws=100, baseline_draws=77, rng=RngStream(43),
        )
        before = threading.active_count()
        assert _raised(run) == _raised(serial)
        assert threading.active_count() == before

    @pytest.mark.parametrize("baseline_fails", [False, True])
    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    def test_outer_payoff_error_matches_serial(
        self, tie_setup, monkeypatch, nested_path, evppi, baseline_fails
    ):
        # when the baseline fails too, the outer term's error still wins, as
        # in the serial order
        monkeypatch.setattr(estimators, "_BATCH_ROWS", 64)
        model, prior, factored = tie_setup

        def poisoned(draw):
            def fn(gen, size):
                if not _outer_stream(gen) and baseline_fails:
                    raise RuntimeError("baseline sampler failed")
                out = draw(gen, size)
                if _outer_stream(gen):
                    out[size // 2, 0] = np.inf  # a non-finite payoff
                return out

            return fn

        if evppi:
            factored = FactoredSampler(
                dimension=factored.dimension,
                revealed=factored.revealed,
                marginal_fn=poisoned(factored.draw_marginal),
                conditional_fn=factored.draw_conditional,
            )
        prior = PriorSampler(dimension=prior.dimension, draw_fn=poisoned(prior.draw))
        run, serial = _nested_calls(
            model, prior, factored if evppi else None,
            outer_draws=100, baseline_draws=77, rng=RngStream(44),
        )
        before = threading.active_count()
        error = _raised(run)
        assert error == _raised(serial)
        assert error[0] is PayoffEvaluationError
        assert threading.active_count() == before

    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    def test_outer_error_stops_baseline(self, tie_setup, monkeypatch, evppi):
        # 2**16 baseline draws in 64-row chunks are 1,024 chunks.  The outer
        # term's payoff fails on the calling thread; the baseline sampler
        # waits for that failure before each of its draws, so every chunk it
        # draws comes after it.  The chunk in hand may finish, one more may
        # start before the stop is seen, and no further one.
        monkeypatch.setattr(estimators, "_BATCH_ROWS", 64)
        model, prior, factored = tie_setup
        caller = threading.get_ident()
        failed = threading.Event()
        baseline_chunks = 0

        def payoff(xs):
            if threading.get_ident() == caller:
                failed.set()
                raise RuntimeError("outer payoff failed")
            return model.payoff(xs)

        def draw(gen, size):
            nonlocal baseline_chunks
            if threading.get_ident() != caller:
                assert failed.wait(timeout=60)
                baseline_chunks += 1
            return prior.draw(gen, size)

        failing = DecisionModel(model.decisions, payoff, model.dimension)
        sampler = PriorSampler(dimension=prior.dimension, draw_fn=draw)
        run, _ = _nested_calls(
            failing, sampler, factored if evppi else None,
            outer_draws=100, baseline_draws=2**16, rng=RngStream(46),
        )
        before = threading.active_count()
        assert _raised(run) == (RuntimeError, "outer payoff failed")
        assert threading.active_count() == before
        assert 1 <= baseline_chunks <= 2

    def test_process_pool_after_nested_call(
        self, tie_setup, benchmark_model_path, monkeypatch
    ):
        # the pool forks after an in-process call has started and joined its
        # helper thread; the CSV must not depend on the worker count
        monkeypatch.setattr(estimators, "_INLINE_ROWS", 0)
        model, prior, factored = tie_setup
        evppi_nested(
            model, factored, prior, outer_draws=50, inner_draws=4, baseline_draws=200,
            rng=RngStream(45),
        )
        plan = ExperimentPlan(
            "evppi-nested", (64, 256), 4, benchmark_model_path, subset=(1, 2), seed=45
        )
        serial = render_csv(run_plan(plan, workers=1), plan)
        assert render_csv(run_plan(plan, workers=2), plan) == serial

    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    @pytest.mark.parametrize("extra, inline", [(0, True), (1, False)], ids=["at", "above"])
    def test_gate_boundary(self, tie_setup, evppi, extra, inline):
        # a call of exactly _INLINE_ROWS payoff rows runs its baseline on the
        # calling thread, one row more on the helper; the bits are the same
        model, prior, factored = tie_setup
        caller = threading.get_ident()
        baseline_threads = set()

        def draw(gen, size):
            if not _outer_stream(gen):
                baseline_threads.add(threading.get_ident())
            return prior.draw(gen, size)

        outer = 2**12  # 3 inner rows each for evppi
        rows = outer * (3 if evppi else 1)
        sampler = PriorSampler(dimension=prior.dimension, draw_fn=draw)
        run, serial = _nested_calls(
            model, sampler, factored if evppi else None, outer_draws=outer,
            baseline_draws=estimators._INLINE_ROWS - rows + extra, rng=RngStream(47),
        )
        got = run()
        assert got.cost_used == estimators._INLINE_ROWS + extra
        assert (baseline_threads == {caller}) is inline
        want = serial()
        assert got.estimate.hex() == want.estimate.hex()
        assert got.term_variance.hex() == want.term_variance.hex()

    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    def test_small_call_starts_no_thread(self, tie_setup, evppi):
        # below the gate the baseline term runs while no other thread does;
        # test_cli's import footprint shows it loads no executor either
        model, prior, factored = tie_setup
        before = threading.active_count()
        counts = []

        def draw(gen, size):
            if not _outer_stream(gen):
                counts.append(threading.active_count())
            return prior.draw(gen, size)

        sampler = PriorSampler(dimension=prior.dimension, draw_fn=draw)
        run, _ = _nested_calls(
            model, sampler, factored if evppi else None,
            outer_draws=256, baseline_draws=4096, rng=RngStream(48),
        )
        run()
        assert counts == [before]


class TestOneChunkSize:
    """Both nested terms chunk at 2**14 rows, `_BATCH_ROWS`, the chunk size
    of the multilevel estimators."""

    @staticmethod
    def _recording(model: DecisionModel):
        """``model`` with a payoff that records the thread and row count of
        each call, under a lock; and the record."""
        calls = []
        lock = threading.Lock()

        def payoff(xs):
            with lock:
                calls.append((threading.get_ident(), xs.shape[0]))
            return model.payoff(xs)

        return DecisionModel(model.decisions, payoff, model.dimension), calls

    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    def test_payoff_calls(self, tie_setup, evppi):
        # 2**17 payoff rows put the baseline on the helper thread; the outer
        # term stays on this one.  evppi chunks whole draws: 409 draws of 40
        # inner rows fit in 2**14 rows, so 1,625 draws take 4 chunks
        model, prior, factored = tie_setup
        recording, calls = self._recording(model)
        if evppi:
            evppi_nested(
                recording, factored, prior, outer_draws=1625, inner_draws=40,
                baseline_draws=2**16, rng=RngStream(49),
            )
            outer_rows = [409 * 40] * 3 + [398 * 40]
        else:
            evpi_nested(
                recording, prior, outer_draws=2**16, baseline_draws=2**16,
                rng=RngStream(49),
            )
            outer_rows = [2**14] * 4
        caller = threading.get_ident()
        assert [rows for thread, rows in calls if thread == caller] == outer_rows
        assert [rows for thread, rows in calls if thread != caller] == [2**14] * 4

    @pytest.mark.parametrize("evppi", [False, True], ids=["evpi", "evppi"])
    def test_peak_memory_is_one_chunk(self, tie_setup, monkeypatch, evppi):
        # both terms on this thread, one after the other, so that the peak
        # does not depend on how they overlap; a 2**14-row chunk of 5
        # coordinates is 640 KiB
        monkeypatch.setattr(estimators, "_INLINE_ROWS", 2**62)
        model, prior, factored = tie_setup
        run, _ = _nested_calls(
            model, prior, factored if evppi else None,
            outer_draws=2**14, baseline_draws=2**18, rng=RngStream(50),
        )
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# level correction terms
# ---------------------------------------------------------------------------


class TestLevelTermsAgainstExplicitReference:
    """Pin the block layout and weights with loop-transcribed references."""

    @staticmethod
    def _reference_single(payoffs, base, level, dist):
        lo = base ** (level - 1)
        firsts = [
            payoffs[k * lo : (k + 1) * lo].mean(axis=0).max() for k in range(base)
        ]
        return (np.mean(firsts) - payoffs.mean(axis=0).max()) / dist.pmf(level)

    @staticmethod
    def _reference_coupled(payoffs, base, level, dist):
        total = 0.0
        for j in range(1, level + 1):
            lo, hi = base ** (j - 1), base**j
            n_lo, n_hi = base ** (level - j + 1), base ** (level - j)
            first = np.mean(
                [payoffs[k * lo : (k + 1) * lo].mean(axis=0).max() for k in range(n_lo)]
            )
            second = np.mean(
                [payoffs[k * hi : (k + 1) * hi].mean(axis=0).max() for k in range(n_hi)]
            )
            total += (first - second) / dist.tail(j)
        return total

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("base", [2, 3])
    def test_level_terms_match_reference(self, tie_setup, level, base):
        model, prior, _ = tie_setup
        dist = LevelDistribution(base, optimal_ratio(base, 1))
        samples = prior.draw(RngStream(20, (base, level)).generator(), base**level)
        payoffs = model.payoff_matrix(samples)
        single = _terms(payoffs[None], dist, level, "single")[0]
        coupled = _terms(payoffs[None], dist, level, "coupled")[0]
        assert single == pytest.approx(
            self._reference_single(payoffs, base, level, dist), rel=1e-12, abs=1e-13
        )
        assert coupled == pytest.approx(
            self._reference_coupled(payoffs, base, level, dist), rel=1e-12, abs=1e-13
        )
        # a level-l term consumes exactly base**l rows
        for variant in ("single", "coupled"):
            with pytest.raises(ValueError):
                _terms(payoffs[None, 1:], dist, level, variant)

    def test_conditional_terms_match_reference(self, tie_setup):
        model, prior, _ = tie_setup
        level, base = 3, 2
        revealed_value = np.array([[0.7]])
        hidden = prior.draw(RngStream(21).generator(), base**level)[:, 1:]
        stub = fixed_factored(hidden, revealed=(1,))
        payoffs = model.payoff_matrix(
            np.hstack([np.full((base**level, 1), 0.7), hidden])
        )
        single = conditional_term(
            model, stub, revealed_value, level, DIST, RngStream(0).generator(), "single"
        )
        coupled = conditional_term(
            model, stub, revealed_value, level, DIST, RngStream(0).generator(), "coupled"
        )
        assert single == pytest.approx(
            self._reference_single(payoffs, base, level, DIST), rel=1e-12, abs=1e-13
        )
        assert coupled == pytest.approx(
            self._reference_coupled(payoffs, base, level, DIST), rel=1e-12, abs=1e-13
        )


def _sequential_fold(values: list, width: int) -> list:
    out = []
    for k in range(0, len(values), width):
        acc = values[k]
        for i in range(1, width):
            acc += values[k + i]
        out.append(acc / width)
    return out


def _scalar_term(payoffs: np.ndarray, dist, level: int, variant: str) -> float:
    """The term of one (base**level, n_decisions) draw in plain Python floats,
    every block summed left to right and then divided by its width.

    gaps[j - 1] holds, per block of size base**j, the mean of its sub-blocks'
    best block means minus its own best block mean.  The single term is the
    one gap at size base**level over pmf(level); the coupled term weights the
    gaps at size base**j by pmf(1) / pmf(j) and sums them in Horner form."""
    columns = [payoffs[:, d].tolist() for d in range(payoffs.shape[1])]
    best = [max(row) for row in zip(*columns)]
    gaps = []
    for _ in range(level):
        columns = [_sequential_fold(c, dist.base) for c in columns]
        below, best = best, [max(row) for row in zip(*columns)]
        gaps.append([a - b for a, b in zip(_sequential_fold(below, dist.base), best)])
    if variant == "single":
        return gaps[-1][0] / dist.pmf(level)
    total = []
    for j, gap in enumerate(gaps, start=1):
        weighted = [(g / dist.pmf(j)) * dist.pmf(1) for g in gap]
        if j > 1:
            folded = _sequential_fold(total, dist.base)
            weighted = [t + w for t, w in zip(folded, weighted)]
        total = weighted
    return total[0]


@st.composite
def stacked_payoffs(draw):
    """(base, level, payoffs) with payoffs of shape (n, base**level, K),
    optionally rounded to integers (exact ties within and across decisions)
    and with constant decision columns."""
    base = draw(st.integers(2, 4))
    level = draw(st.integers(1, 6))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payoffs = gen.normal(size=(n, base**level, k)) * draw(
        st.sampled_from([1e-3, 1.0, 3.0, 1e6])
    )
    if draw(st.booleans()):
        payoffs = np.round(payoffs) + 0.0  # + 0.0 turns -0.0 into 0.0
    for d in range(k):
        if draw(st.booleans()):
            payoffs[:, :, d] = draw(st.sampled_from([0.0, 0.1, -2.7, 3.0]))
    return base, level, payoffs


class TestBest:
    """`_best` is the max over the leading (decision) axis, one decision at a
    time; these payoffs keep decisions last, as numpy's reference max reads
    them, and reach `_best` through `np.moveaxis`."""

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("rows", [(3,), (64,), (5, 8), (4, 33)], ids=str)
    def test_matches_numpy_max_bitwise_up_to_eight_decisions(self, rows, k):
        gen = np.random.default_rng(k)
        for payoffs in (
            # a few values, so most rows tie exactly, 0.0 against -0.0 too
            gen.choice([-1.5, -0.0, 0.0, 0.0, 2.0], size=(*rows, k)),
            gen.normal(size=(*rows, k)),
        ):
            got = _best(np.moveaxis(payoffs, -1, 0))
            assert got.tobytes() == payoffs.max(axis=-1).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 9, 12, 17])
    def test_matches_numpy_max_bitwise_without_negative_zero(self, k):
        gen = np.random.default_rng(100 + k)
        # rounded payoffs tie exactly; + 0.0 turns -0.0 into 0.0
        payoffs = np.round(gen.normal(size=(4, 33, k)) * 2) + 0.0
        got = _best(np.moveaxis(payoffs, -1, 0))
        assert got.tobytes() == payoffs.max(axis=-1).tobytes()

    @pytest.mark.parametrize("k", [2, 9, 12])
    def test_signed_zero_tie_returns_later_column(self, k):
        # the one choice a max makes: on a 0.0 / -0.0 tie the later column's
        # zero is returned, whatever the number of decisions (numpy's own
        # reduction may return either zero from 9 decisions on)
        payoffs = np.zeros((2, 40, k))
        payoffs[0, :, -1] = -0.0
        payoffs[1, :, 0] = -0.0
        got = _best(np.moveaxis(payoffs, -1, 0))
        assert np.signbit(got[0]).all() and not np.signbit(got[1]).any()


class TestTermsRowIndependence:
    """`_terms` on stacked draws gives every draw the bits it has alone, and
    those bits are the left-to-right block sums of the module docstring."""

    @given(case=stacked_payoffs(), variant=st.sampled_from(["single", "coupled"]))
    @settings(deadline=None, max_examples=80)
    def test_rows_match_alone_and_scalar_reference_bitwise(self, case, variant):
        base, level, payoffs = case
        dist = LevelDistribution(base, optimal_ratio(base, 1))
        stacked = _terms(payoffs, dist, level, variant)
        assert stacked.shape == (payoffs.shape[0],)
        for row, value in zip(payoffs, stacked.tolist()):
            alone = float(_terms(row[None], dist, level, variant)[0])
            scalar = _scalar_term(row, dist, level, variant)
            assert value.hex() == alone.hex() == scalar.hex()

    @given(case=stacked_payoffs())
    @settings(deadline=None, max_examples=80)
    def test_coupled_terms_never_negative(self, case):
        # every weighted gap is >= 0 entry by entry, and folds and sums of
        # non-negative values stay non-negative
        base, level, payoffs = case
        dist = LevelDistribution(base, optimal_ratio(base, 1))
        assert (_terms(payoffs, dist, level, "coupled") >= 0.0).all()


class TestTermsFoldCount:
    """`_terms` folds each block size once: no per-level fold tower."""

    @pytest.mark.parametrize("level", range(1, 9))
    @pytest.mark.parametrize("base", [2, 3])
    def test_fold_calls_per_term(self, monkeypatch, base, level):
        calls = []

        def counting(values, width):
            calls.append(width)
            return fold(values, width)

        fold = estimators._fold_blocks
        monkeypatch.setattr(estimators, "_fold_blocks", counting)
        dist = LevelDistribution(base, optimal_ratio(base, 1))
        payoffs = np.random.default_rng(level).normal(size=(2, base**level, 3))
        for variant, bound in (("coupled", 3 * level - 1), ("single", level + 1)):
            calls.clear()
            _terms(payoffs, dist, level, variant)
            assert len(calls) <= bound, variant


class TestDegenerateExactness:
    @pytest.mark.parametrize("base", [2, 3])
    def test_single_decision_terms_vanish_bitwise(self, base):
        model = single_decision_model()
        _, prior, _ = make_gaussian_model(TIE_CONFIG, (1,))
        dist = LevelDistribution(base, optimal_ratio(base, 1))
        for seed in range(50):
            gen = RngStream(30, (seed,)).generator()
            for level in range(1, 5):
                assert prior_term(model, prior, level, dist, gen, "single") == 0.0
                assert prior_term(model, prior, level, dist, gen, "coupled") == 0.0

    @pytest.mark.parametrize("base", [2, 3])
    def test_constant_payoff_terms_vanish_bitwise(self, base):
        # non-representable constants stress the fold; the shared reduction
        # tree still cancels them exactly
        model = constant_model((0.1, -2.7, 0.3))
        _, prior, _ = make_gaussian_model(TIE_CONFIG, (1,))
        dist = LevelDistribution(base, optimal_ratio(base, 1))
        for seed in range(50):
            gen = RngStream(31, (seed,)).generator()
            for level in range(1, 5):
                assert prior_term(model, prior, level, dist, gen, "single") == 0.0
                assert prior_term(model, prior, level, dist, gen, "coupled") == 0.0

    def test_full_reveal_conditional_terms_vanish_bitwise(self, tie_setup):
        model, _, _ = tie_setup
        _, _, factored = make_gaussian_model(TIE_CONFIG, range(1, 6))
        for seed in range(100):
            gen = RngStream(32, (seed,)).generator()
            revealed = factored.draw_marginal(gen, 1)
            for level in (1, 2, 3):
                for variant in ("single", "coupled"):
                    assert (
                        conditional_term(
                            model, factored, revealed, level, DIST, gen, variant
                        )
                        == 0.0
                    )


class TestPointwiseSign:
    def test_perfect_information_bracket_never_negative(self, tie_setup):
        # mean of block bests always dominates the best pooled mean, sample
        # by sample, so the unweighted single-term bracket is >= 0 pointwise
        model, prior, _ = tie_setup
        for seed in range(10_000):
            gen = RngStream(33, (seed,)).generator()
            assert prior_term(model, prior, 1, DIST, gen, "single") >= 0.0

    def test_conditional_bracket_never_negative(self):
        model, _, factored = make_gaussian_model(TIE_CONFIG, (1,))
        for seed in range(10_000):
            gen = RngStream(34, (seed,)).generator()
            revealed = factored.draw_marginal(gen, 1)
            term = conditional_term(model, factored, revealed, 1, DIST, gen, "single")
            assert term >= 0.0


class TestLevelOneCouplingIdentity:
    def test_perfect_information_identity_bitwise(self, tie_setup):
        model, prior, _ = tie_setup
        p1 = DIST.pmf(1)
        for seed in range(1000):
            stream = RngStream(35, (seed,))
            single = prior_term(model, prior, 1, DIST, stream.generator(), "single")
            coupled = prior_term(model, prior, 1, DIST, stream.generator(), "coupled")
            assert coupled == p1 * single

    def test_conditional_identity_bitwise(self, tie_setup):
        model, _, factored = tie_setup
        p1 = DIST.pmf(1)
        for seed in range(1000):
            stream = RngStream(36, (seed,))
            revealed = factored.draw_marginal(stream.child(0).generator(), 1)
            single = conditional_term(
                model, factored, revealed, 1, DIST, stream.child(1).generator(), "single"
            )
            coupled = conditional_term(
                model, factored, revealed, 1, DIST, stream.child(1).generator(), "coupled"
            )
            assert coupled == p1 * single


def _chunk_count(result) -> int:
    """Chunks a run's levels take: one sampler call per part for each."""
    return sum(
        -(-stats.count // max(1, estimators._BATCH_ROWS // DIST.cost(level)))
        for level, stats in result.per_level.items()
    )


class TestSharedSampleAccounting:
    @pytest.mark.parametrize("batch_rows", [8, _BATCH_ROWS])
    def test_one_bulk_draw_per_level_and_chunk(self, tie_setup, monkeypatch, batch_rows):
        # each part samples every chunk of a level in one call: one prior call
        # per evpi chunk, one prior, one marginal and one conditional call per
        # evppi chunk, and the rows drawn add up to the reported cost
        monkeypatch.setattr(estimators, "_BATCH_ROWS", batch_rows)
        model, prior, factored = tie_setup
        for variant in ("single", "coupled"):
            counter = DrawCounter(prior)
            r = evpi_mlmc(model, counter.sampler(), DIST, 512, variant, RngStream(37))
            assert max(r.per_level) >= 2
            assert counter.calls == _chunk_count(r)
            assert counter.samples == r.cost_used
            if batch_rows == 8:
                assert counter.calls > len(r.per_level)

            counter = DrawCounter(prior)
            revealed_rows, hidden_rows = [], []

            def marginal(rng, size):
                revealed_rows.append(size)
                return factored.marginal_fn(rng, size)

            def conditional(x1, rng, size):
                hidden_rows.append(x1.shape[0] * size)
                return factored.conditional_fn(x1, rng, size)

            counted = FactoredSampler(
                factored.dimension, factored.revealed, marginal, conditional
            )
            r = evppi_mlmc(
                model, counted, counter.sampler(), DIST, 1024, variant, variant,
                rng=RngStream(37),
            )
            assert max(r.per_level) >= 2
            assert counter.calls == len(hidden_rows) == len(revealed_rows)
            assert counter.calls == _chunk_count(r)
            assert counter.samples == sum(hidden_rows) == r.cost_used // 2
            assert sum(revealed_rows) == r.n_draws

    def test_estimator_consumes_exactly_reported_cost(self, tie_setup):
        model, prior, _ = tie_setup
        counter = DrawCounter(prior)
        result = evpi_mlmc(model, counter.sampler(), DIST, 256, "coupled", RngStream(38))
        assert counter.samples == result.cost_used
        assert counter.calls == _chunk_count(result)


class TestSampledLevelTermMeans:
    """Level-randomized terms hit their closed-form targets on a model whose
    corrections decay fast (no heavy tails, no budget rule involved)."""

    def test_perfect_information_terms(self, offset_setup):
        model, prior, _ = offset_setup
        truth = analytic_evpi(OFFSET_CONFIG)
        for variant in ("single", "coupled"):
            level_gen = RngStream(40).child(0).generator()
            draw_gen = RngStream(40).child(1).generator()
            levels = DIST.sample_levels(level_gen, 10_000)
            vals = np.array(
                [prior_term(model, prior, int(l), DIST, draw_gen, variant) for l in levels]
            )
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - truth) < 4 * se, variant

    def test_conditional_terms(self, offset_setup):
        model, _, factored = offset_setup
        target = analytic_evpi(OFFSET_CONFIG) - analytic_evppi(OFFSET_CONFIG, (1, 2))
        for variant in ("single", "coupled"):
            level_gen = RngStream(41).child(0).generator()
            draw_gen = RngStream(41).child(1).generator()
            levels = DIST.sample_levels(level_gen, 10_000)
            vals = []
            for l in levels:
                revealed = factored.draw_marginal(draw_gen, 1)
                vals.append(
                    conditional_term(model, factored, revealed, int(l), DIST, draw_gen, variant)
                )
            vals = np.array(vals)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - target) < 4 * se, variant


# ---------------------------------------------------------------------------
# randomized multilevel estimators
# ---------------------------------------------------------------------------


class TestMlmcEstimators:
    def test_constant_model_estimates_exactly_zero(self, tie_setup):
        _, prior, _ = tie_setup
        model = constant_model((3.0, 1.0))
        for seed in range(50):
            r = evpi_mlmc(model, prior, DIST, 64, "coupled", RngStream(50, (seed,)))
            assert r.estimate == 0.0

    def test_determinism_bitwise(self, tie_setup):
        model, prior, factored = tie_setup
        a = evppi_mlmc(model, factored, prior, DIST, 512, rng=RngStream(51))
        b = evppi_mlmc(model, factored, prior, DIST, 512, rng=RngStream(51))
        assert a == b

    @pytest.mark.parametrize("batch_rows", [8, _BATCH_ROWS])
    @pytest.mark.parametrize("variant", ["single", "coupled"])
    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_full_reveal_equals_perfect_information_run_bitwise(
        self, tie_setup, monkeypatch, budget_rule, variant, batch_rows
    ):
        # conditional terms cancel exactly and either budget rule on a doubled
        # budget walks the identical level sequence, so the runs agree to the
        # bit only if evppi's Y part reads its one prior stream as evpi does;
        # 8-row chunks make that stream span several levels and chunks
        monkeypatch.setattr(estimators, "_BATCH_ROWS", batch_rows)
        model, prior, _ = tie_setup
        _, _, factored = make_gaussian_model(TIE_CONFIG, range(1, 6))
        for budget in (64, 256):
            a = evpi_mlmc(
                model, prior, DIST, budget, variant, RngStream(52),
                budget_rule=budget_rule,
            )
            b = evppi_mlmc(
                model, factored, prior, DIST, 2 * budget, variant, variant,
                rng=RngStream(52), budget_rule=budget_rule,
            )
            assert a.estimate == b.estimate
            assert a.per_level == b.per_level
            assert a.n_draws == b.n_draws
            assert 2 * a.cost_used == b.cost_used
        assert len(a.per_level) >= 2
        if batch_rows == 8:
            assert _chunk_count(a) > len(a.per_level)

    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_one_generator_per_stream_kind(self, tie_setup, monkeypatch, budget_rule):
        # the level counts and each kind of sample own one generator, however
        # many levels a run draws; the nested estimators build one per stream
        model, prior, factored = tie_setup
        built = []
        generator = RngStream.generator

        def counting(stream):
            built.append(stream.path)
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", counting)
        for variant in ("single", "coupled"):
            built.clear()
            r = evpi_mlmc(
                model, prior, DIST, 4096, variant, RngStream(57),
                budget_rule=budget_rule,
            )
            assert len(r.per_level) >= 3
            assert sorted(built) == [(0,), (1,)]
            built.clear()
            r = evppi_mlmc(
                model, factored, prior, DIST, 8192, variant, variant,
                rng=RngStream(57), budget_rule=budget_rule,
            )
            assert len(r.per_level) >= 3
            assert sorted(built) == [(0,), (1,), (2,), (3,)]
        built.clear()
        evpi_nested(model, prior, outer_draws=64, baseline_draws=64, rng=RngStream(57))
        assert sorted(built) == [(0,), (1,)]
        built.clear()
        evppi_nested(
            model, factored, prior, outer_draws=16, inner_draws=4, baseline_draws=64,
            rng=RngStream(57),
        )
        assert sorted(built) == [(0,), (1,), (2,)]

    def test_budget_respected(self, tie_setup):
        model, prior, factored = tie_setup
        for budget in (8, 64, 300):
            r = evpi_mlmc(
                model,
                prior,
                DIST,
                budget,
                "single",
                RngStream(53),
                budget_rule="prefix",
            )
            assert r.cost_used <= budget
            r2 = evppi_mlmc(
                model,
                factored,
                prior,
                DIST,
                budget + 4,
                rng=RngStream(53),
                budget_rule="prefix",
            )
            assert r2.cost_used <= budget + 4

    def test_budget_exhausted_raises(self, tie_setup):
        model, prior, factored = tie_setup
        deep = LevelDistribution(2, 0.49)
        raised = 0
        for seed in range(60):
            try:
                evpi_mlmc(
                    model,
                    prior,
                    deep,
                    2,
                    "single",
                    RngStream(54, (seed,)),
                    budget_rule="prefix",
                )
            except BudgetExhaustedError:
                raised += 1
        assert raised > 10  # P(first level >= 2) = 0.49
        raised_pp = 0
        for seed in range(60):
            try:
                evppi_mlmc(
                    model,
                    factored,
                    prior,
                    deep,
                    4,
                    rng=RngStream(54, (seed,)),
                    budget_rule="prefix",
                )
            except BudgetExhaustedError:
                raised_pp += 1
        assert raised_pp > 10

    def test_invalid_arguments(self, tie_setup, monkeypatch):
        model, prior, factored = tie_setup
        with pytest.raises(ValueError):
            evpi_mlmc(model, prior, DIST, 1, "single", RngStream(0))
        with pytest.raises(ValueError):
            evpi_mlmc(model, prior, DIST, 64, "fancy", RngStream(0))
        with pytest.raises(ValueError):
            evppi_mlmc(model, factored, prior, DIST, 3, rng=RngStream(0))
        with pytest.raises(ValueError):
            evppi_mlmc(
                model, factored, prior, DIST, 64, variant_z="fancy", rng=RngStream(0)
            )
        with pytest.raises(ValueError):
            evpi_mlmc(model, prior, DIST, 64, "single", RngStream(0), budget_rule="cap")
        # the expected-cost rule needs one draw's expected cost, 3 + sqrt(2)
        # for evpi and twice that for evppi; the message names the minimum
        with pytest.raises(ValueError, match="at least 5"):
            evpi_mlmc(model, prior, DIST, 4, "single", RngStream(0))
        with pytest.raises(ValueError, match="at least 9"):
            evppi_mlmc(model, factored, prior, DIST, 8, rng=RngStream(0))
        # a numpy integer budget runs as the same Python integer
        for rule in ("expected", "prefix"):
            run = partial(
                evpi_mlmc, model, prior, DIST, variant="single", rng=RngStream(0),
                budget_rule=rule,
            )
            assert run(np.int64(64)) == run(64)

        # a budget that is no positive integer is refused, naming it, before
        # any stream is built
        def never(_stream):
            pytest.fail("built a generator for a run with a bad budget")

        monkeypatch.setattr(RngStream, "generator", never)
        for budget in (-5, 2**16 + 0.5, math.nan, math.inf, True, "100"):
            for rule in ("expected", "prefix"):
                with pytest.raises(ValueError, match="budget must be a positive integer"):
                    evpi_mlmc(
                        model, prior, DIST, budget, "coupled", RngStream(0),
                        budget_rule=rule,
                    )
                with pytest.raises(ValueError, match="budget must be a positive integer"):
                    evppi_mlmc(
                        model, factored, prior, DIST, budget, rng=RngStream(0),
                        budget_rule=rule,
                    )

    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_oversized_draw_refused_before_sampling(
        self, tie_setup, monkeypatch, budget_rule
    ):
        model, _, factored = tie_setup

        def never(_rng, _size):
            pytest.fail("sampled a draw above the per-draw memory bound")

        def no_stream(_stream):
            pytest.fail("built a generator for a run whose every draw is refused")

        prior = PriorSampler(dimension=5, draw_fn=never)
        monkeypatch.setattr(RngStream, "generator", no_stream)
        # every level costs at least 2**26 samples: 2**26 * 5 * 8 bytes > 2**30
        huge = LevelDistribution(2**26, 2.0**-27)
        with pytest.raises(MemoryError, match="a level-1 draw .* per-draw bound"):
            evpi_mlmc(
                model, prior, huge, 2**28, "single", RngStream(0),
                budget_rule=budget_rule,
            )
        with pytest.raises(MemoryError, match="a level-1 draw .* per-draw bound"):
            evppi_mlmc(
                model, factored, prior, huge, 2**29, rng=RngStream(0),
                budget_rule=budget_rule,
            )
        # a budget below one draw is still refused first, with its own message
        with pytest.raises(ValueError, match="budget"):
            evpi_mlmc(
                model, prior, huge, 2**25, "single", RngStream(0),
                budget_rule=budget_rule,
            )

    def test_draw_count_beyond_binomial_refused(self, tie_setup):
        # the expected rule turns 2**70 into about 2.7e20 draws, beyond
        # numpy's binomial, and refuses them by count; 2**64 still gives
        # fewer than 2**63 draws, whose deepest level the memory bound refuses
        model, prior, factored = tie_setup
        with pytest.raises(ValueError, match=r"n must be below 2\*\*63"):
            evpi_mlmc(model, prior, DIST, 2**70, "coupled", RngStream(0))
        with pytest.raises(ValueError, match=r"n must be below 2\*\*63"):
            evppi_mlmc(model, factored, prior, DIST, 2**70, rng=RngStream(0))
        with pytest.raises(MemoryError, match="per-draw bound"):
            evpi_mlmc(model, prior, DIST, 2**64, "coupled", RngStream(0))

    @staticmethod
    def _peak_before_first_sample(run) -> int:
        """tracemalloc peak of ``run(prior)`` up to the prior's first draw."""

        class Sampled(Exception):
            pass

        def stop(_rng, _size):
            raise Sampled

        tracemalloc.start()
        try:
            with pytest.raises(Sampled):
                run(PriorSampler(dimension=5, draw_fn=stop))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("draws", [2**18, 2**20])
    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_peak_before_first_sample_is_small(self, tie_setup, budget_rule, draws):
        # neither rule keeps a level sequence: the expected rule draws counts
        # per level, and the prefix rule counts its levels block by block, so
        # the memory up to the first sample does not grow with the budget.
        # ``draws`` is the number of draws, or of counted levels (budget //
        # (parts * base)) under the prefix rule.
        model, _, factored = tie_setup
        if budget_rule == "expected":
            budget = math.ceil(draws * DIST.expected_cost())
        else:
            budget = draws * DIST.base
        peak = self._peak_before_first_sample(
            lambda prior: evpi_mlmc(
                model, prior, DIST, budget, "single", RngStream(0),
                budget_rule=budget_rule,
            )
        )
        assert peak < 2**16
        peak = self._peak_before_first_sample(
            lambda prior: evppi_mlmc(
                model, factored, prior, DIST, 2 * budget, rng=RngStream(0),
                budget_rule=budget_rule,
            )
        )
        assert peak < 2**16

    def test_large_single_draw_peak(self, tie_model_large_draw):
        # one level-1 draw of 2**16 rows: the run holds no more than sampling
        # that draw's samples needs, whether it has one part or two
        model, prior, factored, dist = tie_model_large_draw
        samples_bytes = dist.cost(1) * model.dimension * 8
        runs = {
            "evpi": lambda: evpi_mlmc(
                model, prior, dist, math.ceil(dist.expected_cost()), "single",
                RngStream(0),
            ),
            "evppi": lambda: evppi_mlmc(
                model, factored, prior, dist, math.ceil(2 * dist.expected_cost()),
                rng=RngStream(0),
            ),
        }
        for name, run in runs.items():
            tracemalloc.start()
            try:
                result = run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.n_draws == 1 and list(result.per_level) == [1], name
            assert peak <= 3.1 * samples_bytes, (name, peak / samples_bytes)

    @staticmethod
    def _grouped_and_per_draw(setup, dist, budget, variants, budget_rule, monkeypatch):
        """The run, the terms it fed its per-level moments, and the per-draw
        reference with its terms."""
        model, prior, factored = setup
        rng = RngStream(60, (budget,))
        recorded = {}

        class Recording(_RunningMoments):
            def __init__(self):
                super().__init__()
                self.chunks = []

            def add_many(self, values, *others):
                self.chunks.append(values.copy())
                super().add_many(values, *others)

        def freeze(acc):
            recorded.update({lvl: np.concatenate(m.chunks) for lvl, m in acc.items()})
            return _freeze_levels(acc)

        monkeypatch.setattr(estimators, "_RunningMoments", Recording)
        monkeypatch.setattr(estimators, "_freeze_levels", freeze)
        if len(variants) == 1:
            factored = None
            grouped = evpi_mlmc(
                model, prior, dist, budget, variants[0], rng, budget_rule=budget_rule
            )
        else:
            grouped = evppi_mlmc(
                model, factored, prior, dist, budget, *variants, rng=rng,
                budget_rule=budget_rule,
            )
        reference, terms = per_draw_run(
            model, prior, dist, budget, variants, rng, budget_rule, factored
        )
        return grouped, recorded, reference, terms

    @staticmethod
    def _assert_matches(grouped, recorded, reference, terms):
        assert grouped.n_draws == reference.n_draws
        assert grouped.cost_used == reference.cost_used
        assert list(recorded) == list(terms)
        for level, values in terms.items():
            assert recorded[level].tobytes() == values.tobytes(), level
            got, want = grouped.per_level[level], reference.per_level[level]
            assert got.count == want.count
            assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-300)
            assert got.second_moment == pytest.approx(want.second_moment, rel=1e-12)
        assert grouped.estimate == pytest.approx(reference.estimate, rel=1e-12)
        assert grouped.term_variance == pytest.approx(reference.term_variance, rel=1e-12)

    @pytest.mark.parametrize(
        "variants",
        [("single",), ("coupled",), ("single", "coupled"), ("coupled", "single")],
        ids=["evpi-single", "evpi-coupled", "evppi-single-coupled", "evppi-coupled-single"],
    )
    @pytest.mark.parametrize("base", [2, 3])
    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_grouped_run_matches_per_draw_run_bitwise(
        self, tie_setup, monkeypatch, budget_rule, base, variants
    ):
        # 8-row chunks split every level into several chunks, and give each
        # draw above 8 rows a chunk of its own; the terms keep their bits
        monkeypatch.setattr(estimators, "_BATCH_ROWS", 8)
        dist = LevelDistribution(base, optimal_ratio(base, 1))
        budget = 2048 * len(variants)
        grouped, recorded, reference, terms = self._grouped_and_per_draw(
            tie_setup, dist, budget, variants, budget_rule, monkeypatch
        )
        assert max(dist.cost(level) for level in grouped.per_level) > 8
        self._assert_matches(grouped, recorded, reference, terms)

    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_level_spanning_chunks_matches_per_draw_run_bitwise(
        self, tie_setup, monkeypatch, budget_rule
    ):
        # about 14,800 draws, some 9,600 at level 1: more than the 8,192
        # two-row draws of one _BATCH_ROWS chunk
        grouped, recorded, reference, terms = self._grouped_and_per_draw(
            tie_setup, DIST, 2**17, ("single", "coupled"), budget_rule, monkeypatch
        )
        assert grouped.per_level[1].count > _BATCH_ROWS // DIST.cost(1)
        self._assert_matches(grouped, recorded, reference, terms)

    def test_per_level_bookkeeping(self, tie_setup):
        model, prior, _ = tie_setup
        r = evpi_mlmc(model, prior, DIST, 1024, "single", RngStream(55))
        assert sum(s.count for s in r.per_level.values()) == r.n_draws
        assert sum(2**lvl * s.count for lvl, s in r.per_level.items()) == r.cost_used
        assert all(s.second_moment >= 0 for s in r.per_level.values())

    def test_estimate_is_mean_of_terms(self, tie_setup):
        model, prior, _ = tie_setup
        r = evpi_mlmc(model, prior, DIST, 256, "single", RngStream(56))
        # reconstruct the term mean from the per-level decomposition
        total = sum(s.mean * s.count for s in r.per_level.values())
        assert r.estimate == pytest.approx(total / r.n_draws, rel=1e-12)

    def test_run_mean_matches_budget_conditional_oracle_evpi(self, tie_setup):
        # with a small budget the prefix rule can only ever realize shallow
        # levels; the run mean equals the fit-conditioned term mean, which
        # sits measurably below the true information value
        model, prior, _ = tie_setup
        budget, reps = 16, 6000
        oracle = budget_rule_mean(
            DIST,
            budget,
            lambda l: weighted_level_mean(
                DIST, l, lambda j: level_correction_mean(TIE_CONFIG, 2, j), "single"
            ),
        )
        vals = []
        for k in range(reps):
            try:
                vals.append(
                    evpi_mlmc(
                        model,
                        prior,
                        DIST,
                        budget,
                        "single",
                        RngStream(57, (k,)),
                        budget_rule="prefix",
                    ).estimate
                )
            except BudgetExhaustedError:
                pass  # the oracle is the success-conditioned mean
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) < 4 * se
        assert analytic_evpi(TIE_CONFIG) - oracle > 8 * se

    def test_run_mean_matches_budget_conditional_oracle_evppi(self, tie_setup):
        model, prior, factored = tie_setup
        budget, reps = 32, 4000

        def level_mean(l):
            y = weighted_level_mean(
                DIST, l, lambda j: level_correction_mean(TIE_CONFIG, 2, j), "coupled"
            )
            z = weighted_level_mean(
                DIST,
                l,
                lambda j: conditional_correction_mean(TIE_CONFIG, (1, 2), 2, j),
                "coupled",
            )
            return y - z

        oracle = budget_rule_mean(DIST, budget // 2, level_mean)
        vals = []
        for k in range(reps):
            try:
                vals.append(
                    evppi_mlmc(
                        model,
                        factored,
                        prior,
                        DIST,
                        budget,
                        rng=RngStream(58, (k,)),
                        budget_rule="prefix",
                    ).estimate
                )
            except BudgetExhaustedError:
                pass  # the oracle is the success-conditioned mean
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) < 4 * se

    def test_truncation_gap_vanishes_with_budget(self):
        # the exact fit-conditioned run mean approaches the true value as the
        # budget grows; at the top benchmark budget the gap is sub-percent
        truth = analytic_evpi(TIE_CONFIG)

        def gap(budget, variant):
            oracle = budget_rule_mean(
                DIST,
                budget,
                lambda l: weighted_level_mean(
                    DIST, l, lambda j: level_correction_mean(TIE_CONFIG, 2, j), variant
                ),
            )
            return abs(oracle - truth)

        for variant in ("single", "coupled"):
            assert gap(2**16, variant) < gap(2**8, variant) / 8
            assert gap(2**16, variant) < 0.01 * truth

    def test_single_coordinate_reveal_matches_conditional_oracle(self):
        model, prior, factored = make_gaussian_model(TIE_CONFIG, (1,))
        budget, reps = 128, 1500

        def level_mean(l):
            y = weighted_level_mean(
                DIST, l, lambda j: level_correction_mean(TIE_CONFIG, 2, j), "coupled"
            )
            z = weighted_level_mean(
                DIST,
                l,
                lambda j: conditional_correction_mean(TIE_CONFIG, (1,), 2, j),
                "coupled",
            )
            return y - z

        oracle = budget_rule_mean(DIST, budget // 2, level_mean)
        vals = _collect(
            lambda k: evppi_mlmc(
                model,
                factored,
                prior,
                DIST,
                budget,
                rng=RngStream(63, (k,)),
                budget_rule="prefix",
            ).estimate,
            reps,
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) < 4 * se

    def test_independent_level_variant_runs(self, tie_setup):
        model, prior, factored = tie_setup
        r = evppi_mlmc(
            model,
            factored,
            prior,
            DIST,
            512,
            variant_y="single",
            variant_z="coupled",
            rng=RngStream(59),
            budget_rule="prefix",
        )
        assert r.cost_used <= 512
        assert r.n_draws >= 1

    def test_expected_rule_draw_count(self, tie_setup):
        # the default rule averages floor(budget / expected cost of one draw)
        # draws whatever levels they realize; an evppi draw pays both parts
        model, prior, factored = tie_setup
        per_draw = DIST.expected_cost()
        r = evpi_mlmc(model, prior, DIST, 512, "single", RngStream(64))
        assert r.n_draws == math.floor(512 / per_draw) == 115
        r = evppi_mlmc(model, factored, prior, DIST, 512, rng=RngStream(64))
        assert r.n_draws == math.floor(512 / (2 * per_draw)) == 57

    def test_mlmc_unbiased_at_budget_on_fast_decay_model(self, offset_setup):
        # on the offset model the level corrections die out long before the
        # budget truncation, so plain truth comparison is valid
        model, prior, factored = offset_setup
        truth_pi = analytic_evpi(OFFSET_CONFIG)
        vals = _collect(
            lambda k: evpi_mlmc(
                model, prior, DIST, 256, "coupled", RngStream(60, (k,))
            ).estimate,
            1500,
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - truth_pi) < 4 * se
        truth_pp = analytic_evppi(OFFSET_CONFIG, (1, 2))
        vals = _collect(
            lambda k: evppi_mlmc(
                model, factored, prior, DIST, 256, rng=RngStream(61, (k,))
            ).estimate,
            1500,
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - truth_pp) < 4 * se


class TestFiniteSupportOracle:
    """Unbiasedness on a model with three decisions and a hidden coordinate
    that depends on the revealed one, against exact enumerated values.

    Unlike the bitwise references, these checks do not follow the sampling
    order, so they survive a change that redraws every sample.  One run at
    2**22 under the expected rule holds about 2,000 runs' worth of 2**10
    draws; its standard error comes from the term variance.  On these
    streams, pairing conditional rows with the reversed revealed rows moves
    the evppi estimates by -14 and -17 standard errors, and a decision max
    that skips the last decision moves every estimate by at least -65; the
    clean estimates sit within 1.
    """

    BUDGET = 2**22

    @pytest.mark.parametrize("variant", ["single", "coupled"])
    def test_evpi_mlmc_unbiased(self, variant):
        model, prior, _ = finite_support_model()
        truth = finite_support_oracle()[1]
        r = evpi_mlmc(model, prior, DIST, self.BUDGET, variant, RngStream(1701))
        se = math.sqrt(r.term_variance / r.n_draws)
        assert abs(r.estimate - truth) < 4 * se

    @pytest.mark.parametrize("variant", ["single", "coupled"])
    def test_evppi_mlmc_unbiased(self, variant):
        model, prior, factored = finite_support_model()
        truth = finite_support_oracle()[0]
        r = evppi_mlmc(
            model, factored, prior, DIST, self.BUDGET, variant, variant,
            rng=RngStream(1702),
        )
        se = math.sqrt(r.term_variance / r.n_draws)
        assert abs(r.estimate - truth) < 4 * se
