import math
import tracemalloc

import numpy as np
import pytest

from voimc import (
    BudgetExhaustedError,
    FactoredSampler,
    LevelDistribution,
    PriorSampler,
    RngStream,
    analytic_evppi,
    evpi_mlmc,
    evpi_nested,
    evppi_mlmc,
    evppi_nested,
    make_gaussian_model,
    optimal_ratio,
)
from voimc.estimators import (
    _LEVEL_BYTES,
    _accumulate_best_means,
    _level_term,
    nested_allocation,
)

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
    level_correction_mean,
    plugin_mean,
    prior_term,
    single_decision_model,
    weighted_level_mean,
)

DIST = LevelDistribution(2, optimal_ratio(2, 1))


@pytest.fixture(scope="module")
def tie_setup():
    model, prior, factored = make_gaussian_model(TIE_CONFIG, (1, 2))
    return model, prior, factored


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
        conditional_fn=lambda _x1, _rng, size: samples[:size],
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
        assert _accumulate_best_means(model, fixed_prior(samples), 2, gen) == 0.0

    def test_single_decision_is_plain_mean(self):
        model = single_decision_model(dimension=1)
        samples = fixed_prior(np.array([[2.0], [4.0]]))
        assert _accumulate_best_means(model, samples, 2, RngStream(0).generator()) == 3.0

    def test_one_sample_reduces_to_best_payoff(self, tie_setup):
        model, prior, _ = tie_setup
        x = prior.draw(RngStream(14).generator(), 1)
        best = _accumulate_best_means(model, prior, 1, RngStream(14).generator())
        assert best == model.payoff_matrix(x)[0].max()

    def test_empty_rejected(self, tie_setup):
        model, prior, factored = tie_setup
        with pytest.raises(ValueError):
            evpi_nested(model, prior, outer_draws=1, baseline_draws=0, rng=RngStream(0))
        with pytest.raises(ValueError):
            evppi_nested(
                model,
                factored,
                prior,
                outer_draws=1,
                inner_draws=1,
                baseline_draws=0,
                rng=RngStream(0),
            )


class TestNestedAllocation:
    def test_reference_budget(self):
        assert nested_allocation(2**12, 1.0) == (16, 256)

    def test_tiny_budget(self):
        assert nested_allocation(4, 1.0) == (1, 2)

    def test_outer_share_grows_with_gamma(self):
        inner_lo, outer_lo = nested_allocation(4096, 1.0)
        inner_hi, outer_hi = nested_allocation(4096, 1e6)
        assert outer_hi > outer_lo
        assert inner_hi <= inner_lo
        assert outer_hi >= 4095  # w -> 1 pushes everything outside

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            nested_allocation(3, 1.0)
        with pytest.raises(ValueError):
            nested_allocation(100, 0.5)


class TestNestedEstimators:
    def test_constant_payoffs_give_exact_zero(self, tie_setup):
        _, prior, _ = tie_setup
        model = constant_model((3.0, 1.0))
        result = evpi_nested(
            model, prior, outer_draws=100, baseline_draws=37, rng=RngStream(4)
        )
        assert result.estimate == 0.0
        assert result.cost_used == 137

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
        inner, outer = nested_allocation(2**10, 1.0)
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
        single = _level_term(payoffs, dist, level, "single")
        coupled = _level_term(payoffs, dist, level, "coupled")
        assert single == pytest.approx(
            self._reference_single(payoffs, base, level, dist), rel=1e-12, abs=1e-13
        )
        assert coupled == pytest.approx(
            self._reference_coupled(payoffs, base, level, dist), rel=1e-12, abs=1e-13
        )
        # a level-l term consumes exactly base**l rows
        for variant in ("single", "coupled"):
            with pytest.raises(ValueError):
                _level_term(payoffs[1:], dist, level, variant)

    def test_conditional_terms_match_reference(self, tie_setup):
        model, prior, _ = tie_setup
        level, base = 3, 2
        revealed_value = np.array([0.7])
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
            revealed = factored.draw_marginal(gen, 1)[0]
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
            revealed = factored.draw_marginal(gen, 1)[0]
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
            revealed = factored.draw_marginal(stream.child(0).generator(), 1)[0]
            single = conditional_term(
                model, factored, revealed, 1, DIST, stream.child(1).generator(), "single"
            )
            coupled = conditional_term(
                model, factored, revealed, 1, DIST, stream.child(1).generator(), "coupled"
            )
            assert coupled == p1 * single


class TestSharedSampleAccounting:
    def test_one_bulk_draw_per_term(self, tie_setup):
        # every term of a run draws its base**level rows in one call: one
        # prior call per evpi draw, one prior and one conditional call per
        # evppi draw, whatever the level
        model, prior, factored = tie_setup
        for variant in ("single", "coupled"):
            counter = DrawCounter(prior)
            r = evpi_mlmc(model, counter.sampler(), DIST, 512, variant, RngStream(37))
            assert max(r.per_level) >= 2
            assert counter.calls == r.n_draws
            assert counter.samples == r.cost_used

            counter = DrawCounter(prior)
            hidden_calls = []

            def conditional(x1, rng, size):
                hidden_calls.append(size)
                return factored.conditional_fn(x1, rng, size)

            counted = FactoredSampler(
                factored.dimension, factored.revealed, factored.marginal_fn, conditional
            )
            r = evppi_mlmc(
                model, counted, counter.sampler(), DIST, 1024, variant, variant,
                rng=RngStream(37),
            )
            assert max(r.per_level) >= 2
            assert counter.calls == len(hidden_calls) == r.n_draws
            assert counter.samples == sum(hidden_calls) == r.cost_used // 2

    def test_estimator_consumes_exactly_reported_cost(self, tie_setup):
        model, prior, _ = tie_setup
        counter = DrawCounter(prior)
        result = evpi_mlmc(model, counter.sampler(), DIST, 256, "coupled", RngStream(38))
        assert counter.samples == result.cost_used
        assert counter.calls == result.n_draws


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
                revealed = factored.draw_marginal(draw_gen, 1)[0]
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

    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_full_reveal_equals_perfect_information_run_bitwise(
        self, tie_setup, budget_rule
    ):
        # conditional terms cancel exactly and either budget rule on a doubled
        # budget walks the identical level sequence
        model, prior, _ = tie_setup
        _, _, factored = make_gaussian_model(TIE_CONFIG, range(1, 6))
        for budget in (64, 256):
            a = evpi_mlmc(
                model, prior, DIST, budget, "coupled", RngStream(52),
                budget_rule=budget_rule,
            )
            b = evppi_mlmc(
                model, factored, prior, DIST, 2 * budget, rng=RngStream(52),
                budget_rule=budget_rule,
            )
            assert a.estimate == b.estimate
            assert a.n_draws == b.n_draws
            assert 2 * a.cost_used == b.cost_used

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

    def test_invalid_arguments(self, tie_setup):
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

    def test_oversized_draw_refused_before_sampling(self, tie_setup):
        model, _, factored = tie_setup

        def never(_rng, _size):
            pytest.fail("sampled a draw above the per-draw memory bound")

        prior = PriorSampler(dimension=5, draw_fn=never)
        # every level costs at least 2**26 samples: 2**26 * 5 * 8 bytes > 2**30
        huge = LevelDistribution(2**26, 2.0**-27)
        with pytest.raises(MemoryError, match="per-draw bound"):
            evpi_mlmc(model, prior, huge, 2**28, "single", RngStream(0))
        with pytest.raises(MemoryError, match="per-draw bound"):
            evppi_mlmc(model, factored, prior, huge, 2**29, rng=RngStream(0))

    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_oversized_level_sequence_refused_before_drawing(
        self, tie_setup, budget_rule
    ):
        # a budget of 2**40 asks for more than 2**25 levels under either
        # rule, _LEVEL_BYTES each, so the run is refused before any level or
        # sample is drawn
        model, _, factored = tie_setup

        def never(_rng, _size):
            pytest.fail("sampled a run above the level-sequence memory bound")

        prior = PriorSampler(dimension=5, draw_fn=never)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="level-sequence bound"):
                evpi_mlmc(
                    model, prior, DIST, 2**40, "single", RngStream(0),
                    budget_rule=budget_rule,
                )
            with pytest.raises(MemoryError, match="level-sequence bound"):
                evppi_mlmc(
                    model, factored, prior, DIST, 2**40, rng=RngStream(0),
                    budget_rule=budget_rule,
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("budget_rule", ["expected", "prefix"])
    def test_level_sequence_peak_within_priced_bytes(self, tie_setup, budget_rule):
        # the bound prices a level at _LEVEL_BYTES: building a sequence of
        # about 2**18 levels must peak within that price plus fixed overhead
        model, _, _ = tie_setup

        class Sampled(Exception):
            pass

        def stop(_rng, _size):
            raise Sampled

        prior = PriorSampler(dimension=5, draw_fn=stop)
        levels = 2**18  # the level count the bound checks, under either rule
        if budget_rule == "expected":
            budget = math.ceil(levels * DIST.expected_cost())
        else:
            budget = levels * DIST.base
        tracemalloc.start()
        try:
            with pytest.raises(Sampled):
                evpi_mlmc(
                    model, prior, DIST, budget, "single", RngStream(0),
                    budget_rule=budget_rule,
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= levels * _LEVEL_BYTES + 2**16

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

