import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voimc import LevelDistribution, RngStream, draws_for_budget, optimal_ratio
from voimc.levels import prefix_level_counts

from support import budget_rule_mean, draws_for_budget_loop

BENCH_RATIO = 2 ** (-3 / 2)


class TestLevelDistribution:
    def test_pmf_values(self):
        dist = LevelDistribution(2, 0.25)
        assert dist.pmf(1) == 0.75
        assert dist.pmf(3) == pytest.approx(0.75 * 0.25**2, rel=1e-15)
        assert LevelDistribution(2, BENCH_RATIO).pmf(1) == pytest.approx(
            1 - 2 ** (-3 / 2), abs=1e-15
        )

    def test_partial_sums_converge_geometrically(self):
        dist = LevelDistribution(2, 0.25)
        total = sum(dist.pmf(l) for l in range(1, 21))
        assert total == pytest.approx(1 - 0.25**20, rel=1e-14)

    def test_tail_closed_form_matches_summed_pmf(self):
        dist = LevelDistribution(2, BENCH_RATIO)
        assert dist.tail(1) == 1.0
        assert dist.tail(2) == pytest.approx(BENCH_RATIO, abs=1e-16)
        for j in (1, 2, 5):
            summed = sum(dist.pmf(l) for l in range(j, 61))
            assert dist.tail(j) == pytest.approx(summed, rel=1e-12)

    def test_tail_recurrence_exact_for_dyadic_ratio(self):
        # with a power-of-two ratio every quantity is exactly representable
        dist = LevelDistribution(2, 0.25)
        for j in range(1, 20):
            assert dist.tail(j) - dist.pmf(j) == dist.tail(j + 1)

    @given(ratio=st.floats(0.01, 0.49), j=st.integers(1, 12))
    @settings(deadline=None, max_examples=60)
    def test_tail_recurrence_general(self, ratio, j):
        dist = LevelDistribution(2, ratio)
        assert dist.tail(j) - dist.pmf(j) == pytest.approx(
            dist.tail(j + 1), rel=1e-12, abs=1e-300
        )

    def test_pmf_positive_everywhere(self):
        dist = LevelDistribution(3, 0.2)
        assert all(dist.pmf(l) > 0 for l in range(1, 200))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LevelDistribution(1, 0.25)
        with pytest.raises(ValueError):
            LevelDistribution(2, 0.0)
        with pytest.raises(ValueError):
            LevelDistribution(2, 1.0)
        # finite expected cost requires ratio < 1/base
        with pytest.raises(ValueError):
            LevelDistribution(2, 0.5)
        with pytest.raises(ValueError):
            LevelDistribution(3, 0.4)
        # a float base is refused even when integral: the level fold needs an int
        with pytest.raises(ValueError, match="base"):
            LevelDistribution(2.0, 0.3)
        # so is a fractional base in the ratio rule
        with pytest.raises(ValueError, match="base must be an integer >= 2"):
            optimal_ratio(2.5, 1)
        assert optimal_ratio(np.int64(2), 1) == optimal_ratio(2, 1)

    @pytest.mark.parametrize("ratio", ["0.3", None, 0.3j, [0.3]], ids=repr)
    def test_non_number_ratio_refused(self, ratio):
        with pytest.raises(ValueError, match="ratio must be a number"):
            LevelDistribution(2, ratio)

    def test_level_arguments_validated(self):
        dist = LevelDistribution(2, 0.25)
        for method in (dist.pmf, dist.tail, dist.cost):
            for level in (0, 2.5, True):
                with pytest.raises(ValueError, match="level must be a positive"):
                    method(level)
            assert method(np.int64(3)) == method(3)
        # a draw count is checked before the generator is touched: a
        # fractional one would leave a remainder no binomial draw empties
        for n in (-1, 2.5, True):
            with pytest.raises(ValueError, match="n must be a non-negative integer"):
                dist.level_counts(object(), n)
        assert dist.level_counts(RngStream(1).generator(), np.int64(4)).sum() == 4

    def test_draw_count_beyond_binomial_refused(self):
        # numpy's binomial takes a C long: 2**63 draws are refused by name
        # before the generator is touched, and one fewer are all placed
        dist = LevelDistribution(2, 0.25)
        with pytest.raises(ValueError, match=rf"n must be below 2\*\*63.*got {2**63}"):
            dist.level_counts(object(), 2**63)
        counts = dist.level_counts(RngStream(1).generator(), 2**63 - 1)
        assert sum(map(int, counts)) == 2**63 - 1

    def test_expected_cost_closed_form(self):
        dist = LevelDistribution(2, BENCH_RATIO)
        assert dist.expected_cost() == pytest.approx(
            (1 - BENCH_RATIO) * 2 / (1 - BENCH_RATIO * 2)
        )

    def test_cost_is_exact_integer_power(self):
        dist = LevelDistribution(3, 0.1)
        assert dist.cost(4) == 81
        assert isinstance(dist.cost(40), int)  # no int64 overflow


class _FixedUniforms:
    """Generator stand-in whose ``random(size)`` returns a fixed value."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def _inverse_cdf(dist, u: float) -> int:
    """ceil(log(1-u)/log r), floored at 1, one uniform at a time."""
    return max(1, math.ceil(math.log1p(-u) / math.log(dist.ratio)))


class TestLevelSampling:
    def test_inversion_boundary(self):
        dist = LevelDistribution(2, BENCH_RATIO)
        assert dist.sample_levels(_FixedUniforms(0.0), 1).tolist() == [1]

    @given(u=st.floats(0.0, 1.0, exclude_max=True))
    @settings(deadline=None, max_examples=100)
    def test_inversion_formula(self, u):
        dist = LevelDistribution(2, 0.45)
        (level,) = dist.sample_levels(_FixedUniforms(u), 1).tolist()
        assert level >= 1
        assert level == _inverse_cdf(dist, u)

    def test_vectorized_matches_scalar(self):
        dist = LevelDistribution(2, BENCH_RATIO)
        many = dist.sample_levels(RngStream(19).generator(), 500)
        u = RngStream(19).generator().random(500)
        assert np.array_equal(many, [_inverse_cdf(dist, float(x)) for x in u])

    def test_empirical_frequencies_match_pmf(self):
        # ratio 0.45 keeps deep levels common enough to check l <= 10
        dist = LevelDistribution(2, 0.45)
        n = 1_000_000
        levels = dist.sample_levels(RngStream(101).generator(), n)
        for l in range(1, 11):
            p = dist.pmf(l)
            freq = float(np.mean(levels == l))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 4 * se

    def test_benchmark_ratio_first_level_mass(self):
        dist = LevelDistribution(2, BENCH_RATIO)
        levels = dist.sample_levels(RngStream(55).generator(), 200_000)
        assert float(np.mean(levels == 1)) == pytest.approx(0.6464, abs=0.004)


class TestLevelCounts:
    @pytest.mark.parametrize("n", [0, 1, 64, 10_000])
    def test_counts_sum_to_n(self, n):
        dist = LevelDistribution(2, BENCH_RATIO)
        counts = dist.level_counts(RngStream(20, (n,)).generator(), n)
        assert counts[0] == 0
        assert int(counts.sum()) == n
        if n:
            assert counts[-1] > 0  # ends at the deepest level drawn

    def test_mean_counts_match_pmf(self):
        # each level's count among n i.i.d. levels is Binomial(n, pmf(l))
        dist = LevelDistribution(2, BENCH_RATIO)
        n, calls = 64, 4000
        gen = RngStream(21).generator()
        totals = np.zeros(6)
        for _ in range(calls):
            counts = dist.level_counts(gen, n)[:6]
            totals[: counts.shape[0]] += counts
        for l in range(1, 6):
            p = dist.pmf(l)
            se = math.sqrt(n * p * (1 - p) / calls)
            assert abs(totals[l] / calls - n * p) < 4 * se, l


class TestOptimalRatio:
    def test_reference_case_exact(self):
        assert optimal_ratio(2, 1) == 2 ** (-3 / 2)

    def test_direct_formula_cases(self):
        assert optimal_ratio(2, 0.75) == pytest.approx(2 ** (-5 / 4), rel=1e-15)
        assert optimal_ratio(4, 1) == pytest.approx(0.125, rel=1e-15)

    @pytest.mark.parametrize("base", [2, 3, 4])
    @pytest.mark.parametrize("decay", [0.6, 0.75, 1.0, 2.0])
    def test_result_sits_in_admissible_window(self, base, decay):
        r = optimal_ratio(base, decay)
        assert base ** (-2.0 * decay) < r < base ** (-1.0)

    def test_decay_at_or_below_half_rejected(self):
        with pytest.raises(ValueError):
            optimal_ratio(2, 0.5)
        with pytest.raises(ValueError):
            optimal_ratio(2, 0.2)

    @pytest.mark.parametrize("decay", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_decay_rejected(self, decay):
        # NaN would give a nan ratio and +inf a 0.0 one, which the level law
        # refuses only as a ratio; the decay itself is refused, by name
        with pytest.raises(ValueError, match=f"decay must be finite .*got {decay!r}"):
            optimal_ratio(2, decay)


class _Uniforms:
    """Stands in for a generator: uniforms that are 0.0 (level 1) except at
    the positions ``values`` sets, counted across calls."""

    def __init__(self, values: dict[int, float]):
        self.values = values
        self.drawn = 0

    def random(self, size):
        u = np.zeros(size)
        for pos, value in self.values.items():
            if self.drawn <= pos < self.drawn + size:
                u[pos - self.drawn] = value
        self.drawn += size
        return u


class TestDrawsForBudget:
    def test_budget_boundary_inclusive(self):
        # ratio so small every level is 1; each draw costs exactly base
        dist = LevelDistribution(2, 1e-9)
        levels, n = draws_for_budget(dist, 2, RngStream(1).generator())
        assert n == 1 and levels == [1]

    def test_degenerate_distribution_count(self):
        dist = LevelDistribution(2, 1e-9)
        levels, n = draws_for_budget(dist, 10, RngStream(2).generator())
        assert n == 5 and levels == [1] * 5

    def test_total_cost_within_budget_and_prefix_maximal(self):
        dist = LevelDistribution(2, 2 ** (-3 / 2))
        budget = 2**10
        for seed in range(200):
            stream = RngStream(400 + seed)
            levels, n = draws_for_budget(dist, budget, stream.generator())
            total = sum(dist.cost(l) for l in levels)
            assert total <= budget
            # regenerate the identical stream to recover the discarded draw
            replay = dist.sample_levels(stream.generator(), n + 1)
            assert list(replay[:n]) == levels
            assert total + dist.cost(int(replay[n])) > budget

    def test_zero_draws_when_first_level_too_deep(self):
        dist = LevelDistribution(2, 0.49)
        hits = 0
        for seed in range(200):
            levels, n = draws_for_budget(dist, 2, RngStream(seed).generator())
            if n == 0:
                assert levels == []
                hits += 1
        assert hits > 50  # P(level >= 2) = 0.49

    def test_budget_rule_average_matches_conditional_oracle(self):
        # The run average of g(level) under the prefix rule equals the mean of
        # g conditioned on the level fitting the budget -- not the plain mean
        # of g.  Checked here against an arbitrary g by direct simulation.
        dist = LevelDistribution(2, BENCH_RATIO)
        budget = 12  # only levels 1..3 fit
        g = {1: 1.0, 2: 10.0, 3: -4.0}
        gv = np.array([0.0, 1.0, 10.0, -4.0] + [0.0] * 60)
        oracle = budget_rule_mean(dist, budget, lambda l: g[l])

        gen = RngStream(321).generator()
        reps = 400_000
        vals = []
        for _ in range(8):
            u = gen.random((reps // 8, 16))
            levels = np.maximum(
                np.ceil(np.log1p(-u) / math.log(dist.ratio)), 1
            ).astype(np.int64)
            costs = 2.0**levels
            fits = np.cumsum(costs, axis=1) <= budget
            n = fits.sum(axis=1)
            ok = n >= 1
            picked = gv[np.minimum(levels, 63)]
            vals.append((picked * fits).sum(axis=1)[ok] / n[ok])
        sim = np.concatenate(vals)
        se = sim.std(ddof=1) / math.sqrt(len(sim))
        assert abs(sim.mean() - oracle) < 4 * se
        # and the oracle genuinely differs from the unconditioned mean
        plain = sum(dist.pmf(l) * g[l] for l in g)
        assert abs(oracle - plain) > 20 * se

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.integers(2, 4),
        share=st.floats(0.01, 0.999),
        budget=st.integers(1, 2**16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_level_loop(self, base, share, budget, seed):
        # ratio up to just below 1/base, where deep levels that cost more
        # than the whole budget are common
        dist = LevelDistribution(base, share / base)
        levels, n = draws_for_budget(dist, budget, RngStream(seed).generator())
        loop_levels, loop_n = draws_for_budget_loop(
            dist, budget, RngStream(seed).generator()
        )
        assert (levels, n) == (loop_levels, loop_n)
        assert all(type(level) is int for level in levels)
        # the counts by level walk the same prefix
        counts = prefix_level_counts(dist, budget, RngStream(seed).generator())
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(np.array(loop_levels, dtype=np.int64)))

    @pytest.mark.parametrize("budget", [2**30, 2**60])
    @pytest.mark.parametrize("at", [5, 300])
    def test_level_costlier_than_int64_ends_prefix(self, budget, at):
        # level 3 of base 2**25 costs 2**75: it must end the prefix exactly as
        # in the loop, below and above a budget of 2**54
        dist = LevelDistribution(2**25, 2**-26)
        deep = 1.0 - 2.0**-53
        assert dist.sample_levels(_Uniforms({0: deep}), 1).tolist() == [3]
        got = draws_for_budget(dist, budget, _Uniforms({at: deep}))
        assert got == draws_for_budget_loop(dist, budget, _Uniforms({at: deep}))
        assert got == ([1] * min(at, budget // 2**25), min(at, budget // 2**25))

    def test_bad_budget_rejected(self):
        dist = LevelDistribution(2, 0.25)
        with pytest.raises(ValueError):
            draws_for_budget(dist, 0, RngStream(0).generator())


class TestPrefixLevelCounts:
    def test_prefix_mean_cost_per_draw_matches_conditional_mean(self):
        # A run's mean cost per draw is unbiased for the cost conditioned on
        # fitting the budget (4.3797 here), not for the unconditioned
        # (1-r)b/(1-rb) = 4.4142.  It is heavy-tailed: batch means sit near
        # 4.363, below their mean.  300 runs is the smallest multiple of 50
        # whose batches failed 0 of 300 disjoint seed sets on Philox streams,
        # which bounds the false-alarm rate below 1% (60 runs failed 51).
        dist = LevelDistribution(2, BENCH_RATIO)
        target = budget_rule_mean(dist, 2**14, dist.cost)
        assert target == pytest.approx(4.3797, abs=1e-4)
        costs = np.array([0] + [dist.cost(l) for l in range(1, 15)])
        ratios = []
        for seed in range(300):
            counts = prefix_level_counts(dist, 2**14, RngStream(900 + seed).generator())
            ratios.append(counts @ costs[: len(counts)] / counts.sum())
        assert np.mean(ratios) == pytest.approx(target, rel=0.02)
