"""Estimators for the expected value of perfect and partial perfect information.

The information value of a decision problem is the gap between the expected
best payoff achievable with extra knowledge and the best expected payoff
without it.  Estimating the "without" side from finite samples pushes a sample
average through a max, which is systematically optimistic (Jensen), so the
plain nested estimators here are biased at any finite inner sample size.  The
randomized multilevel estimators remove that plug-in limit by telescoping it
across sample sizes base**0, base**1, ...: a level-l correction compares
best-decision block means at block sizes base**(l-1) and base**l over one
shared batch of base**l samples, and correction levels are drawn at random
with compensating probability weights, so each draw is an unbiased reading of
the whole telescope.

Numerical layout: every block mean is produced by ``_fold_blocks``, a
fixed-grouping sequential fold, and the same fold also averages the
best-of-block values across blocks.  Because inner and outer averages share
one reduction tree, models with a single decision or with constant payoffs
cancel to exactly 0.0, the unweighted bracket of a level correction is
non-negative for every realization (not merely in expectation), and the
level-1 single/coupled coupling identity holds to the bit.  Tests rely on all
three properties.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .levels import BudgetExhaustedError, LevelDistribution, draws_for_budget
from .model import DecisionModel, FactoredSampler, PriorSampler
from .rng import RngStream

__all__ = [
    "LevelStats",
    "EstimateResult",
    "nested_allocation",
    "evpi_nested",
    "evppi_nested",
    "evpi_mlmc",
    "evppi_mlmc",
]

_VARIANTS = ("single", "coupled")
_BUDGET_RULES = ("expected", "prefix")

# Largest block one multilevel run may allocate at once: the samples of one
# draw (base**level rows of the full parameter vector in float64) or its level
# sequence.  Levels are uncapped under the expected-cost budget rule and the
# level count grows with the budget, so either is refused before it is drawn
# instead of exhausting memory.
_MAX_DRAW_BYTES = 2**30

# Peak bytes per level while a run builds its level sequence.  The expected
# rule keeps the float64 uniforms, the ceil result and the int64 cast alive
# together with the Python list they become (32.0 measured with tracemalloc);
# the prefix rule peaks lower.
_LEVEL_BYTES = 32

# Largest sample batch the nested estimators draw and evaluate at once.
_NESTED_CHUNK = 65536


# ---------------------------------------------------------------------------
# results and running statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelStats:
    """Count, mean and raw second moment of realized terms at one level."""

    count: int
    mean: float
    second_moment: float


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one estimator run.

    ``estimate`` is the arithmetic mean of the ``n_draws`` per-draw terms,
    ``cost_used`` the total payoff evaluations consumed, ``term_variance`` the
    sample variance of the per-draw terms (nan when n_draws < 2), and
    ``per_level`` maps each realized level to statistics of its terms.

    For the multilevel estimators ``cost_used`` is the run's realized cost.
    Under the prefix budget rule it never exceeds the budget; under the
    default expected-cost rule only its expectation is bounded by the budget,
    and a run that draws a deep level can cost many times more.
    """

    estimate: float
    n_draws: int
    cost_used: int
    term_variance: float
    per_level: dict[int, LevelStats] = field(default_factory=dict)


class _RunningMoments:
    """Numerically stable one-pass accumulator (Welford / Chan merging)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    def add_many(self, values: np.ndarray) -> None:
        k = int(values.shape[0])
        if k == 0:
            return
        batch_mean = float(np.mean(values))
        batch_m2 = float(np.sum((values - batch_mean) ** 2))
        total = self.count + k
        delta = batch_mean - self.mean
        self.mean += delta * k / total
        self._m2 += batch_m2 + delta * delta * self.count * k / total
        self.count = total

    @property
    def sample_variance(self) -> float:
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def second_moment(self) -> float:
        if self.count == 0:
            return float("nan")
        return self._m2 / self.count + self.mean * self.mean


def _freeze_levels(acc: dict[int, _RunningMoments]) -> dict[int, LevelStats]:
    return {
        lvl: LevelStats(m.count, m.mean, m.second_moment)
        for lvl, m in sorted(acc.items())
    }


# ---------------------------------------------------------------------------
# block reductions
# ---------------------------------------------------------------------------


def _fold_blocks(values: np.ndarray, width: int) -> np.ndarray:
    """Mean of consecutive length-``width`` groups along axis 0.

    Summation is explicit and left-to-right so the grouping is identical
    whether ``values`` is 1-D or has trailing axes; the exactness guarantees
    in the module docstring depend on that.
    """
    grouped = values.reshape(-1, width, *values.shape[1:])
    acc = grouped[:, 0].astype(np.float64, copy=True)
    for i in range(1, width):
        acc += grouped[:, i]
    acc /= width
    return acc


def _tree_mean(values: np.ndarray, width: int) -> float:
    """Arithmetic mean of a length-width**k vector via repeated folds."""
    while values.shape[0] > 1:
        values = _fold_blocks(values, width)
    return float(values[0])


def _level_brackets(payoffs: np.ndarray, base: int, level: int) -> list[float]:
    """Unweighted correction brackets at scales 1..level from one payoff batch.

    Element j-1 is the average over blocks of the best-decision block mean at
    block size base**(j-1), minus the same at block size base**j, all from the
    identical base**level rows of ``payoffs``.  Each element is >= 0 for every
    realization, because averaging best values over sub-blocks can only beat
    taking the best of the pooled averages.
    """
    if payoffs.shape[0] != base**level:
        raise ValueError(
            f"expected {base**level} payoff rows for level {level}, "
            f"got {payoffs.shape[0]}"
        )
    block_means = payoffs
    tree = [_tree_mean(block_means.max(axis=1), base)]
    for _ in range(level):
        block_means = _fold_blocks(block_means, base)
        tree.append(_tree_mean(block_means.max(axis=1), base))
    return [tree[j - 1] - tree[j] for j in range(1, level + 1)]


def _level_term(
    payoffs: np.ndarray, dist: LevelDistribution, level: int, variant: str
) -> float:
    """One probability-weighted level correction from base**level payoff rows.

    The single term divides the scale-``level`` bracket by pmf(level); the
    coupled sum adds the brackets at every scale j <= level, each divided by
    the tail mass of the level law at j.
    """
    brackets = _level_brackets(payoffs, dist.base, level)
    if variant == "single":
        return brackets[-1] / dist.pmf(level)
    if variant == "coupled":
        # 1/tail(j) applied as (1/pmf(j)) * pmf(1), which is exact for the
        # geometric law and makes the level-1 coupled term bitwise equal to
        # pmf(1) times the single term on shared samples.
        head = dist.pmf(1)
        return sum((b / dist.pmf(j)) * head for j, b in enumerate(brackets, start=1))
    raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


# ---------------------------------------------------------------------------
# nested estimators
# ---------------------------------------------------------------------------


def nested_allocation(budget: int, gamma: float = 1.0) -> tuple[int, int]:
    """Split a budget of inner*outer evaluations for the nested estimator.

    With the inner bias decaying like inner**-gamma, the error-optimal split
    puts outer = budget**w and inner = budget**(1-w) with w = 2*gamma/(1+2*gamma)
    (more samples outside, fewer inside).  Returns (inner, outer), each
    floored at 1.  Requires gamma > 1/2.
    """
    if budget < 4:
        raise ValueError("budget must be at least 4")
    if gamma <= 0.5:
        raise ValueError("gamma must exceed 1/2 for the allocation heuristic")
    w = 2.0 * gamma / (1.0 + 2.0 * gamma)
    return max(1, _floor_power(budget, 1.0 - w)), max(1, _floor_power(budget, w))


def _floor_power(budget: int, exponent: float) -> int:
    # floor(budget**exponent) with a relative nudge so exact integer powers
    # (e.g. 4096**(2/3) = 256) survive floating-point rounding.
    x = float(budget) ** exponent
    return int(np.floor(x * (1.0 + 1e-12) + 1e-12))


def _payoff_chunks(
    model: DecisionModel,
    prior: PriorSampler,
    draws: int,
    gen: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Payoffs of ``draws`` prior samples from ``gen``, in batches of at most
    ``_NESTED_CHUNK`` rows."""
    for start in range(0, draws, _NESTED_CHUNK):
        yield model.payoff_matrix(prior.draw(gen, min(_NESTED_CHUNK, draws - start)))


def _accumulate_best_means(
    model: DecisionModel,
    prior: PriorSampler,
    draws: int,
    rng: np.random.Generator,
) -> float:
    """max_d of the per-decision mean over ``draws`` prior samples, chunked.

    The max of means, not the mean of maxes: it converges from above (in
    expectation) to the best expected payoff.
    """
    sums = np.zeros(model.n_decisions, dtype=np.float64)
    for payoffs in _payoff_chunks(model, prior, draws, rng):
        sums += payoffs.sum(axis=0)
        del payoffs  # free this chunk before the next one is drawn
    return float((sums / draws).max())


def evpi_nested(
    model: DecisionModel,
    prior: PriorSampler,
    *,
    outer_draws: int,
    baseline_draws: int,
    rng: RngStream,
) -> EstimateResult:
    """Plain two-sample estimator of the value of perfect information.

    Averages the per-sample best payoff over ``outer_draws`` prior samples and
    subtracts the best per-decision mean over an independent batch of
    ``baseline_draws``.  The first term is unbiased; the subtracted term
    over-estimates its target at any finite size, so the whole estimator is
    biased low.  Cost: outer_draws + baseline_draws.
    """
    if outer_draws < 1 or baseline_draws < 1:
        raise ValueError("outer_draws and baseline_draws must be >= 1")
    moments = _RunningMoments()
    for payoffs in _payoff_chunks(model, prior, outer_draws, rng.child(0).generator()):
        moments.add_many(payoffs.max(axis=1))
    baseline = _accumulate_best_means(
        model, prior, baseline_draws, rng.child(1).generator()
    )
    return EstimateResult(
        estimate=float(moments.mean - baseline),
        n_draws=outer_draws,
        cost_used=outer_draws + baseline_draws,
        term_variance=moments.sample_variance,
    )


def evppi_nested(
    model: DecisionModel,
    factored: FactoredSampler,
    prior: PriorSampler,
    *,
    outer_draws: int,
    inner_draws: int,
    baseline_draws: int,
    rng: RngStream,
) -> EstimateResult:
    """Nested estimator of the value of revealing the factored-out block.

    For each of ``outer_draws`` revealed-block samples, takes the best
    decision of an ``inner_draws``-sample conditional mean, averages those
    bests, and subtracts the baseline term of `evpi_nested`.  Both terms carry
    finite-sample Jensen bias.  Cost: outer_draws*inner_draws + baseline_draws.
    """
    if outer_draws < 1 or inner_draws < 1 or baseline_draws < 1:
        raise ValueError("all draw counts must be >= 1")
    revealed = factored.draw_marginal(rng.child(0).generator(), outer_draws)
    moments = _RunningMoments()
    for i in range(1, outer_draws + 1):
        gen = rng.child(2, i).generator()
        hidden = factored.draw_conditional(revealed[i - 1], gen, inner_draws)
        payoffs = model.payoff_matrix(factored.combine(revealed[i - 1], hidden))
        moments.add(float(payoffs.mean(axis=0).max()))
    baseline = _accumulate_best_means(
        model, prior, baseline_draws, rng.child(1).generator()
    )
    return EstimateResult(
        estimate=float(moments.mean - baseline),
        n_draws=outer_draws,
        cost_used=outer_draws * inner_draws + baseline_draws,
        term_variance=moments.sample_variance,
    )


# ---------------------------------------------------------------------------
# randomized multilevel estimators
# ---------------------------------------------------------------------------
#
# Stream layout shared by both estimators (rng is the run's root stream):
#   child(0)   level sequence, generated serially before any draws
#   child(i)   all samples of draw i (i = 1..n): prior samples first, then,
#              for the partial-information estimator only, the revealed block
#              and its conditional samples
# The perfect-information part of `evppi_mlmc` consumes the prefix of each
# draw stream exactly as `evpi_mlmc` would, which keeps the two estimators
# bit-identical on models whose conditional part is degenerate.


def _check_variant(name: str, variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"{name} must be one of {_VARIANTS}, got {variant!r}")


def _run(
    dist: LevelDistribution,
    budget: int,
    budget_rule: str,
    parts: int,
    dimension: int,
    rng: RngStream,
    term: Callable[[np.random.Generator, int, int], float],
) -> EstimateResult:
    """One multilevel run in which every draw pays ``parts`` level costs.

    ``term(gen, level, cost)`` is the correction of one draw, computed from
    the draw's own generator and ``cost`` = base**level rows per part.
    ``budget_rule`` spends ``budget`` as described in `evpi_mlmc`.
    """
    level_rng = rng.child(0).generator()
    if budget_rule == "expected":
        draw_cost = parts * dist.expected_cost()
        max_levels = math.floor(budget / draw_cost)
        if max_levels == 0:
            raise ValueError(
                f"budget {budget} is below the expected cost of one draw "
                f"({draw_cost:.6g}); the expected budget rule needs a budget of "
                f"at least {math.ceil(draw_cost)}"
            )
    elif budget_rule == "prefix":
        if budget < parts * dist.cost(1):
            raise ValueError(
                f"budget must be at least {parts * dist.cost(1)}, the cost of one "
                "level-1 draw"
            )
        # every level costs at least base per part
        max_levels = budget // (parts * dist.base)
    else:
        raise ValueError(
            f"budget_rule must be one of {_BUDGET_RULES}, got {budget_rule!r}"
        )
    if max_levels * _LEVEL_BYTES > _MAX_DRAW_BYTES:
        raise MemoryError(
            f"budget {budget} allows up to {max_levels} levels "
            f"({max_levels * _LEVEL_BYTES} bytes), above the level-sequence bound of "
            f"{_MAX_DRAW_BYTES} bytes; no levels were drawn"
        )
    if budget_rule == "expected":
        levels = dist.sample_levels(level_rng, max_levels).tolist()
    else:
        # a draw costs parts*base**l, so the prefix rule over budget reduces to
        # the plain rule over budget // parts
        levels, _ = draws_for_budget(dist, budget // parts, level_rng)
        if not levels:
            raise BudgetExhaustedError(
                f"first drawn level does not fit within budget {budget}"
            )
    deepest = max(levels)
    needed = dist.cost(deepest) * dimension * 8
    if needed > _MAX_DRAW_BYTES:
        raise MemoryError(
            f"a level-{deepest} draw needs {dist.base}**{deepest} samples of "
            f"{dimension} coordinates ({needed} bytes), above the per-draw "
            f"bound of {_MAX_DRAW_BYTES} bytes; no samples were drawn"
        )
    moments = _RunningMoments()
    per_level: dict[int, _RunningMoments] = {}
    cost_used = 0
    for i, level in enumerate(levels, start=1):
        cost = dist.cost(level)
        value = term(rng.child(i).generator(), level, cost)
        moments.add(value)
        per_level.setdefault(level, _RunningMoments()).add(value)
        cost_used += parts * cost
    return EstimateResult(
        estimate=float(moments.mean),
        n_draws=len(levels),
        cost_used=cost_used,
        term_variance=moments.sample_variance,
        per_level=_freeze_levels(per_level),
    )


def evpi_mlmc(
    model: DecisionModel,
    prior: PriorSampler,
    dist: LevelDistribution,
    budget: int,
    variant: str,
    rng: RngStream,
    *,
    budget_rule: str = "expected",
) -> EstimateResult:
    """Randomized multilevel estimator of the perfect-information value.

    Draws i.i.d. levels, evaluates one correction term per level, and
    averages.  ``budget_rule`` sets how ``budget`` fixes the draw count:

    * ``"expected"`` (default): floor(budget / ``dist.expected_cost()``)
      draws with uncapped levels.  A fixed number of unbiased terms averages
      to an unbiased estimate (the fixed-replicate form of Rhee and Glynn,
      Operations Research 63(5), 2015); ``budget`` is the expected cost of
      the run and the realized ``cost_used`` may exceed it.  Raises
      ValueError, naming the minimum, when the budget is below one draw's
      expected cost.
    * ``"prefix"``: draws levels until their cumulative cost base**l would
      exceed ``budget``, so ``cost_used <= budget``, but the run is
      conditioned on its levels fitting and the mean estimates the telescope
      truncated at base**l <= budget.  Raises BudgetExhaustedError when even
      the first level does not fit (re-drawing it would tilt the level law).
      `run_plan` and the CLI use this rule.

    Raises MemoryError before drawing any level when the level sequence could
    need more than 2**30 bytes (32 bytes per level), and before sampling when
    one draw would need more than 2**30 bytes of samples
    (base**level * dimension * 8).
    """
    _check_variant("variant", variant)

    def term(gen: np.random.Generator, level: int, cost: int) -> float:
        payoffs = model.payoff_matrix(prior.draw(gen, cost))
        return _level_term(payoffs, dist, level, variant)

    return _run(dist, budget, budget_rule, 1, model.dimension, rng, term)


def evppi_mlmc(
    model: DecisionModel,
    factored: FactoredSampler,
    prior: PriorSampler,
    dist: LevelDistribution,
    budget: int,
    variant_y: str = "coupled",
    variant_z: str = "coupled",
    *,
    rng: RngStream,
    budget_rule: str = "expected",
) -> EstimateResult:
    """Randomized multilevel estimator of the revealed-block information value.

    Each draw combines a perfect-information correction term (from fresh prior
    samples) minus a conditional correction term (from a fresh revealed-block
    sample and conditional samples); the difference targets the revealed-block
    value directly.  One random level serves both parts of a draw, so a draw
    pays twice that level's evaluations.  ``budget_rule`` spends ``budget``
    as in `evpi_mlmc` applied to that per-draw cost, with the same errors; the
    expected rule runs floor(budget / (2 * ``dist.expected_cost()``)) draws.

    ``per_level`` in the result is keyed by the draw's level.
    """
    _check_variant("variant_y", variant_y)
    _check_variant("variant_z", variant_z)

    def term(gen: np.random.Generator, level: int, cost: int) -> float:
        payoffs = model.payoff_matrix(prior.draw(gen, cost))
        value_y = _level_term(payoffs, dist, level, variant_y)
        revealed_values = factored.draw_marginal(gen, 1)[0]
        hidden = factored.draw_conditional(revealed_values, gen, cost)
        payoffs = model.payoff_matrix(factored.combine(revealed_values, hidden))
        return value_y - _level_term(payoffs, dist, level, variant_z)

    return _run(dist, budget, budget_rule, 2, model.dimension, rng, term)
