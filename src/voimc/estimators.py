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

Numerical layout: `_terms` copies its chunk decision-major, (decisions,
draws, rows), so every block mean is produced by ``_fold_blocks``, a
fixed-grouping sequential fold along the contiguous last axis, and each
term is built from gaps whose two sides fold the same sub-blocks in the
same order.  So models with a single decision or with constant payoffs give
gaps of exactly 0.0, every gap is >= 0 entry by entry (and folds and sums
of non-negative values stay so), and the level-1 single and coupled terms
scale the same gap, so their coupling identity holds to the bit.  Tests rely
on all three properties.  A multilevel run needs only how many draws land on
each level; the draws are sampled level after level from one stream per
kind of sample and evaluated in chunks of at most ``_BATCH_ROWS`` rows
(`_chunks`, as for the nested estimators), stacked into one payoff call and
one `_terms` fold per part and chunk.  The fold reduces each draw on its
own, so every term has the bits it would have alone, whatever the chunk
size or the payoffs' memory layout.  The nested estimators reduce by
``_fold_sum``, a left-to-right running sum: the baseline over its rows,
chunk by chunk into running totals, and the outer term over each draw's
inner rows.  So their bits do not depend on the payoff array's memory layout
(C or Fortran order, a strided view) or on its number of decisions.  The
running totals and moments, merged chunk by chunk, depend on the chunk size
to rounding.

The best decision is taken by ``_best``, one ``np.maximum`` per decision
along the leading axis, in `_terms` and in the outer term of the nested
estimators, which hands it its (draws, decisions) means transposed.  A max
of finite values returns one of its operands unchanged, so it rounds
nothing and its value does not depend on the order of comparison; only a
tie between 0.0 and -0.0 can pick either zero.  ``_best`` then returns the
later decision's zero.  numpy's own reduction over the decision axis (numpy
2.4.6) returns the same bits for up to 8 decisions, but from 9 on its
vector loop may return the other zero.  The two zeros compare equal, so the
estimates agree in value either way.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .levels import BudgetExhaustedError, LevelDistribution, prefix_level_counts
from .model import DecisionModel, FactoredSampler, PriorSampler
from .rng import RngStream
from .validate import _check_choice, _check_int

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

# Largest block of samples one draw may allocate: base**level rows of the full
# parameter vector in float64 for a multilevel draw, inner rows for a nested
# one.  Levels are uncapped under the expected-cost rule, so a larger draw is
# refused before it is sampled.
_MAX_DRAW_BYTES = 2**30

# Most payoff rows per part that one chunk stacks into a payoff call, in
# every estimator: a level of `_run`, the nested outer term and the baseline.
_BATCH_ROWS = 2**14

# Largest nested call, in payoff rows (outer*inner + baseline), that runs its
# baseline term on the calling thread after the outer term.  Up to here a
# helper thread costs about as much as it saves, and more when the other
# cores are busy, as they are in a pooled study.
_INLINE_ROWS = 2**14


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

    def add_many(self, values: np.ndarray, *others: _RunningMoments) -> None:
        """Merge the batch ``values`` into this accumulator and each of
        ``others``, its mean and squared deviations computed once."""
        k = int(values.shape[0])
        if k == 0:
            return
        batch_mean = float(np.mean(values))
        batch_m2 = float(np.sum((values - batch_mean) ** 2))
        for acc in (self, *others):
            total = acc.count + k
            delta = batch_mean - acc.mean
            acc.mean += delta * k / total
            acc._m2 += batch_m2 + delta * delta * acc.count * k / total
            acc.count = total

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
    """Mean of consecutive length-``width`` groups along the last axis.

    Summation is explicit and left-to-right, entry by entry, so the grouping
    is identical whatever the leading axes; the exactness guarantees in the
    module docstring depend on that.  Over a contiguous array each add is
    one long loop with stride ``width``, not a loop per group.
    """
    grouped = values.reshape(*values.shape[:-1], -1, width)
    acc = grouped[..., 0] + grouped[..., 1]  # width >= 2: base >= 2
    for i in range(2, width):
        acc += grouped[..., i]
    acc /= width
    return acc


def _fold_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` as one left-to-right fold, whatever the memory
    layout of ``values``.

    numpy's own sum folds pairwise when the axis is contiguous in memory and
    in sequence otherwise, and it is slow when the other axes are narrow; the
    last entry of a running sum is neither.
    """
    return np.cumsum(values, axis).take(-1, axis)


def _best(payoffs: np.ndarray) -> np.ndarray:
    """Max over the leading (decision) axis, taken one decision at a time.

    Each step is one ``np.maximum`` of two whole planes, where numpy's max
    reduction over a narrow axis runs a short loop per entry; see the module
    docstring for ties.
    """
    best = payoffs[0]
    for j in range(1, payoffs.shape[0]):
        best = np.maximum(best, payoffs[j])
    return best


def _terms(
    payoffs: np.ndarray, dist: LevelDistribution, level: int, variant: str
) -> np.ndarray:
    """Probability-weighted level corrections of n draws, from (n, base**level,
    n_decisions) payoffs, in one pass over block sizes base**j, j = 1..level.
    It folds one decision-major copy of the payoffs, whose rows are
    contiguous: `_fold_blocks` folds its last (row) axis and `_best` reduces
    its leading (decision) axis, each in long loops over whole planes.

    A block's gap is the mean of its base sub-blocks' best block means minus
    its own best block mean; it is >= 0, as averaging best values over
    sub-blocks can only beat taking the best of the pooled averages.  The
    single term is the gap at size base**level over pmf(level); the coupled
    sum weights the gaps at size base**j by 1/tail(j) and adds them in Horner
    form, folding the running total to each size before adding.
    """
    base = dist.base
    if payoffs.shape[1] != base**level:
        raise ValueError(
            f"expected {base**level} payoff rows for level {level}, "
            f"got {payoffs.shape[1]}"
        )
    # (n_decisions, n, rows); one decision needs no copy
    payoffs = np.ascontiguousarray(payoffs.transpose(2, 0, 1))
    # 1/tail(j) as (1/pmf(j)) * pmf(1): exact for the geometric law, and it
    # makes the level-1 coupled term bitwise pmf(1) times the single term
    head = dist.pmf(1)
    # the single term reads only the gap at base**level, so it skips the
    # best block means below base**(level - 1) and every smaller gap
    coupled = variant == "coupled"
    best = _best(payoffs) if coupled or level == 1 else None
    for j in range(1, level + 1):
        payoffs = _fold_blocks(payoffs, base)  # block means at size base**j
        if coupled or j >= level - 1:
            below, best = best, _best(payoffs)
        if coupled or j == level:
            gap = _fold_blocks(below, base)
            gap -= best
        if coupled:  # weighted, then added to the folded total, in place
            gap /= dist.pmf(j)
            gap *= head
            if j > 1:
                gap += _fold_blocks(total, base)
            total = gap
    if coupled:
        return total[:, 0]
    return gap[:, 0] / dist.pmf(level)


# ---------------------------------------------------------------------------
# samplers and stream layout
# ---------------------------------------------------------------------------
# The estimators read two kinds of information.  Perfect information is prior
# rows (`_prior_rows`); partial information is a revealed block with
# conditional rows for each of its rows (`_conditional_rows`).  A sampler
# ``rows(*gens, n, k)`` returns n draws of k consecutive rows each, reading
# one generator per kind of sample.  Streams below a call's root ``rng``:
#
#   nested      child(0)     outer samples: prior rows (evpi) or revealed blocks
#               child(1)     baseline prior rows (on the helper thread
#                            above `_INLINE_ROWS` payoff rows)
#               child(2)     conditional rows (evppi)
#   multilevel  child(0)     the number of draws at each level, drawn first
#               child(1)     prior rows of every draw
#               child(2)     revealed blocks of every draw
#               child(3)     their conditional rows
#
# Each stream serves one kind of sample only and is consumed in chunks of
# whole draws (`_chunks`), level after level, so it yields the same samples
# whatever the chunk size, and no samples are held beyond the current
# chunk.  The perfect-information part of `evppi_mlmc` reads child(1)
# exactly as `evpi_mlmc` does, which keeps the two estimators bit-identical
# on models whose conditional part is degenerate.

_Rows = Callable[..., np.ndarray]


def _prior_rows(prior: PriorSampler) -> _Rows:
    return lambda gen, n, k: prior.draw(gen, n * k)


def _conditional_rows(factored: FactoredSampler) -> _Rows:
    def rows(gen_revealed, gen_hidden, n: int, k: int) -> np.ndarray:
        revealed = factored.draw_marginal(gen_revealed, n)
        hidden = factored.draw_conditional(revealed, gen_hidden, k)
        return factored.combine(revealed, hidden)

    return rows


def _check_draw(draw: str, rows: int, dimension: int) -> None:
    """Refuse, before any sampling, a draw of more than ``_MAX_DRAW_BYTES``."""
    needed = rows * dimension * 8
    if needed > _MAX_DRAW_BYTES:
        raise MemoryError(
            f"{draw} needs {rows} samples of {dimension} coordinates ({needed} "
            f"bytes), above the per-draw bound of {_MAX_DRAW_BYTES} bytes; no "
            "samples were drawn"
        )


def _chunks(count: int, rows: int) -> Iterator[int]:
    """Sizes of the chunks that ``count`` draws of ``rows`` rows each take:
    whole draws, at most ``_BATCH_ROWS`` rows (one draw if a single draw is
    larger).  Every estimator's chunk loop takes its sizes from here."""
    step = max(1, _BATCH_ROWS // rows)
    for start in range(0, count, step):
        yield min(step, count - start)


# ---------------------------------------------------------------------------
# nested estimators
# ---------------------------------------------------------------------------


def nested_allocation(budget: int) -> tuple[int, int]:
    """(inner, outer) = (floor(budget**(1/3)), floor(budget**(2/3))) in exact
    integers: the error-optimal nested split of a budget of inner*outer
    evaluations when the inner bias decays like 1/inner."""
    budget = _check_int(budget, "budget", 4)
    return _icbrt(budget), _icbrt(budget**2)


def _icbrt(n: int) -> int:
    """Largest k with k**3 <= n (n >= 1), by integer Newton steps from above."""
    k = 1 << -(-n.bit_length() // 3)
    while (step := (2 * k + n // (k * k)) // 3) < k:
        k = step
    return k


def _accumulate_best_means(
    model: DecisionModel,
    prior: PriorSampler,
    draws: int,
    rng: np.random.Generator,
    stop: threading.Event,
) -> float:
    """max_d of the per-decision mean over ``draws`` prior samples, in chunks
    of at most ``_BATCH_ROWS`` rows (`_chunks`).  Each chunk's per-decision
    sums are one left-to-right fold over its rows (`_fold_sum`), added to
    running totals, so the bits do not depend on the payoffs' memory layout.

    The max of means, not the mean of maxes: it converges from above (in
    expectation) to the best expected payoff.  Stops, returning a meaningless
    value, at the first chunk boundary after ``stop`` is set.
    """
    rows = _prior_rows(prior)
    sums = np.zeros(model.n_decisions, dtype=np.float64)
    for n in _chunks(draws, 1):
        sums += _fold_sum(model.payoff_matrix(rows(rng, n, 1)), 0)
        if stop.is_set():
            break
    return float((sums / draws).max())


def _nested(
    model: DecisionModel,
    prior: PriorSampler,
    rows: _Rows,
    streams: tuple[int, ...],
    outer: int,
    inner: int,
    baseline: int,
    rng: RngStream,
) -> EstimateResult:
    """Mean over ``outer`` draws of the best decision's mean over the draw's
    ``inner`` rows, minus the baseline term.

    ``rows`` samples them from ``rng.child(k)``, k in ``streams``, in chunks
    of whole draws of at most ``_BATCH_ROWS`` rows (`_chunks`).  A one-row
    draw is its own mean; a longer draw's mean is one left-to-right fold over
    its rows (`_fold_sum`) divided by ``inner``.  The baseline term is
    `_accumulate_best_means` over ``baseline`` prior samples from
    ``rng.child(1)``.  A call of at most ``_INLINE_ROWS`` payoff rows runs it
    on this thread after the outer term; a larger call runs it on one helper
    thread while this thread folds the outer term.  Each term is a sequential
    fold over its own streams, so the bits are those of computing one term
    after the other either way.  The helper is joined before this returns or
    raises; an error of the outer term stops it at its next chunk and wins,
    as it does when the outer term runs first.
    """
    _check_draw("an outer draw", inner, model.dimension)
    baseline_gen = rng.child(1).generator()
    gens = [rng.child(k).generator() for k in streams]
    stop = threading.Event()
    best_means = functools.partial(
        _accumulate_best_means, model, prior, baseline, baseline_gen, stop
    )
    with contextlib.ExitStack() as joined:
        if outer * inner + baseline > _INLINE_ROWS:
            # not loaded by `import voimc`, nor by a call below the gate
            from concurrent.futures import ThreadPoolExecutor

            helper = joined.enter_context(ThreadPoolExecutor(max_workers=1))
            best_means = helper.submit(best_means).result
        moments = _RunningMoments()
        try:
            for n in _chunks(outer, inner):
                payoffs = model.payoff_matrix(rows(*gens, n, inner))
                if inner > 1:
                    payoffs = _fold_sum(payoffs.reshape(n, inner, -1), 1)
                    payoffs /= inner
                moments.add_many(_best(payoffs.T))
        except BaseException:
            stop.set()
            raise
        return EstimateResult(
            estimate=float(moments.mean - best_means()),
            n_draws=moments.count,
            cost_used=outer * inner + baseline,
            term_variance=moments.sample_variance,
        )


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
    biased low.  Cost: outer_draws + baseline_draws.  A call above 2**14
    evaluations runs the subtracted term on a helper thread, concurrently
    with the first; a smaller one runs the two in turn on the calling
    thread, where a helper would cost more than it saves.  The terms
    average through different reductions, so on constant payoffs they cancel
    only to rounding, not to the exact 0.0 of the multilevel estimators; so
    do the terms of `evppi_nested`.  Every draw count of either nested
    estimator must be a positive Python or numpy integer (bools are not);
    anything else raises ValueError naming it before any sampling.
    """
    outer = _check_int(outer_draws, "outer_draws", 1)
    baseline = _check_int(baseline_draws, "baseline_draws", 1)
    return _nested(model, prior, _prior_rows(prior), (0,), outer, 1, baseline, rng)


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
    bests, and subtracts the baseline term of `evpi_nested`, evaluated as
    there: on a helper thread above 2**14 evaluations.  Both terms carry
    finite-sample Jensen bias.  Cost: outer_draws*inner_draws +
    baseline_draws.  Raises MemoryError before sampling when one outer
    draw's inner rows would need more than 2**30 bytes (inner_draws *
    dimension * 8).
    """
    return _nested(
        model, prior, _conditional_rows(factored), (0, 2),
        _check_int(outer_draws, "outer_draws", 1),
        _check_int(inner_draws, "inner_draws", 1),
        _check_int(baseline_draws, "baseline_draws", 1),
        rng,
    )


# ---------------------------------------------------------------------------
# randomized multilevel estimators
# ---------------------------------------------------------------------------


def _run(
    model: DecisionModel,
    parts: list[tuple[str, tuple[int, ...], _Rows]],
    dist: LevelDistribution,
    budget: int,
    budget_rule: str,
    rng: RngStream,
) -> EstimateResult:
    """One multilevel run in which a draw pays its level's cost once per part.

    Each part is (variant, stream kinds, rows): ``rows`` samples the part's
    draws from one ``rng.child(k)`` generator per stream kind k, built once
    and read level after level in increasing order, and `_terms` turns them
    into ``variant`` corrections, chunk by chunk.  A draw's value is its
    first part's term minus its second's, if any, and reaches the moments
    with its chunk.  ``budget_rule`` spends ``budget`` as described in
    `evpi_mlmc`.
    """
    budget = _check_int(budget, "budget", 1)
    _check_choice(budget_rule, "budget_rule", _BUDGET_RULES)
    n_parts = len(parts)
    if budget_rule == "expected":
        draw_cost = n_parts * dist.expected_cost()
        n = math.floor(budget / draw_cost)
        if n == 0:
            raise ValueError(
                f"budget {budget} is below the expected cost of one draw "
                f"({draw_cost:.6g}); the expected budget rule needs a budget of "
                f"at least {math.ceil(draw_cost)}"
            )
    elif budget < n_parts * dist.cost(1):
        raise ValueError(
            f"budget must be at least {n_parts * dist.cost(1)}, the cost of one "
            "level-1 draw"
        )
    # every draw is at least a level-1 draw, so a level law whose level 1 is
    # too large is refused before any stream is built
    _check_draw("a level-1 draw", dist.cost(1), model.dimension)
    level_rng = rng.child(0).generator()
    if budget_rule == "expected":
        counts = dist.level_counts(level_rng, n)
    else:  # "prefix"
        # a draw costs n_parts * base**l: the plain rule over budget // n_parts
        counts = prefix_level_counts(dist, budget // n_parts, level_rng)
        n = int(counts.sum())
        if n == 0:
            raise BudgetExhaustedError(
                f"first drawn level does not fit within budget {budget}"
            )
    deepest = counts.shape[0] - 1
    _check_draw(f"a level-{deepest} draw", dist.cost(deepest), model.dimension)
    gens = [[rng.child(k).generator() for k in ks] for _, ks, _ in parts]
    moments = _RunningMoments()
    per_level: dict[int, _RunningMoments] = {}
    for level in np.flatnonzero(counts).tolist():
        cost = dist.cost(level)
        per_level[level] = _RunningMoments()
        for m in _chunks(int(counts[level]), cost):
            y, *z = (
                _terms(model.payoff_matrix(rows(*g, m, cost)).reshape(m, cost, -1),
                       dist, level, variant)
                for (variant, _, rows), g in zip(parts, gens)
            )
            values = y - z[0] if z else y
            per_level[level].add_many(values, moments)
    return EstimateResult(
        estimate=float(moments.mean),
        n_draws=n,
        cost_used=n_parts * sum(dist.cost(l) * int(counts[l]) for l in per_level),
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

    ``budget`` must be a positive Python or numpy integer (bools and floats
    such as 1e5 are not); anything else raises ValueError naming it before
    any stream is built.  Either rule keeps only the number of draws at each
    level, never a level list, and raises MemoryError before sampling when
    one draw would need more than 2**30 bytes of samples (base**level *
    dimension * 8).
    """
    _check_choice(variant, "variant", _VARIANTS)
    parts = [(variant, (1,), _prior_rows(prior))]
    return _run(model, parts, dist, budget, budget_rule, rng)


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
    _check_choice(variant_y, "variant_y", _VARIANTS)
    _check_choice(variant_z, "variant_z", _VARIANTS)
    parts = [
        (variant_y, (1,), _prior_rows(prior)),
        (variant_z, (2, 3), _conditional_rows(factored)),
    ]
    return _run(model, parts, dist, budget, budget_rule, rng)
