"""Shared test utilities: tiny models, counting samplers, Gaussian oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from voimc import (
    DecisionModel,
    FactoredSampler,
    GaussianLinearModel,
    PriorSampler,
    analytic_evppi,
)
from voimc.estimators import (
    EstimateResult,
    _chunks,
    _freeze_levels,
    _RunningMoments,
    _terms,
)

_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)

# Zero-mean benchmark: five unit-weight standard-normal coordinates, so the
# two decisions tie in expectation and every value has a clean closed form.
TIE_CONFIG = GaussianLinearModel(
    intercept=0.0, weights=(1.0,) * 5, means=(0.0,) * 5, stds=(1.0,) * 5
)

# Same model shifted so the linear decision wins on average; level corrections
# then decay fast and all estimators have light tails.
OFFSET_CONFIG = GaussianLinearModel(
    intercept=1.0, weights=(1.0,) * 5, means=(0.0,) * 5, stds=(1.0,) * 5
)


def single_decision_model(dimension: int = 5) -> DecisionModel:
    """One decision whose payoff is the coordinate sum."""
    return DecisionModel(
        decisions=("only",),
        payoff=lambda xs: xs.sum(axis=1, keepdims=True),
        dimension=dimension,
    )


def three_decision_model(dimension: int = 5) -> DecisionModel:
    """Three decisions: the coordinate sum, nothing, and 0.5 minus the first
    coordinate."""
    return DecisionModel(
        decisions=("sum", "none", "hedge"),
        payoff=lambda xs: np.column_stack(
            (xs.sum(axis=1), np.zeros(len(xs)), 0.5 - xs[:, 0])
        ),
        dimension=dimension,
    )


def constant_model(values=(3.0, 1.0), dimension: int = 5) -> DecisionModel:
    """Payoffs that ignore the parameter vector entirely."""
    values = tuple(float(v) for v in values)
    labels = tuple(f"option{i}" for i in range(len(values)))
    arr = np.asarray(values)
    return DecisionModel(
        decisions=labels,
        payoff=lambda xs: np.broadcast_to(arr, (xs.shape[0], len(values))).copy(),
        dimension=dimension,
    )


@dataclass
class DrawCounter:
    """Wraps a PriorSampler and records every draw request."""

    inner: PriorSampler
    calls: int = 0
    samples: int = 0

    def sampler(self) -> PriorSampler:
        def counted(rng, size):
            self.calls += 1
            self.samples += size
            return self.inner.draw(rng, size)

        return PriorSampler(dimension=self.inner.dimension, draw_fn=counted)


def prior_term(model, prior, level: int, dist, gen, variant: str) -> float:
    """One perfect-information level term, sampled as `evpi_mlmc` samples it:
    base**level fresh prior rows from ``gen``, then `_terms` on that one draw."""
    payoffs = model.payoff_matrix(prior.draw(gen, dist.cost(level)))
    return float(_terms(payoffs[None], dist, level, variant)[0])


def conditional_term(
    model, factored, revealed_values, level: int, dist, gen, variant: str
) -> float:
    """One conditional level term given a (1, n_revealed) revealed block,
    sampled as `evppi_mlmc` samples it: base**level conditional rows from
    ``gen``."""
    hidden = factored.draw_conditional(revealed_values, gen, dist.cost(level))
    payoffs = model.payoff_matrix(factored.combine(revealed_values, hidden))
    return float(_terms(payoffs[None], dist, level, variant)[0])


def level_counts(dist, budget: int, parts: int, rng, budget_rule: str) -> np.ndarray:
    """Draws per level (indexed by level) of a run, from ``rng.child(0)``; the
    prefix rule's by `draws_for_budget_loop`, not the production walk."""
    level_rng = rng.child(0).generator()
    if budget_rule == "expected":
        n = math.floor(budget / (parts * dist.expected_cost()))
        return dist.level_counts(level_rng, n)
    return np.bincount(draws_for_budget_loop(dist, budget // parts, level_rng)[0])


def per_draw_run(
    model, prior, dist, budget: int, variants, rng, budget_rule: str, factored=None
) -> tuple[EstimateResult, dict[int, np.ndarray]]:
    """`evpi_mlmc` (``factored`` None, ``variants`` = (variant,)) or
    `evppi_mlmc` (``variants`` = (variant_y, variant_z)) evaluated level by
    level, each draw sampled on its own, with its terms by level.

    The counts come from `level_counts`.  One generator per kind of sample is
    made before the level loop: ``rng.child(1)`` for prior rows, through
    `prior_term`, and for evppi ``rng.child(2)`` for revealed blocks and
    ``rng.child(3)`` for conditional rows, through `conditional_term`.  Each
    is read draw by draw, level after level in increasing order.  The moments
    take each level's terms at once."""
    parts = 1 if factored is None else 2
    counts = level_counts(dist, budget, parts, rng, budget_rule)
    terms: dict[int, np.ndarray] = {}
    moments = _RunningMoments()
    per_level = {}
    gens = [rng.child(k).generator() for k in (1, 2, 3)]
    for level in np.flatnonzero(counts).tolist():
        values = []
        for _ in range(int(counts[level])):
            value = prior_term(model, prior, level, dist, gens[0], variants[0])
            if factored is not None:
                revealed = factored.draw_marginal(gens[1], 1)
                value -= conditional_term(
                    model, factored, revealed, level, dist, gens[2], variants[1]
                )
            values.append(value)
        terms[level] = np.array(values)
        per_level[level] = _RunningMoments()
        per_level[level].add_many(terms[level])
        moments.add_many(terms[level])
    result = EstimateResult(
        estimate=float(moments.mean),
        n_draws=moments.count,
        cost_used=parts * sum(dist.cost(l) * int(counts[l]) for l in per_level),
        term_variance=moments.sample_variance,
        per_level=_freeze_levels(per_level),
    )
    return result, terms


def draws_for_budget_loop(dist, budget: int, rng) -> tuple[list[int], int]:
    """`draws_for_budget` as a loop over the levels of each 256-level block,
    adding each level's cost in Python ints until one no longer fits."""
    levels: list[int] = []
    total = 0
    while True:
        for lvl in dist.sample_levels(rng, 256).tolist():
            cost = dist.cost(lvl)
            if total + cost > budget:
                return levels, len(levels)
            levels.append(lvl)
            total += cost


def icbrt(n: int) -> int:
    """Largest integer k with k**3 <= n: a floating-point guess, corrected in
    exact integer arithmetic."""
    k = round(n ** (1.0 / 3.0))
    while k**3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return k


def serial_baseline(model, prior, draws: int, gen) -> float:
    """The nested baseline term as a plain loop: ``draws`` prior rows from
    ``gen`` in chunks of ``_BATCH_ROWS``, each chunk summed row by row, left
    to right, and added to per-decision running totals; then the best mean."""
    totals = np.zeros(model.n_decisions)
    for n in _chunks(draws, 1):
        payoffs = model.payoff_matrix(prior.draw(gen, n))
        chunk = payoffs[0].copy()
        for row in payoffs[1:]:
            chunk += row
        totals += chunk
    return max((totals / draws).tolist())


def serial_nested(
    model, prior, *, outer_draws, baseline_draws, rng, factored=None, inner_draws=1
) -> EstimateResult:
    """`evpi_nested` (``factored`` None) or `evppi_nested` computed on one
    thread: the outer chunk loop to the end, each draw's inner rows summed
    left to right, then `serial_baseline`, on the same child streams and the
    same ``_BATCH_ROWS`` chunks."""
    moments = _RunningMoments()
    if factored is None:
        gen = rng.child(0).generator()
        for n in _chunks(outer_draws, 1):
            moments.add_many(model.payoff_matrix(prior.draw(gen, n)).max(axis=1))
        cost = outer_draws + baseline_draws
    else:
        revealed_gen = rng.child(0).generator()
        hidden_gen = rng.child(2).generator()
        for n in _chunks(outer_draws, inner_draws):
            revealed = factored.draw_marginal(revealed_gen, n)
            hidden = factored.draw_conditional(revealed, hidden_gen, inner_draws)
            draws = model.payoff_matrix(factored.combine(revealed, hidden))
            draws = draws.reshape(n, inner_draws, -1)
            sums = draws[:, 0].copy()  # each draw's inner rows, left to right
            for i in range(1, inner_draws):
                sums += draws[:, i]
            moments.add_many((sums / inner_draws).max(axis=1))
        cost = outer_draws * inner_draws + baseline_draws
    baseline = serial_baseline(model, prior, baseline_draws, rng.child(1).generator())
    return EstimateResult(
        estimate=float(moments.mean - baseline),
        n_draws=outer_draws,
        cost_used=cost,
        term_variance=moments.sample_variance,
    )


# ---------------------------------------------------------------------------
# closed-form Gaussian helpers (independent of the library's estimator path)
# ---------------------------------------------------------------------------


def analytic_evpi(config: GaussianLinearModel) -> float:
    """Exact value of perfect information: reveal every coordinate."""
    return analytic_evppi(config, range(1, config.dimension + 1))


def positive_part_mean(mean: float, std: float) -> float:
    """E[max{Normal(mean, std**2), 0}] = mean*cdf(mean/std) + std*pdf(mean/std)."""
    if std == 0.0:
        return max(mean, 0.0)
    z = mean / std
    return mean * float(ndtr(z)) + std * _PHI0 * math.exp(-0.5 * z * z)


def plugin_mean(config: GaussianLinearModel, n: int) -> float:
    """Exact mean of the best per-decision average over n prior samples.

    For the linear-vs-zero benchmark the per-decision average is
    Normal(mean_total, var_total/n) against 0, so the best of the two means
    has expectation E[max{Normal, 0}].
    """
    mean_total = config.intercept + float(np.dot(config.weights, config.means))
    var_total = float(np.sum((np.asarray(config.weights) * np.asarray(config.stds)) ** 2))
    return positive_part_mean(mean_total, math.sqrt(var_total / n))


def conditional_plugin_mean(config: GaussianLinearModel, revealed, n: int) -> float:
    """Exact mean (over the revealed block) of the conditional plug-in value.

    Averaging n conditional samples leaves Normal(mean_total,
    std_revealed**2 + var_hidden/n) against 0 once the revealed block is
    integrated out.
    """
    w = np.asarray(config.weights)
    sd = np.asarray(config.stds)
    mean_total = config.intercept + float(np.dot(config.weights, config.means))
    idx = np.asarray(sorted(int(i) - 1 for i in revealed), dtype=int)
    var_revealed = float(np.sum((w[idx] * sd[idx]) ** 2))
    var_hidden = float(np.sum((w * sd) ** 2)) - var_revealed
    return positive_part_mean(mean_total, math.sqrt(var_revealed + var_hidden / n))


def budget_rule_mean(dist, budget: int, level_mean) -> float:
    """Exact mean of the prefix-budget-rule average, given per-level term means.

    The prefix rule makes the run average an unbiased reading of the term at
    a level *conditioned on fitting the budget* (exchangeability of the level
    sequence under the stopping event), so the run mean equals
    sum_{cost(l) <= budget} pmf(l) * level_mean(l), normalized by the fitting
    mass.  Exact, not asymptotic.
    """
    lmax = 0
    while dist.cost(lmax + 1) <= budget:
        lmax += 1
    if lmax == 0:
        raise ValueError("budget below the cheapest level")
    mass = sum(dist.pmf(l) for l in range(1, lmax + 1))
    return sum(dist.pmf(l) * level_mean(l) for l in range(1, lmax + 1)) / mass


def level_correction_mean(config: GaussianLinearModel, base: int, level: int) -> float:
    """Exact mean of the unweighted perfect-information correction at a level."""
    return plugin_mean(config, base ** (level - 1)) - plugin_mean(config, base**level)


def conditional_correction_mean(
    config: GaussianLinearModel, revealed, base: int, level: int
) -> float:
    """Exact mean of the unweighted conditional correction at a level."""
    return conditional_plugin_mean(
        config, revealed, base ** (level - 1)
    ) - conditional_plugin_mean(config, revealed, base**level)


def weighted_level_mean(dist, level: int, correction_mean, variant: str) -> float:
    """Exact mean of a probability-weighted term at a fixed level."""
    if variant == "single":
        return correction_mean(level) / dist.pmf(level)
    return sum(correction_mean(j) / dist.tail(j) for j in range(1, level + 1))


def fresh_python(*args):
    """Run a fresh interpreter with this checkout's ``src`` on its path and
    its standard streams buffered as by default, so that output a process
    failed to flush before exiting goes missing."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )
