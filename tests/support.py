"""Shared test utilities: tiny models, counting samplers, Gaussian oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from voimc import DecisionModel, GaussianLinearModel, PriorSampler, analytic_evppi
from voimc.estimators import _level_term

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
    base**level fresh prior rows from ``gen``, then `_level_term`."""
    payoffs = model.payoff_matrix(prior.draw(gen, dist.cost(level)))
    return _level_term(payoffs, dist, level, variant)


def conditional_term(
    model, factored, revealed_values, level: int, dist, gen, variant: str
) -> float:
    """One conditional level term given a revealed block, sampled as
    `evppi_mlmc` samples it: base**level conditional rows from ``gen``."""
    hidden = factored.draw_conditional(revealed_values, gen, dist.cost(level))
    payoffs = model.payoff_matrix(factored.combine(revealed_values, hidden))
    return _level_term(payoffs, dist, level, variant)


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
