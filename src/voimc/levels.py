"""Randomized level selection and computational-budget accounting.

A level-l correction term consumes base**l model evaluations.  Levels are
drawn from the geometric law pmf(l) = (1 - ratio) * ratio**(l-1), l >= 1,
whose tail mass from j onward is exactly ratio**(j-1).  The constructor
requires ratio * base < 1 so that one draw has finite expected cost,
(1 - ratio) * base / (1 - ratio * base); both budget rules of the multilevel
estimators rely on that (the prefix rule is `prefix_level_counts` below).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .validate import _check_int

__all__ = [
    "LevelDistribution",
    "BudgetExhaustedError",
    "optimal_ratio",
    "draws_for_budget",
    "prefix_level_counts",
]

# Levels the prefix walk draws per `sample_levels` call.  Any block size
# consumes the same uniforms in the same order, so it does not change the
# prefix; it only bounds the uniforms drawn past the stopping point.
_LEVEL_BLOCK = 256


class BudgetExhaustedError(RuntimeError):
    """The first drawn level already costs more than the whole budget."""


@dataclass(frozen=True)
class LevelDistribution:
    """Geometric level law together with its cost schedule.

    ``base`` is the per-level sample growth factor (a level-l term costs
    base**l evaluations); ``ratio`` is the geometric decay of the level
    probabilities.
    """

    base: int
    ratio: float

    def __post_init__(self) -> None:
        _check_int(self.base, "base", 2)
        if not isinstance(self.ratio, numbers.Real) or not 0.0 < self.ratio < 1.0:
            raise ValueError(
                f"ratio must be a number strictly between 0 and 1, got {self.ratio!r}"
            )
        if self.ratio * self.base >= 1.0:
            raise ValueError(
                "ratio must be < 1/base so one draw has finite expected cost"
            )

    def pmf(self, level: int) -> float:
        """Probability of drawing ``level``: (1 - ratio) * ratio**(level-1)."""
        level = _check_int(level, "level", 1)
        return (1.0 - self.ratio) * self.ratio ** (level - 1)

    def tail(self, level: int) -> float:
        """Total mass at or above ``level``: exactly ratio**(level-1)."""
        return self.ratio ** (_check_int(level, "level", 1) - 1)

    def cost(self, level: int) -> int:
        """Evaluations consumed by one level-``level`` term: base**level."""
        return int(self.base) ** _check_int(level, "level", 1)

    def expected_cost(self) -> float:
        """Mean evaluations per draw: (1-ratio)*base / (1 - ratio*base)."""
        return (1.0 - self.ratio) * self.base / (1.0 - self.ratio * self.base)

    def sample_levels(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. levels, by closed-form inversion of one uniform each.

        Level = ceil(log(1-u)/log(ratio)), floored at 1; u = 0 maps to level 1.
        """
        u = rng.random(size)
        raw = np.ceil(np.log1p(-u) / math.log(self.ratio))
        return np.maximum(raw, 1.0).astype(np.int64)

    def level_counts(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Counts of ``n`` i.i.d. levels, indexed by level up to the deepest.

        Level l takes Binomial(remaining, 1 - ratio) of the draws not placed
        below it, which is exact because pmf(l) / tail(l) = 1 - ratio.  An
        ``n`` of 2**63 or more, beyond numpy's binomial, raises ValueError."""
        counts = [0]
        remaining = _check_int(n, "n", 0)
        if remaining >= 2**63:
            raise ValueError(f"n must be below 2**63, numpy's binomial bound, got {n}")
        while remaining:
            counts.append(int(rng.binomial(remaining, 1.0 - self.ratio)))
            remaining -= counts[-1]
        return np.array(counts, dtype=np.int64)


def optimal_ratio(base: int, decay: float) -> float:
    """Variance-optimal geometric ratio, base**(-(2*decay + 1)/2).

    ``decay`` is the assumed exponent q in the second-moment model
    E[correction(l)^2] ~ base**(-2*q*l); the result always satisfies
    base**(-2q) < ratio < base**(-1), the window on which both the estimator
    variance and the expected cost stay finite.  Requires 1/2 < decay < inf.
    """
    _check_int(base, "base", 2)
    if not 0.5 < decay < math.inf:  # NaN fails both comparisons
        raise ValueError(
            "decay must be finite and exceed 1/2: below that no geometric ratio "
            f"keeps both variance and expected cost finite; got {decay!r}"
        )
    return float(base) ** (-(2.0 * decay + 1.0) / 2.0)


def _prefix_blocks(dist, budget: int, rng) -> Iterator[np.ndarray]:
    """The levels of the longest i.i.d. prefix whose cost fits ``budget``, one
    `sample_levels` block at a time; the last block is cut at the stop."""
    budget = _check_int(budget, "budget", 1)
    # costs[l] = base**l for every level that fits the budget alone, and
    # budget + 1 for the first one that does not; deeper levels are clipped to
    # it.  A block's running sum thus stays below 2**63 for budgets below
    # 2**54, and sums as Python ints above.
    table = [0, dist.cost(1)]
    while table[-1] <= budget:
        table.append(dist.cost(len(table)))
    table[-1] = budget + 1
    costs = np.array(table, dtype=np.int64 if budget < 2**54 else object)
    remaining = budget
    while True:
        block = dist.sample_levels(rng, _LEVEL_BLOCK)
        spent = np.cumsum(costs[np.minimum(block, len(costs) - 1)])
        stop = int(np.searchsorted(spent, remaining, side="right"))
        yield block[:stop]
        if stop < _LEVEL_BLOCK:
            return
        remaining -= int(spent[-1])


def draws_for_budget(
    dist: LevelDistribution, budget: int, rng: np.random.Generator
) -> tuple[list[int], int]:
    """Longest i.i.d. level prefix whose total cost fits within ``budget``.

    Levels are drawn from ``dist`` until the next one would push the
    cumulative cost past ``budget``; that draw is discarded and generation
    stops (re-drawing a cheaper level instead would tilt the level law).
    Returns (levels, n) with sum(base**l) <= budget; n may be 0 when the very
    first level does not fit.
    """
    levels = np.concatenate(list(_prefix_blocks(dist, budget, rng))).tolist()
    return levels, len(levels)


def prefix_level_counts(
    dist: LevelDistribution, budget: int, rng: np.random.Generator
) -> np.ndarray:
    """``np.bincount`` of the levels `draws_for_budget` draws: int64 counts by
    level up to the deepest drawn (empty if none fits), counted block by block
    in memory that does not grow with the budget."""
    counts = np.zeros(0, dtype=np.int64)
    for block in _prefix_blocks(dist, budget, rng):
        found = np.bincount(block, minlength=counts.shape[0])
        found[: counts.shape[0]] += counts
        counts = found
    return counts
