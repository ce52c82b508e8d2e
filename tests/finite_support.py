"""The finite-support oracle model: three decisions and a hidden coordinate
whose law depends on the revealed one, with its exact values by enumeration.

It needs only numpy and the library, so scripts can use it too.
"""

from __future__ import annotations

import numpy as np

from voimc import DecisionModel, FactoredSampler, PriorSampler

# x1 takes -1, 0, 1 with probabilities 0.3, 0.4, 0.3; x2 = x1 + e, where e
# takes -1, 0, 1 with probabilities that depend on x1 (row x1 + 1 of
# _E_PMF); x3 = +-0.5 with equal odds.  Revealing x1 therefore shifts the law
# of x2, which the Gaussian benchmark's conditional sampler never does, so a
# conditional block paired with the wrong revealed row changes the mean.

_X1 = np.array([-1.0, 0.0, 1.0])
_X1_CDF = np.cumsum([0.3, 0.4, 0.3])
_E = np.array([-1.0, 0.0, 1.0])
_E_PMF = np.array([[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.1, 0.3, 0.6]])
_E_CDF = np.cumsum(_E_PMF, axis=1)
_X3 = np.array([-0.5, 0.5])


def finite_payoff(xs: np.ndarray) -> np.ndarray:
    """Payoffs x1 + x2 + x3 - 0.3, 0 and 0.35 - 0.8 x2 + 0.1 x1 x3."""
    x1, x2, x3 = xs.T
    return np.column_stack(
        (x1 + x2 + x3 - 0.3, np.zeros(len(xs)), 0.35 - 0.8 * x2 + 0.1 * x1 * x3)
    )


def _finite_revealed(gen, n: int) -> np.ndarray:
    """n values of x1, as an (n, 1) block, by inversion of one uniform each."""
    u = gen.random(n)
    return _X1[(u[:, None] >= _X1_CDF[:-1]).sum(axis=1)][:, None]


def _finite_hidden(revealed: np.ndarray, gen, size: int) -> np.ndarray:
    """``size`` rows (x2, x3) per revealed x1, grouped by revealed row."""
    x1 = np.repeat(revealed[:, 0], size)
    cdf = _E_CDF[np.rint(x1).astype(np.intp) + 1, :-1]
    u = gen.random((len(x1), 2))
    e = _E[(u[:, :1] >= cdf).sum(axis=1)]
    return np.column_stack((x1 + e, _X3[(u[:, 1] >= 0.5).astype(np.intp)]))


def _finite_prior(gen, n: int) -> np.ndarray:
    """n rows (x1, x2, x3): x1, then one hidden row for it."""
    x1 = _finite_revealed(gen, n)
    return np.column_stack((x1, _finite_hidden(x1, gen, 1)))


def finite_support_model() -> tuple[DecisionModel, PriorSampler, FactoredSampler]:
    """The finite-support model, its prior sampler, and its sampler with x1
    revealed."""
    model = DecisionModel(("act", "wait", "hedge"), finite_payoff, 3)
    factored = FactoredSampler(3, (1,), _finite_revealed, _finite_hidden)
    return model, PriorSampler(3, _finite_prior), factored


def finite_support_oracle() -> tuple[float, float]:
    """(EVPPI of x1, EVPI) of the finite-support model, by enumerating its 18
    support points: 0.9150 and 1.0545 up to rounding.

    Asserts that the best decision mean leads the next by more than 0.2, both
    unconditionally and given each value of x1 (the smallest lead is 0.222):
    a tie would make the level corrections decay at the slow boundary rate of
    the tie benchmark.
    """
    points, weights = [], []
    for i, (x1, p1) in enumerate(zip(_X1, np.diff(_X1_CDF, prepend=0.0))):
        for e, pe in zip(_E, _E_PMF[i]):
            for x3 in _X3:
                points.append((x1, x1 + e, x3))
                weights.append(p1 * pe * 0.5)
    points, weights = np.array(points), np.array(weights)
    payoffs = finite_payoff(points)
    means = [weights @ payoffs]
    revealed_value = 0.0
    for x1 in _X1:
        mask = points[:, 0] == x1
        means.append(weights[mask] @ payoffs[mask] / weights[mask].sum())
        revealed_value += weights[mask].sum() * means[-1].max()
    for m in means:
        first, second = np.sort(m)[:-3:-1]
        assert first - second > 0.2, m
    best = means[0].max()
    return revealed_value - best, weights @ payoffs.max(axis=1) - best
