"""Decision-problem abstraction: decisions, payoffs, and parameter samplers.

A decision problem is a finite set of decisions, a payoff function over an
uncertain parameter vector, and samplers for that vector.  For partial
information analyses the vector splits into a revealed block (the coordinates
whose uncertainty would be eliminated) and a hidden block, sampled through a
marginal / conditional factorization.

Everything here is immutable and payoff evaluation is pure, so models and
samplers may be shared freely across workers as long as each worker owns its
own random stream.  A nested estimator call of more than 2**14 payoff rows
evaluates its baseline term on one helper thread while the calling thread
runs the outer term, so a user-supplied ``payoff``, ``draw_fn``,
``marginal_fn`` or ``conditional_fn`` may run on two threads at once and
must be thread-safe (pure functions are); a smaller call runs both terms on
the calling thread.  Each term draws from its own stream, so the output bits
do not depend on this.  Payoffs are assumed square-integrable under the
prior; that assumption is documented, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .validate import _check_int

__all__ = [
    "DecisionModel",
    "PriorSampler",
    "FactoredSampler",
    "PayoffEvaluationError",
]


class PayoffEvaluationError(ValueError):
    """A payoff evaluated to a non-finite value."""


def _coordinates(dimension: int, revealed) -> tuple[int, ...]:
    """``revealed`` as distinct integer coordinates in 1..dimension, in order."""
    revealed = tuple(_check_int(ix, "revealed coordinates", 1) for ix in revealed)
    if any(ix > dimension for ix in revealed):
        raise ValueError(
            f"revealed coordinates must lie in 1..{dimension}, got {revealed}"
        )
    if len(set(revealed)) != len(revealed):
        raise ValueError("revealed coordinates must be unique")
    return revealed


def _columns(dimension: int, revealed) -> tuple[np.ndarray, np.ndarray]:
    """0-based revealed columns, in the order given, and hidden columns, the
    rest in increasing order.  A plain complement: ``np.setdiff1d`` would load
    ``numpy.ma`` (numpy 2.4) in every process that builds a model."""
    r_idx = np.asarray([ix - 1 for ix in revealed], dtype=np.intp)
    hidden = np.ones(dimension, dtype=bool)
    hidden[r_idx] = False
    return r_idx, np.flatnonzero(hidden)


def _checked(out, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A callback's ``out`` as float64; ValueError naming ``what`` if not ``shape``."""
    out = np.asarray(out, dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"{what} returned shape {out.shape}, expected {shape}")
    return out


@dataclass(frozen=True)
class DecisionModel:
    """A finite decision set with a vectorized payoff.

    Args:
        decisions: ordered, non-empty, duplicate-free decision labels.
        payoff: (n, dimension) parameter rows -> (n, len(decisions)) payoffs,
            column j holding the payoff of ``decisions[j]``.
        dimension: length of the parameter vector.
    """

    decisions: tuple
    payoff: Callable[[np.ndarray], np.ndarray]
    dimension: int

    def __post_init__(self) -> None:
        if len(self.decisions) == 0:
            raise ValueError("decision set must be non-empty")
        if len(set(self.decisions)) != len(self.decisions):
            raise ValueError("decision labels must be unique")
        _check_int(self.dimension, "dimension", 1)

    @property
    def n_decisions(self) -> int:
        return len(self.decisions)

    def payoff_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Payoffs of every decision at every row of ``xs``.

        Returns an (n, n_decisions) float array; raises PayoffEvaluationError
        if any entry is non-finite, naming the decision and the point.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise ValueError(
                f"expected samples of shape (n, {self.dimension}), got {xs.shape}"
            )
        out = _checked(self.payoff(xs), (xs.shape[0], self.n_decisions), "payoff")
        if not np.isfinite(out).all():
            i, j = np.argwhere(~np.isfinite(out))[0]
            raise PayoffEvaluationError(
                f"payoff for decision {self.decisions[j]!r} is not finite "
                f"at x={xs[i].tolist()}"
            )
        return out


@dataclass(frozen=True)
class PriorSampler:
    """I.i.d. sampler for the full parameter vector.

    ``draw_fn(rng, size)`` must return a (size, dimension) array of
    independent samples, consuming only the supplied generator.
    """

    dimension: int
    draw_fn: Callable[[np.random.Generator, int], np.ndarray]

    def __post_init__(self) -> None:
        _check_int(self.dimension, "dimension", 1)

    def draw(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        size = _check_int(size, "size", 0)
        out = self.draw_fn(rng, size)
        return _checked(out, (size, self.dimension), "prior sampler")


@dataclass(frozen=True)
class FactoredSampler:
    """Marginal / conditional factorization of the parameter vector.

    ``revealed`` lists the 1-based coordinates of the revealed block; the
    hidden block is its complement.  Column k of a revealed block is
    coordinate ``revealed[k]``, and the hidden columns are the other
    coordinates in increasing order.  Composing ``draw_marginal`` with
    ``draw_conditional`` must reproduce the joint prior law.

    ``conditional_fn(revealed, rng, size)`` takes an (n, n_revealed) block
    and returns (n*size, n_hidden) rows: ``size`` rows conditional on
    revealed row 0, then ``size`` on row 1, and so on.
    """

    dimension: int
    revealed: tuple[int, ...]
    marginal_fn: Callable[[np.random.Generator, int], np.ndarray]
    conditional_fn: Callable[[np.ndarray, np.random.Generator, int], np.ndarray]

    def __post_init__(self) -> None:
        _check_int(self.dimension, "dimension", 1)
        revealed = _coordinates(self.dimension, self.revealed)
        object.__setattr__(self, "revealed", revealed)
        r_idx, h_idx = _columns(self.dimension, revealed)
        object.__setattr__(self, "_revealed_idx", r_idx)
        object.__setattr__(self, "_hidden_idx", h_idx)

    @property
    def n_revealed(self) -> int:
        return len(self.revealed)

    @property
    def n_hidden(self) -> int:
        return self.dimension - len(self.revealed)

    def draw_marginal(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        size = _check_int(size, "size", 0)
        out = self.marginal_fn(rng, size)
        return _checked(out, (size, self.n_revealed), "marginal sampler")

    def draw_conditional(
        self, revealed_values: np.ndarray, rng: np.random.Generator, size: int = 1
    ) -> np.ndarray:
        """``size`` hidden rows per row of an (n, n_revealed) revealed block,
        as (n*size, n_hidden) rows grouped by revealed row."""
        revealed_values = np.asarray(revealed_values, dtype=np.float64)
        if revealed_values.ndim != 2 or revealed_values.shape[1] != self.n_revealed:
            raise ValueError(
                f"expected a revealed block of shape (n, {self.n_revealed}), "
                f"got {revealed_values.shape}"
            )
        size = _check_int(size, "size", 0)
        out = self.conditional_fn(revealed_values, rng, size)
        shape = (revealed_values.shape[0] * size, self.n_hidden)
        return _checked(out, shape, "conditional sampler")

    def combine(
        self, revealed_values: np.ndarray, hidden_samples: np.ndarray
    ) -> np.ndarray:
        """Full parameter vectors from an (n, n_revealed) revealed block and
        the hidden rows `draw_conditional` returns for it: (n*k, n_hidden)
        rows, k per revealed row.  Any other pair of shapes raises ValueError
        naming both."""
        revealed_values = np.asarray(revealed_values, dtype=np.float64)
        hidden_samples = np.asarray(hidden_samples, dtype=np.float64)
        n = revealed_values.shape[0] if revealed_values.ndim == 2 else -1
        rows = hidden_samples.shape[0] if hidden_samples.ndim == 2 else -1
        repeats = rows // max(n, 1)
        if (
            revealed_values.shape != (n, self.n_revealed)
            or hidden_samples.shape != (rows, self.n_hidden)
            or rows != n * repeats
        ):
            raise ValueError(
                f"cannot combine a revealed block of shape {revealed_values.shape} "
                f"with hidden rows of shape {hidden_samples.shape}; expected "
                f"(n, {self.n_revealed}) and (n*k, {self.n_hidden})"
            )
        out = np.empty((hidden_samples.shape[0], self.dimension), dtype=np.float64)
        out[:, self._revealed_idx] = np.repeat(revealed_values, repeats, axis=0)
        out[:, self._hidden_idx] = hidden_samples
        return out
