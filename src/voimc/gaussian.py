"""Gaussian linear benchmark with closed-form information values.

Two decisions: act, whose payoff is an affine function of an independent
Gaussian parameter vector, or hold, whose payoff is zero.  Revealing a
coordinate subset u leaves a Gaussian decision gap with mean

    mean_total = intercept + sum_j weights[j] * means[j]

and standard deviation

    std_revealed = sqrt(sum_{j in u} (weights[j] * stds[j])**2),

so the value of revealing u has the closed form

    (1 - cdf(-m/s)) * m + pdf(-m/s) * s - max(m, 0),

written cancellation-free below.  This makes the model an exact ground-truth
oracle for estimator tests; revealing every coordinate gives the value of
perfect information.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .model import DecisionModel, FactoredSampler, PriorSampler

__all__ = [
    "GaussianLinearModel",
    "ConfigError",
    "make_gaussian_model",
    "evppi_from_moments",
    "analytic_evppi",
    "load_model_config",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Floors a uniform away from 0.0 before inversion; ndtri(1e-300) is finite.
_U_FLOOR = 1e-300


class ConfigError(ValueError):
    """A model configuration file is malformed."""


@dataclass(frozen=True)
class GaussianLinearModel:
    """Configuration of the linear-payoff Gaussian benchmark.

    ``weights`` must be non-zero and ``stds`` positive; coordinates are
    independent normals with the given means and standard deviations.
    """

    intercept: float
    weights: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.weights)
        if n < 1:
            raise ValueError("model needs at least one coordinate")
        if len(self.means) != n or len(self.stds) != n:
            raise ValueError("weights, means and stds must have equal length")
        if any(w == 0.0 for w in self.weights):
            raise ValueError("weights must all be non-zero")
        if any(s <= 0.0 for s in self.stds):
            raise ValueError("stds must all be positive")

    @property
    def dimension(self) -> int:
        return len(self.weights)


def _validate_subset(config: GaussianLinearModel, revealed) -> tuple[int, ...]:
    revealed = tuple(int(ix) for ix in revealed)
    if any(not (1 <= ix <= config.dimension) for ix in revealed):
        raise ValueError(
            f"revealed coordinates must lie in 1..{config.dimension}, got {revealed}"
        )
    if len(set(revealed)) != len(revealed):
        raise ValueError("revealed coordinates must be unique")
    return tuple(sorted(revealed))


def _gaussian_draws(rng, size, means, stds):
    # Inversion of the normal cdf, one uniform per variate, so the map from
    # stream position to sample is deterministic across worker layouts.
    u = rng.random((size, means.shape[0]))
    np.maximum(u, _U_FLOOR, out=u)
    return means + stds * ndtri(u)


def make_gaussian_model(
    config: GaussianLinearModel, revealed
) -> tuple[DecisionModel, PriorSampler, FactoredSampler]:
    """Decision model plus prior and factored samplers for ``config``.

    ``revealed`` gives the 1-based coordinates of the revealed block.  The
    coordinates are independent, so the conditional sampler for the hidden
    block ignores the revealed values.
    """
    revealed = _validate_subset(config, revealed)
    w = np.asarray(config.weights, dtype=np.float64)
    mu = np.asarray(config.means, dtype=np.float64)
    sd = np.asarray(config.stds, dtype=np.float64)
    w0 = float(config.intercept)

    def payoff(xs):
        return np.column_stack((xs @ w + w0, np.zeros(xs.shape[0])))

    model = DecisionModel(
        decisions=("linear", "baseline"), payoff=payoff, dimension=config.dimension
    )

    prior = PriorSampler(
        dimension=config.dimension,
        draw_fn=lambda rng, size: _gaussian_draws(rng, size, mu, sd),
    )

    r_idx = np.asarray([ix - 1 for ix in revealed], dtype=np.intp)
    h_idx = np.asarray(
        [ix for ix in range(config.dimension) if ix + 1 not in set(revealed)],
        dtype=np.intp,
    )
    factored = FactoredSampler(
        dimension=config.dimension,
        revealed=revealed,
        marginal_fn=lambda rng, size: _gaussian_draws(rng, size, mu[r_idx], sd[r_idx]),
        conditional_fn=lambda _x1, rng, size: _gaussian_draws(
            rng, size, mu[h_idx], sd[h_idx]
        ),
    )
    return model, prior, factored


def evppi_from_moments(mean_total: float, std_revealed: float) -> float:
    """Closed-form information value of a Gaussian decision gap.

    Computed as pdf(z)*s - cdf(z)*m for m > 0 and pdf(z)*s + cdf(-z)*m
    otherwise (z = -m/s), which avoids the cancellation in the textbook
    (1-cdf(z))*m + pdf(z)*s - max(m, 0) when |m| is large.  Returns 0 for a
    degenerate (empty) revealed block.
    """
    if std_revealed < 0.0:
        raise ValueError("std_revealed must be non-negative")
    if std_revealed == 0.0:
        return 0.0
    z = -mean_total / std_revealed
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    if mean_total > 0.0:
        return float(pdf * std_revealed - ndtr(z) * mean_total)
    return float(pdf * std_revealed + ndtr(-z) * mean_total)


def analytic_evppi(config: GaussianLinearModel, revealed) -> float:
    """Exact value of revealing the given coordinate subset."""
    revealed = _validate_subset(config, revealed)
    mean_total = config.intercept + float(
        np.dot(config.weights, config.means)
    )
    var = sum(
        (config.weights[ix - 1] * config.stds[ix - 1]) ** 2 for ix in revealed
    )
    return evppi_from_moments(mean_total, math.sqrt(var))


_REQUIRED_KEYS = ("s", "w0", "w", "mu", "sigma")
_OPTIONAL_KEYS = ("subset",)


def load_model_config(path) -> tuple[GaussianLinearModel, tuple[int, ...] | None]:
    """Read a benchmark configuration from a JSON file.

    Keys: ``s`` (dimension), ``w0`` (intercept), ``w``/``mu``/``sigma``
    (length-s arrays, sigma positive, w non-zero) and optionally ``subset``
    (1-based revealed coordinates).  Unknown keys are rejected.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("model config must be a JSON object")
    unknown = sorted(set(raw) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys in model config: {unknown}")
    missing = sorted(set(_REQUIRED_KEYS) - set(raw))
    if missing:
        raise ConfigError(f"missing keys in model config: {missing}")

    s = raw["s"]
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise ConfigError("'s' must be a positive integer")
    arrays = {}
    for key in ("w", "mu", "sigma"):
        val = raw[key]
        if not isinstance(val, list) or len(val) != s:
            raise ConfigError(f"'{key}' must be an array of {s} numbers")
        try:
            arrays[key] = tuple(float(v) for v in val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'{key}' must contain numbers") from exc
    try:
        w0 = float(raw["w0"])
    except (TypeError, ValueError) as exc:
        raise ConfigError("'w0' must be a number") from exc

    try:
        config = GaussianLinearModel(
            intercept=w0, weights=arrays["w"], means=arrays["mu"], stds=arrays["sigma"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    subset = None
    if "subset" in raw:
        val = raw["subset"]
        if not isinstance(val, list) or any(
            not isinstance(ix, int) or isinstance(ix, bool) for ix in val
        ):
            raise ConfigError("'subset' must be an array of integers")
        try:
            subset = _validate_subset(config, val)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return config, subset
