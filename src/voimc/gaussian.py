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

from .model import DecisionModel, FactoredSampler, PriorSampler, _columns, _coordinates

__all__ = [
    "GaussianLinearModel",
    "ConfigError",
    "make_gaussian_model",
    "evppi_from_moments",
    "analytic_evppi",
    "load_model_config",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


class ConfigError(ValueError):
    """A model configuration file is malformed."""


@dataclass(frozen=True)
class GaussianLinearModel:
    """Configuration of the linear-payoff Gaussian benchmark.

    Every value must be finite, ``weights`` non-zero and ``stds`` positive;
    coordinates are independent normals with the given means and stds.
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
        for name in ("intercept", "weights", "means", "stds"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if any(w == 0.0 for w in self.weights):
            raise ValueError("weights must all be non-zero")
        if any(s <= 0.0 for s in self.stds):
            raise ValueError("stds must all be positive")

    @property
    def dimension(self) -> int:
        return len(self.weights)


def _validate_subset(config: GaussianLinearModel, revealed) -> tuple[int, ...]:
    return tuple(sorted(_coordinates(config.dimension, revealed)))


def _gaussian_sampler(means, stds):
    """``draw(rng, size)``: ``size`` rows of independent normals with these
    means and stds.

    numpy's ziggurat normals, read in stream order: n + m rows drawn in one
    call equal n rows and then m rows, so the bits do not depend on chunk
    sizes or worker layout (they are fixed for a given numpy version and bit
    generator).  Scaled and shifted in place: the bits are those of
    means + stds * z.  From 1024 rows on, each whole block of 64 rows is
    scaled as one flat row against the coefficients tiled 64 times (tiled
    once, here), so numpy's inner loop runs 64 * width wide instead of
    width; the last size % 64 rows, and smaller calls, for which the extra
    calls cost more than they save, are scaled as they are.
    """
    width = means.shape[0]
    block_stds, block_means = np.tile(stds, 64), np.tile(means, 64)

    def draw(rng, size):
        z = rng.standard_normal((size, width))
        rest = z
        if size >= 1024:
            whole = size - size % 64
            blocks = z[:whole].reshape(whole // 64, 64 * width)
            blocks *= block_stds
            blocks += block_means
            rest = z[whole:]
        rest *= stds
        rest += means
        return z

    return draw


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
        # the bits of np.column_stack((xs @ w + w0, zeros)), without its
        # temporaries
        out = np.empty((xs.shape[0], 2))
        out[:, 0] = xs @ w
        out[:, 0] += w0
        out[:, 1] = 0.0
        return out

    model = DecisionModel(
        decisions=("linear", "baseline"), payoff=payoff, dimension=config.dimension
    )

    prior = PriorSampler(dimension=config.dimension, draw_fn=_gaussian_sampler(mu, sd))

    r_idx, h_idx = _columns(config.dimension, revealed)
    hidden = _gaussian_sampler(mu[h_idx], sd[h_idx])
    factored = FactoredSampler(
        dimension=config.dimension,
        revealed=revealed,
        marginal_fn=_gaussian_sampler(mu[r_idx], sd[r_idx]),
        conditional_fn=lambda x1, rng, size: hidden(rng, x1.shape[0] * size),
    )
    return model, prior, factored


def evppi_from_moments(mean_total: float, std_revealed: float) -> float:
    """Closed-form information value of a Gaussian decision gap.

    Computed as pdf(z)*s - cdf(z)*m for m > 0 and pdf(z)*s + cdf(-z)*m
    otherwise (z = -m/s), which avoids the cancellation in the textbook
    (1-cdf(z))*m + pdf(z)*s - max(m, 0) when |m| is large.  Returns 0 for a
    degenerate (empty) revealed block; a non-finite input raises ValueError.
    """
    if not (math.isfinite(mean_total) and math.isfinite(std_revealed)):
        raise ValueError(
            f"mean_total and std_revealed must be finite, got {mean_total!r} "
            f"and {std_revealed!r}"
        )
    if std_revealed < 0.0:
        raise ValueError("std_revealed must be non-negative")
    if std_revealed == 0.0:
        return 0.0
    z = -mean_total / std_revealed
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
    # cdf(x) = erfc(-x * sqrt(1/2)) / 2, the argument rounded as the earlier
    # ndtr form rounded it: the tails amplify a change here (m/s)**2-fold
    if mean_total > 0.0:
        return float(pdf * std_revealed - 0.5 * math.erfc(-z * _SQRT_HALF) * mean_total)
    return float(pdf * std_revealed + 0.5 * math.erfc(z * _SQRT_HALF) * mean_total)


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


def _number(value, message: str) -> float:
    """A JSON number as a float; any other value raises ConfigError(message)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(message)
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range, refused as non-finite
        return math.inf


def load_model_config(path) -> tuple[GaussianLinearModel, tuple[int, ...] | None]:
    """Read a benchmark configuration from a JSON file.

    Keys: ``s`` (dimension), ``w0`` (intercept), ``w``/``mu``/``sigma``
    (length-s arrays, sigma positive, w non-zero), all finite, and optionally
    ``subset`` (1-based revealed coordinates).  Unknown keys are rejected.
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
        arrays[key] = tuple(_number(v, f"'{key}' must contain numbers") for v in val)
    w0 = _number(raw["w0"], "'w0' must be a number")

    try:
        config = GaussianLinearModel(
            intercept=w0, weights=arrays["w"], means=arrays["mu"], stds=arrays["sigma"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    subset = None
    if "subset" in raw:
        val = raw["subset"]
        if not isinstance(val, list):
            raise ConfigError("'subset' must be an array of integers")
        try:
            subset = _validate_subset(config, val)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return config, subset
