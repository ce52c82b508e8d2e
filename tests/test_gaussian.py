import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from voimc import (
    ConfigError,
    GaussianLinearModel,
    RngStream,
    analytic_evppi,
    load_model_config,
    make_gaussian_model,
)
from voimc.gaussian import evppi_from_moments

from support import TIE_CONFIG, analytic_evpi


def _density(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _value_by_quadrature(mean):
    """E[max(X, 0)] - max(mean, 0) for X ~ Normal(mean, 1), integrated on the
    losing side of the decision so nothing cancels."""
    return quad(
        lambda u: u * _density(u + abs(mean)),
        0.0,
        math.inf,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )


class TestNormalFunctions:
    """The normal distribution function and density inside the closed form
    `evppi_from_moments`, checked against independent references."""

    def test_known_constants(self):
        # at mean 0 the value is std * pdf(0), with pdf(0) = 1/sqrt(2 pi)
        assert evppi_from_moments(0.0, 1.0) == pytest.approx(
            0.3989422804014327, abs=1e-15
        )
        assert evppi_from_moments(0.0, 2.0) == pytest.approx(
            2.0 * 0.3989422804014327, abs=1e-15
        )

    def test_cdf_against_quadrature(self):
        # independent oracle: integrate the density numerically
        for m in np.linspace(-8.0, 8.0, 33):
            reference, err = _value_by_quadrature(m)
            assert err < 1e-13
            assert abs(evppi_from_moments(m, 1.0) - reference) < 1e-12

    def test_quantile_value(self):
        # mean -1.96: pdf(1.96) - 1.96 * (1 - cdf(1.96)), cdf(1.96) = 0.9750021
        reference, _ = _value_by_quadrature(-1.96)
        value = evppi_from_moments(-1.96, 1.0)
        assert value == pytest.approx(reference, abs=1e-13)
        assert value == pytest.approx(
            _density(1.96) - 1.96 * (1.0 - 0.9750021), abs=1.96e-7
        )

    @given(m=st.floats(-8.0, 8.0), s=st.floats(0.01, 10.0))
    @settings(deadline=None, max_examples=80)
    def test_cdf_symmetry(self, m, s):
        # cdf(-z) = 1 - cdf(z) makes the value even in the mean
        assert evppi_from_moments(-m, s) == evppi_from_moments(m, s)


class TestAnalyticValues:
    def test_benchmark_values(self):
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        for k in range(1, 6):
            expected = phi0 * math.sqrt(k)
            assert analytic_evppi(TIE_CONFIG, range(1, k + 1)) == pytest.approx(
                expected, abs=1e-12
            )
        assert analytic_evpi(TIE_CONFIG) == pytest.approx(phi0 * math.sqrt(5), abs=1e-12)

    def test_empty_subset_is_worthless(self):
        assert analytic_evppi(TIE_CONFIG, ()) == 0.0

    def test_moments(self):
        cfg = GaussianLinearModel(2.0, (1.0, -3.0), (0.5, 1.0), (1.0, 2.0))
        # decision-gap mean 2.0 + 0.5 - 3.0 and revealed std |-3.0 * 2.0|
        assert analytic_evppi(cfg, (2,)) == pytest.approx(
            evppi_from_moments(2.0 + 0.5 - 3.0, 6.0)
        )

    def test_large_positive_mean_value_vanishes(self):
        value = evppi_from_moments(10.0, 1.0)
        assert 0.0 <= value < 1e-20

    def test_monotone_in_revealed_std(self):
        # the closed form increases in the revealed spread for a fixed mean
        for mean in (-2.0, 0.0, 0.7, 3.0):
            values = [evppi_from_moments(mean, s) for s in np.linspace(0.01, 5, 40)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_nested_subsets(self):
        previous = 0.0
        for k in range(1, 6):
            value = analytic_evppi(TIE_CONFIG, range(1, k + 1))
            assert value >= previous
            previous = value

    @given(
        mean=st.floats(-50.0, 50.0),
        std=st.floats(1e-6, 50.0),
    )
    @settings(deadline=None, max_examples=100)
    def test_value_never_negative(self, mean, std):
        assert evppi_from_moments(mean, std) >= 0.0

    def test_gap_to_full_reveal_is_the_conditional_target(self):
        # the conditional estimators target full-reveal value minus subset value
        gap = analytic_evpi(TIE_CONFIG) - analytic_evppi(TIE_CONFIG, (1, 2))
        assert gap == pytest.approx(
            (math.sqrt(5) - math.sqrt(2)) / math.sqrt(2 * math.pi), abs=1e-12
        )

    def test_closed_form_against_direct_monte_carlo(self):
        # end-to-end oracle for the reduced-form value: simulate
        # max{revealed part + hidden means, 0} directly from the prior
        cfg = GaussianLinearModel(
            intercept=0.3,
            weights=(1.0, -2.0, 0.5, 1.5),
            means=(0.2, -0.1, 0.4, 0.0),
            stds=(1.0, 0.5, 2.0, 0.75),
        )
        revealed = (1, 3)
        mean_total = cfg.intercept + float(np.dot(cfg.weights, cfg.means))
        closed = analytic_evppi(cfg, revealed) + max(mean_total, 0.0)
        n = 1_000_000
        gen = RngStream(2718).generator()
        w = np.array(cfg.weights)
        idx = [0, 2]
        hidden_mean = mean_total - sum(w[i] * cfg.means[i] for i in idx)
        draws = gen.normal(
            [cfg.means[i] for i in idx], [cfg.stds[i] for i in idx], size=(n, 2)
        )
        vals = np.maximum(draws @ w[idx] + hidden_mean, 0.0)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - closed) < 4 * se


class TestModelConfigFile:
    def _write(self, tmp_path, payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        return path

    def _valid(self):
        return {
            "s": 3,
            "w0": 0.5,
            "w": [1.0, -1.0, 2.0],
            "mu": [0.0, 0.1, -0.2],
            "sigma": [1.0, 2.0, 0.5],
            "subset": [1, 3],
        }

    def test_round_trip(self, tmp_path):
        config, subset = load_model_config(self._write(tmp_path, self._valid()))
        assert config.dimension == 3
        assert config.intercept == 0.5
        assert subset == (1, 3)

    def test_subset_optional(self, tmp_path):
        payload = self._valid()
        del payload["subset"]
        _, subset = load_model_config(self._write(tmp_path, payload))
        assert subset is None

    def test_unknown_key_rejected(self, tmp_path):
        payload = self._valid()
        payload["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            load_model_config(self._write(tmp_path, payload))

    def test_missing_key_rejected(self, tmp_path):
        payload = self._valid()
        del payload["sigma"]
        with pytest.raises(ConfigError, match="sigma"):
            load_model_config(self._write(tmp_path, payload))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.update(s=0),
            lambda p: p.update(w=[1.0, 0.0, 2.0]),
            lambda p: p.update(sigma=[1.0, -2.0, 0.5]),
            lambda p: p.update(mu=[0.0, 0.1]),
            lambda p: p.update(subset=[0]),
            lambda p: p.update(subset=[1, 1]),
            lambda p: p.update(w0="abc"),
        ],
    )
    def test_invalid_payloads_rejected(self, tmp_path, mutate):
        payload = self._valid()
        mutate(payload)
        with pytest.raises(ConfigError):
            load_model_config(self._write(tmp_path, payload))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_model_config(tmp_path / "nope.json")


class TestSamplingAccuracy:
    def test_marginal_moments(self):
        _, prior, _ = make_gaussian_model(TIE_CONFIG, (1,))
        n = 100_000
        draws = prior.draw(RngStream(13).generator(), n)
        assert np.abs(draws.mean(axis=0)).max() < 4.0 / math.sqrt(n)
        se_var = math.sqrt(2.0 / (n - 1))
        assert np.abs(draws.var(axis=0, ddof=1) - 1.0).max() < 4 * se_var

    def test_payoff_at_prior_mean(self):
        cfg = GaussianLinearModel(0.7, (1.0, 2.0), (0.3, -0.1), (1.0, 1.0))
        model, _, _ = make_gaussian_model(cfg, (1,))
        values = model.payoff_matrix(np.array([cfg.means]))[0]
        assert values[0] == pytest.approx(0.7 + 0.3 - 0.2, rel=1e-15)
        assert values[1] == 0.0
