import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from voimc import (
    ConfigError,
    GaussianLinearModel,
    RngStream,
    analytic_evppi,
    load_model_config,
    make_gaussian_model,
)
from voimc.gaussian import _gaussian_sampler, evppi_from_moments

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

    @pytest.mark.parametrize("s", [0.1, 1.0, 7.3])
    def test_matches_the_scipy_form_it_replaces(self, s):
        # the earlier closed form took the cdf from scipy's ndtr.  Both forms
        # subtract a cdf term from the pdf term, so they are compared relative
        # to the pdf term; in the tails the value is smaller than it by a
        # factor that grows like (m/s)**2, about 67 at |m/s| = 8
        for t in np.linspace(-8.0, 8.0, 161):
            m = t * s
            z = -m / s
            pdf_term = _density(z) * s
            if m > 0.0:
                scipy_form = pdf_term - float(ndtr(z)) * m
            else:
                scipy_form = pdf_term + float(ndtr(-z)) * m
            assert abs(evppi_from_moments(m, s) - scipy_form) <= 1e-13 * pdf_term

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

    @pytest.mark.parametrize(
        "mean, std",
        [(0.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
         (0.0, math.inf)],
        ids=repr,
    )
    def test_non_finite_moments_rejected(self, mean, std):
        # the closed form would return nan for each
        with pytest.raises(ValueError, match="must be finite"):
            evppi_from_moments(mean, std)

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
            lambda p: p.update(w0="0.5"),
            lambda p: p.update(w=[1.0, "1", 2.0]),
            lambda p: p.update(sigma=[1.0, True, 0.5]),
            lambda p: p.update(mu=[0.0, 10**400, 0.0]),
        ],
    )
    def test_invalid_payloads_rejected(self, tmp_path, mutate):
        payload = self._valid()
        mutate(payload)
        with pytest.raises(ConfigError):
            load_model_config(self._write(tmp_path, payload))

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("key", ["w0", "w", "mu", "sigma"])
    def test_non_finite_values_rejected(self, tmp_path, key, value):
        payload = self._valid()
        if key == "w0":
            payload[key] = value
        else:
            payload[key][1] = value
        path = self._write(tmp_path, payload)
        assert ("NaN" if math.isnan(value) else "Infinity") in path.read_text()
        with pytest.raises(ConfigError, match="must be finite"):
            load_model_config(path)

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

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 65543])
    def test_payoff_bitwise_equal_to_column_stack(self, n):
        cfg = GaussianLinearModel(0.7, (1.0, -2.0, 0.3), (0.3, -0.1, 2.0), (1.0, 0.5, 3.0))
        model, prior, _ = make_gaussian_model(cfg, (1,))
        xs = prior.draw(RngStream(65, (n,)).generator(), n)
        got = model.payoff_matrix(xs)
        w = np.asarray(cfg.weights)
        want = np.column_stack((xs @ w + cfg.intercept, np.zeros(n)))
        assert got.shape == want.shape == (n, 2)
        assert got.tobytes() == want.tobytes()


class TestGaussianKernel:
    """`_gaussian_sampler` scales and shifts numpy's standard normals in place."""

    MEANS = np.array([0.5, -1.25, 3.0])
    STDS = np.array([2.0, 0.1, 7.5])

    def _reference(self, gen, size):
        z = gen.standard_normal((size, self.MEANS.shape[0]))
        return self.MEANS + self.STDS * z

    # from 1024 rows on, whole 64-row blocks are scaled apart from the last
    # size % 64 rows: sizes on both sides of that bound and of a block
    # boundary, at every width the bundled models ask for, 0 being the hidden
    # block of a full reveal
    @pytest.mark.parametrize("width", [0, 1, 3, 5])
    @pytest.mark.parametrize(
        "size", [0, 1, 63, 64, 65, 1023, 1024, 1025, 1087, 1088, 1089, 65543]
    )
    def test_bitwise_equal_to_out_of_place_formula(self, size, width):
        means = np.linspace(-1.25, 3.0, width)
        stds = np.linspace(0.1, 7.3, width)
        draw = _gaussian_sampler(means, stds)
        got = draw(RngStream(61, (size,)).generator(), size)
        z = RngStream(61, (size,)).generator().standard_normal((size, width))
        want = means + stds * z
        assert got.shape == (size, width)
        assert got.tobytes() == want.tobytes()

    def test_result_aliases_no_parameter(self):
        means, stds = self.MEANS.copy(), self.STDS.copy()
        gen = RngStream(63).generator()
        twin = RngStream(63).generator()
        draw = _gaussian_sampler(means, stds)
        first = draw(gen, 4)
        assert not np.shares_memory(first, means)
        assert not np.shares_memory(first, stds)
        first[...] = np.nan
        self._reference(twin, 4)  # the twin skips the first block
        second = draw(gen, 4)
        assert second.tobytes() == self._reference(twin, 4).tobytes()
        assert means.tobytes() == self.MEANS.tobytes()
        assert stds.tobytes() == self.STDS.tobytes()

    @pytest.mark.parametrize("sampler", ["prior", "marginal", "conditional"])
    def test_rows_do_not_depend_on_chunking(self, sampler):
        # a stream gives the same rows whether they are drawn in one call or
        # in several, so a run's bits do not depend on its chunk sizes; every
        # sampler below draws two-dimensional rows
        two = GaussianLinearModel(0.2, (1.0, -2.0), (0.5, -1.0), (1.5, 0.25))
        four = GaussianLinearModel(
            0.2, (1.0, -2.0, 3.0, 0.5), (0.5, -1.0, 0.0, 2.0), (1.5, 0.25, 2.0, 1.0)
        )
        _, prior, _ = make_gaussian_model(two, (1,))
        _, _, factored = make_gaussian_model(four, (1, 3))
        draw = {
            "prior": prior.draw,
            "marginal": factored.draw_marginal,
            "conditional": lambda gen, n: factored.draw_conditional(
                np.zeros((n, 2)), gen, 1
            ),
        }[sampler]
        one_call = draw(RngStream(64).generator(), 1000)
        assert one_call.shape == (1000, 2)
        gen = RngStream(64).generator()
        split = np.concatenate([draw(gen, n) for n in (1, 333, 2, 664)])
        assert split.tobytes() == one_call.tobytes()
