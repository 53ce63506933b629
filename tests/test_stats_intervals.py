"""Tests for confidence and prediction intervals."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core.evaluate import mean_confidence_interval
from repro.errors import ModelError
from repro.stats.intervals import (
    Interval,
    _critical_t,
    confidence_interval_mean_response,
    interval_band,
    multiple_confidence_interval,
    multiple_prediction_interval,
    prediction_interval_new_response,
)
from repro.stats.regression import fit_multiple, fit_simple


def _fit(noise=0.5, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    y = 2.0 * x + 1.0 + rng.normal(0, noise, n)
    return fit_simple(x, y), x, y


class TestIntervalType:
    def test_half_width(self):
        interval = Interval(center=5.0, low=4.0, high=6.0, confidence=0.95)
        assert interval.half_width == pytest.approx(1.0)

    def test_contains(self):
        interval = Interval(center=5.0, low=4.0, high=6.0, confidence=0.95)
        assert interval.contains(4.0)
        assert interval.contains(6.0)
        assert not interval.contains(6.01)

    def test_percent_half_width(self):
        interval = Interval(center=10.0, low=9.0, high=11.0, confidence=0.95)
        assert interval.percent_half_width == pytest.approx(10.0)

    def test_percent_half_width_zero_center(self):
        interval = Interval(center=0.0, low=-1.0, high=1.0, confidence=0.95)
        assert interval.percent_half_width == 0.0


class TestSimpleIntervals:
    def test_pi_contains_ci(self):
        fit, x, _ = _fit()
        for x0 in (0.0, 5.0, 12.0):
            ci = confidence_interval_mean_response(fit, x0)
            pi = prediction_interval_new_response(fit, x0)
            assert pi.low < ci.low
            assert pi.high > ci.high
            assert ci.center == pytest.approx(pi.center)

    def test_interval_centered_on_prediction(self):
        fit, _, _ = _fit()
        ci = confidence_interval_mean_response(fit, 3.0)
        assert ci.center == pytest.approx(fit.predict(3.0))
        assert (ci.low + ci.high) / 2 == pytest.approx(ci.center)

    def test_ci_narrowest_at_x_mean(self):
        fit, _, _ = _fit()
        widths = [
            confidence_interval_mean_response(fit, x0).half_width
            for x0 in (fit.x_mean, fit.x_mean + 3, fit.x_mean - 5)
        ]
        assert widths[0] < widths[1]
        assert widths[0] < widths[2]

    def test_higher_confidence_wider(self):
        fit, _, _ = _fit()
        narrow = confidence_interval_mean_response(fit, 2.0, confidence=0.90)
        wide = confidence_interval_mean_response(fit, 2.0, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_matches_scipy_slope_stderr(self):
        fit, x, y = _fit(noise=1.0, seed=2)
        result = scipy_stats.linregress(x, y)
        assert fit.slope_stderr == pytest.approx(result.stderr, rel=1e-9)

    def test_bad_confidence_rejected(self):
        fit, _, _ = _fit()
        with pytest.raises(ModelError):
            confidence_interval_mean_response(fit, 1.0, confidence=1.5)

    def test_band_consistent_with_pointwise(self):
        fit, _, _ = _fit()
        grid = [0.0, 2.0, 4.0]
        line, ci_low, ci_high, pi_low, pi_high = interval_band(fit, grid)
        for i, x0 in enumerate(grid):
            ci = confidence_interval_mean_response(fit, x0)
            pi = prediction_interval_new_response(fit, x0)
            assert line[i] == pytest.approx(fit.predict(x0))
            assert ci_low[i] == pytest.approx(ci.low)
            assert ci_high[i] == pytest.approx(ci.high)
            assert pi_low[i] == pytest.approx(pi.low)
            assert pi_high[i] == pytest.approx(pi.high)

    def test_ci_coverage_monte_carlo(self):
        """~95% of refits should cover the true mean response."""
        true = 2.0 * 4.0 + 1.0
        rng = np.random.default_rng(42)
        covered = 0
        trials = 300
        for _ in range(trials):
            x = rng.uniform(0, 10, 30)
            y = 2.0 * x + 1.0 + rng.normal(0, 1.0, 30)
            ci = confidence_interval_mean_response(fit_simple(x, y), 4.0)
            if ci.contains(true):
                covered += 1
        assert 0.90 <= covered / trials <= 0.99

    def test_pi_coverage_monte_carlo(self):
        """~95% of new observations should land inside the PI."""
        rng = np.random.default_rng(43)
        covered = 0
        trials = 300
        for _ in range(trials):
            x = rng.uniform(0, 10, 30)
            y = 2.0 * x + 1.0 + rng.normal(0, 1.0, 30)
            pi = prediction_interval_new_response(fit_simple(x, y), 4.0)
            new_obs = 2.0 * 4.0 + 1.0 + rng.normal(0, 1.0)
            if pi.contains(new_obs):
                covered += 1
        assert 0.90 <= covered / trials <= 0.99


class TestMultipleIntervals:
    def _multi_fit(self):
        rng = np.random.default_rng(3)
        x1 = rng.uniform(0, 5, 50)
        x2 = rng.uniform(0, 5, 50)
        y = 1.5 * x1 + 0.5 * x2 + 2.0 + rng.normal(0, 0.3, 50)
        return fit_multiple([x1, x2], y)

    def test_pi_contains_ci(self):
        fit = self._multi_fit()
        ci = multiple_confidence_interval(fit, [1.0, 2.0])
        pi = multiple_prediction_interval(fit, [1.0, 2.0])
        assert pi.low < ci.low < ci.high < pi.high

    def test_centered_on_prediction(self):
        fit = self._multi_fit()
        ci = multiple_confidence_interval(fit, [1.0, 2.0])
        assert ci.center == pytest.approx(fit.predict([1.0, 2.0]))

    def test_wrong_dimension_rejected(self):
        fit = self._multi_fit()
        with pytest.raises(ModelError):
            multiple_confidence_interval(fit, [1.0])

    def test_single_regressor_matches_simple(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 10, 40)
        y = 2.0 * x + 1.0 + rng.normal(0, 0.5, 40)
        simple = fit_simple(x, y)
        multi = fit_multiple([x], y)
        simple_ci = confidence_interval_mean_response(simple, 3.0)
        multi_ci = multiple_confidence_interval(multi, [3.0])
        assert multi_ci.low == pytest.approx(simple_ci.low, rel=1e-9)
        assert multi_ci.high == pytest.approx(simple_ci.high, rel=1e-9)


class TestCriticalValuesMatchScipyStats:
    """``scipy.special.stdtrit`` is bit-identical to ``scipy.stats.t.ppf``."""

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize("dof", [1, 2, 3, 7, 38, 98, 1000])
    def test_critical_t(self, confidence, dof):
        expected = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
        assert _critical_t(confidence, dof) == expected

    @pytest.mark.parametrize("n", [2, 5, 12, 100])
    def test_mean_confidence_interval(self, n):
        values = np.random.default_rng(n).normal(1.3, 0.2, n)
        interval = mean_confidence_interval(values, confidence=0.95)
        t_star = float(scipy_stats.t.ppf(0.975, n - 1))
        half = t_star * (float(values.std(ddof=1)) / np.sqrt(n))
        assert interval.center + half == interval.high
