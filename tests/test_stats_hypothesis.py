"""Tests for t-tests and the F-test."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import ModelError
from repro.stats.hypothesis_tests import (
    f_test_regression,
    t_test_correlation,
    t_test_slope,
)
from repro.stats.normality import jarque_bera
from repro.stats.regression import fit_multiple, fit_simple


def _correlated(n=40, noise=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    y = 2.0 * x + rng.normal(0, noise, n)
    return x, y


def _uncorrelated(n=40, seed=1):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, n), rng.normal(0, 1, n)


class TestCorrelationTTest:
    def test_correlated_rejects_null(self):
        x, y = _correlated()
        assert t_test_correlation(x, y).rejects_null(0.05)

    def test_uncorrelated_fails_to_reject(self):
        x, y = _uncorrelated()
        assert not t_test_correlation(x, y).rejects_null(0.05)

    def test_matches_scipy_pearsonr(self):
        x, y = _correlated(noise=5.0, seed=2)
        ours = t_test_correlation(x, y)
        theirs = scipy_stats.pearsonr(x, y)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)

    def test_perfect_correlation_p_zero(self):
        x = np.arange(10, dtype=float)
        result = t_test_correlation(x, 2.0 * x)
        assert result.p_value == 0.0

    def test_dof(self):
        x, y = _correlated(n=25)
        assert t_test_correlation(x, y).dof == 23

    def test_too_few_points(self):
        with pytest.raises(ModelError):
            t_test_correlation([1.0, 2.0], [1.0, 2.0])

    def test_bad_alpha_rejected(self):
        x, y = _correlated()
        with pytest.raises(ModelError):
            t_test_correlation(x, y).rejects_null(alpha=0.0)


class TestSlopeTTest:
    def test_equivalent_to_correlation_test(self):
        x, y = _correlated(noise=3.0, seed=3)
        corr = t_test_correlation(x, y)
        slope = t_test_slope(fit_simple(x, y))
        assert slope.statistic == pytest.approx(corr.statistic, rel=1e-9)
        assert slope.p_value == pytest.approx(corr.p_value, rel=1e-9)

    def test_null_slope_shifts_statistic(self):
        x, y = _correlated(noise=0.1)
        fit = fit_simple(x, y)
        near_true = t_test_slope(fit, null_slope=2.0)
        far = t_test_slope(fit, null_slope=0.0)
        assert abs(near_true.statistic) < abs(far.statistic)
        assert not near_true.rejects_null(0.05)


class TestFTest:
    def test_strong_model_rejects(self):
        rng = np.random.default_rng(4)
        x1 = rng.uniform(0, 5, 50)
        x2 = rng.uniform(0, 5, 50)
        y = 2.0 * x1 - x2 + rng.normal(0, 0.2, 50)
        result = f_test_regression(fit_multiple([x1, x2], y))
        assert result.rejects_null(0.05)
        assert result.dof_model == 2
        assert result.dof_residual == 47

    def test_noise_model_fails_to_reject(self):
        rng = np.random.default_rng(5)
        x1 = rng.normal(0, 1, 40)
        x2 = rng.normal(0, 1, 40)
        y = rng.normal(0, 1, 40)
        result = f_test_regression(fit_multiple([x1, x2], y))
        assert not result.rejects_null(0.05)

    def test_f_matches_r2_identity(self):
        rng = np.random.default_rng(6)
        x1 = rng.uniform(0, 5, 30)
        y = x1 + rng.normal(0, 1.0, 30)
        fit = fit_multiple([x1], y)
        result = f_test_regression(fit)
        r2 = fit.r_squared
        expected = (r2 / 1) / ((1 - r2) / (30 - 2))
        assert result.statistic == pytest.approx(expected)

    def test_single_regressor_f_equals_t_squared(self):
        x, y = _correlated(noise=2.0, seed=7)
        t_result = t_test_correlation(x, y)
        f_result = f_test_regression(fit_multiple([x], y))
        assert f_result.statistic == pytest.approx(t_result.statistic**2, rel=1e-9)
        assert f_result.p_value == pytest.approx(t_result.p_value, rel=1e-6)

    def test_perfect_fit_p_tiny(self):
        x = np.arange(10, dtype=float)
        result = f_test_regression(fit_multiple([x], 3.0 * x + 1.0))
        assert result.p_value < 1e-50


class TestSpecialFunctionsMatchScipyStats:
    """The ``scipy.special`` tails are bit-identical to ``scipy.stats``."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("noise", [0.5, 5.0, 40.0])
    def test_t_tests(self, seed, noise):
        x, y = _correlated(n=8 + 7 * seed, noise=noise, seed=seed)
        for result in (t_test_correlation(x, y), t_test_slope(fit_simple(x, y), 1.5)):
            expected = 2.0 * float(scipy_stats.t.sf(abs(result.statistic), result.dof))
            assert result.p_value == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_f_test(self, seed):
        rng = np.random.default_rng(seed)
        n = 12 + 5 * seed
        X = rng.uniform(0, 10, (n, 3))
        y = X @ [0.3, -0.1, 0.05] + rng.normal(0, 2.0, n)
        result = f_test_regression(fit_multiple(list(X.T), y))
        expected = float(
            scipy_stats.f.sf(result.statistic, result.dof_model, result.dof_residual)
        )
        assert result.p_value == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_jarque_bera(self, seed):
        rng = np.random.default_rng(seed)
        sample = rng.gamma(1.0 + seed, size=30 + 10 * seed)
        result = jarque_bera(sample)
        assert result.p_value == float(scipy_stats.chi2.sf(result.statistic, df=2))


def test_cli_import_leaves_scipy_stats_unloaded():
    """Start-up pays for ``scipy.special`` only, not ``scipy.stats``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "False"
