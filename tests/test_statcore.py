import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from recurweight import statcore
from recurweight.statcore import (
    LogisticFit,
    RngStream,
    SeparationError,
    WeightModelError,
    expit,
    fit_logistic,
    redraw_zeros,
)


class TestExpit:
    def test_zero(self):
        assert expit(0.0) == 0.5

    def test_known_value(self):
        # 1/(1+e^1.1392) evaluated by high-precision arithmetic
        npt.assert_allclose(expit(-1.1392), 0.24246, atol=1e-4)

    def test_saturation(self):
        # exp overflows past |x| ~ 709; the result saturates silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(expit(700.0) - 1.0) < 1e-300
            assert expit(-700.0) > 0.0
            assert expit(-800.0) == 0.0
            assert expit(800.0) == 1.0

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 3.0])
        npt.assert_allclose(expit(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)

    def test_bits_equal_the_plain_form(self):
        x = np.concatenate([[-800.0, 800.0, -710.0, 710.0, 0.0, -0.0],
                            np.random.default_rng(5).normal(0.0, 20.0, 1_000)])
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(expit(x[:1000].reshape(10, -1)), want[:1000].reshape(10, -1))
            for value, plain in zip(x[:6], want[:6]):
                scalar = expit(float(value))
                assert np.ndim(scalar) == 0 and not isinstance(scalar, np.ndarray)
                assert scalar == plain and np.signbit(scalar) == np.signbit(plain)

    def test_leaves_its_input_alone(self):
        x = np.array([-1.0, 2.0])
        expit(x)
        assert np.array_equal(x, [-1.0, 2.0])


class TestStreams:
    def test_determinism(self):
        a = RngStream(99, 3).random(100)
        b = RngStream(99, 3).random(100)
        npt.assert_array_equal(a, b)
        # the seeding rule: (seed, stream_id) is the entropy and spawn key
        # of one PCG64 SeedSequence
        stream = RngStream(2029, 7)
        assert isinstance(stream, np.random.Generator)
        plain = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(2029, spawn_key=(7,))))
        npt.assert_array_equal(stream.random(100), plain.random(100))
        npt.assert_array_equal(stream.normal(0.0, 2.0, 100), plain.normal(0.0, 2.0, 100))
        assert stream.bit_generator.state == plain.bit_generator.state

    def test_distinct_streams_differ(self):
        a = RngStream(99, 0).random(50)
        b = RngStream(99, 1).random(50)
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        u = RngStream(7).random(1_000_000)
        assert 0.497 < u.mean() < 0.503

    def test_uniform_open_interval(self):
        s = RngStream(11)
        u = redraw_zeros(s, s.random(200_000))
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniform_ks(self):
        u = RngStream(13).random(100_000)
        assert stats.kstest(u, "uniform").pvalue > 0.001

    def test_normal_unit_variance(self):
        x = RngStream(17).normal(0.0, 1.0, 1_000_000)
        assert 0.99 < x.var() < 1.01

    def test_normal_sd4_variance(self):
        x = RngStream(19).normal(0.0, 4.0, 1_000_000)
        assert 15.8 < x.var() < 16.2


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        X = np.ones((4, 1))
        y = np.array([0.0, 1.0, 1.0, 1.0])
        fit = fit_logistic(X, y)
        # MLE of intercept-only model is logit(ybar) = ln 3
        npt.assert_allclose(fit.coefficients[0], np.log(3.0), atol=1e-6)

    def test_intercept_only_balanced(self):
        fit = fit_logistic(np.ones((2, 1)), np.array([0.0, 1.0]))
        npt.assert_allclose(fit.coefficients[0], 0.0, atol=1e-8)

    def test_parameter_recovery(self):
        s = RngStream(2024)
        n = 100_000
        x = s.normal(0.0, 1.0, n)
        truth = np.array([-1.1392, np.log(1.5)])
        p = expit(truth[0] + truth[1] * x)
        y = (s.random(n) < p).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = fit_logistic(X, y)
        prob = fit.fitted_probabilities
        info = X.T @ (X * (prob * (1 - prob))[:, None])
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert np.all(np.abs(fit.coefficients - truth) < 3 * se)

    def test_constant_response_signals_separation(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(SeparationError):
            fit_logistic(X, np.ones(5))
        with pytest.raises(SeparationError):
            fit_logistic(X, np.zeros(5))

    def test_separated_covariate_signals(self):
        # perfectly separated: y = 1 iff x > 0
        x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        y = (x > 0).astype(float)
        with pytest.raises(SeparationError):
            fit_logistic(np.column_stack([np.ones(6), x]), y)

    def test_fewer_rows_than_coefficients_raise(self):
        X = np.column_stack([np.ones(2), [0.0, 1.0], [1.0, 3.0]])
        with pytest.raises(WeightModelError, match="fewer rows than coefficients"):
            fit_logistic(X, np.array([0.0, 1.0]))

    def test_iteration_cap_raises(self, monkeypatch):
        # the intercept-only fit takes more than one step from zero
        monkeypatch.setattr(statcore, "_IRLS_MAX_ITER", 1)
        with pytest.raises(WeightModelError, match="did not converge in 1 iter"):
            fit_logistic(np.ones((4, 1)), np.array([0.0, 1.0, 1.0, 1.0]))

    def test_saturated_fitted_probability_raises(self):
        # an overlapping sample plus one far outlier: the slope stays
        # near +-1, well inside the coefficient bound, but the outlier's
        # fitted probability rounds to exactly 1 (or, flipped, to 0)
        s = RngStream(47)
        x = s.normal(0.0, 1.0, 200)
        y = (s.random(200) < expit(x)).astype(float)
        x[0], y[0] = 1e3, 1.0
        X = np.column_stack([np.ones(200), x])
        for response in (y, 1.0 - y):
            with pytest.raises(SeparationError, match="saturated at 0 or 1"):
                fit_logistic(X, response)

    def test_separation_is_a_weight_model_failure(self):
        assert issubclass(SeparationError, WeightModelError)

    def test_singular_design(self):
        X = np.column_stack([np.ones(6), np.ones(6)])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        with pytest.raises(WeightModelError, match="singular information matrix"):
            fit_logistic(X, y)

    def test_intercept_score_equation(self):
        # mean fitted probability equals the response mean
        s = RngStream(31)
        n = 5000
        x = s.normal(0.0, 1.0, n)
        y = (s.random(n) < expit(0.3 - 0.8 * x)).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = fit_logistic(X, y)
        npt.assert_allclose(
            np.mean(fit.fitted_probabilities), np.mean(y), atol=1e-8
        )

    def test_fitted_probabilities_open_interval(self):
        s = RngStream(37)
        x = s.normal(0.0, 4.0, 1000)
        y = (s.random(1000) < expit(0.5 * x)).astype(float)
        fit = fit_logistic(np.column_stack([np.ones(1000), x]), y)
        assert np.all(fit.fitted_probabilities > 0.0)
        assert np.all(fit.fitted_probabilities < 1.0)

    def test_score_norm_at_convergence(self):
        s = RngStream(41)
        n = 2000
        x = s.normal(0.0, 1.0, n)
        y = (s.random(n) < expit(-0.5 + x)).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = fit_logistic(X, y)
        score = X.T @ (y - fit.fitted_probabilities)
        assert np.max(np.abs(score)) < 1e-5

    def test_deterministic(self):
        s = RngStream(43)
        x = s.normal(0.0, 1.0, 500)
        y = (s.random(500) < 0.4).astype(float)
        X = np.column_stack([np.ones(500), x])
        a = fit_logistic(X, y)
        b = fit_logistic(X, y)
        npt.assert_array_equal(a.coefficients, b.coefficients)
        assert a.n_iter == b.n_iter

    def test_result_type(self):
        fit = fit_logistic(np.ones((4, 1)), np.array([0.0, 1.0, 1.0, 1.0]))
        assert isinstance(fit, LogisticFit)
        assert fit.n_iter >= 1
