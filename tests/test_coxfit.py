import numpy as np
import numpy.testing as npt
import pytest

from recurweight import coxfit
from recurweight.coxfit import (
    CoxConvergenceError,
    MonotoneLikelihoodError,
    SurvivalSample,
    fit_weighted_cox,
    partial_loglik,
)
from recurweight.simgen import Scenario, ScenarioConfig, gen_potential_outcomes
from recurweight.statcore import RngStream, draw_uniform


def make_sample(time, event, z, w=None):
    n = len(time)
    return SurvivalSample(
        time=np.asarray(time, dtype=float),
        event=np.asarray(event, dtype=float),
        treatment=np.asarray(z, dtype=float),
        weight=np.ones(n) if w is None else np.asarray(w, dtype=float),
    )


THREE = make_sample([1.0, 2.0, 3.0], [1, 1, 1], [1, 0, 1])


def brute_score(beta, time, event, z, w):
    """Loop evaluation of the weighted partial-likelihood score."""
    u = 0.0
    for i in range(len(time)):
        if event[i] == 0:
            continue
        at_risk = time >= time[i]
        r = w[at_risk] * np.exp(beta * z[at_risk])
        u += w[i] * (z[i] - np.sum(r * z[at_risk]) / np.sum(r))
    return u


class TestPartialLoglik:
    def test_hand_value(self):
        # risk sets {1,2,3}, {2,3}, {3} at beta = 0
        want = np.log(1 / 3) + np.log(1 / 2) + np.log(1.0)
        npt.assert_allclose(partial_loglik(0.0, THREE), want, atol=1e-9)

    def test_ties_breslow(self):
        s = make_sample([1.0, 1.0, 2.0], [1, 1, 1], [1, 0, 1])
        # both tied events see the full risk set of size 3
        npt.assert_allclose(partial_loglik(0.0, s), -2 * np.log(3.0), atol=1e-12)

    def test_treatment_drops_out_when_constant(self):
        # with constant z the beta z event terms cancel the beta inside
        # log S0 exactly, leaving the pure risk-set-size pattern
        s = make_sample([2.0, 1.0, 4.0, 3.0], [1, 1, 0, 1], [1, 1, 1, 1])
        base = np.log(1 / 4) + np.log(1 / 3) + np.log(1 / 2)
        for beta in (-1.0, 0.0, 2.0):
            npt.assert_allclose(partial_loglik(beta, s), base, atol=1e-12)

    def test_weight_doubling_shifts_only(self):
        rng = RngStream(404)
        t = draw_uniform(rng, 12)
        z = (draw_uniform(rng, 12) < 0.5).astype(float)
        w = 0.5 + draw_uniform(rng, 12)
        a = make_sample(t, np.ones(12), z, w)
        b = make_sample(t, np.ones(12), z, 2 * w)
        grid = np.linspace(-2, 2, 9)
        diffs = [partial_loglik(x, b) - 2 * partial_loglik(x, a) for x in grid]
        npt.assert_allclose(diffs, diffs[0], atol=1e-9)

    def test_concavity(self):
        rng = RngStream(405)
        t = draw_uniform(rng, 30)
        z = (draw_uniform(rng, 30) < 0.5).astype(float)
        w = 0.5 + draw_uniform(rng, 30)
        d = (draw_uniform(rng, 30) < 0.8).astype(float)
        s = make_sample(t, d, z, w)
        grid = np.linspace(-4, 4, 81)
        ll = np.array([partial_loglik(b, s) for b in grid])
        second = ll[2:] - 2 * ll[1:-1] + ll[:-2]
        assert np.all(second <= 1e-10)

    def test_vector_beta_matches_scalar_calls(self):
        rng = RngStream(406)
        n = 25
        t = draw_uniform(rng, n)
        t[5] = t[6]  # a tie group
        z = (draw_uniform(rng, n) < 0.5).astype(float)
        w = 0.5 + draw_uniform(rng, n)
        w[3] = 0.0
        d = (draw_uniform(rng, n) < 0.8).astype(float)
        s = make_sample(t, d, z, w)
        grid = np.linspace(-3, 3, 13)
        got = partial_loglik(grid, s)
        assert got.shape == grid.shape
        npt.assert_allclose(got, [partial_loglik(b, s) for b in grid], rtol=1e-13)
        assert isinstance(partial_loglik(0.5, s), float)
        with pytest.raises(ValueError):
            partial_loglik(np.zeros((2, 2)), s)


class TestFitWeightedCox:
    def test_closed_form_three_subjects(self):
        fit = fit_weighted_cox(THREE)
        # score equation reduces to 2 e^{2 beta} = 1
        npt.assert_allclose(fit.log_hr, -0.5 * np.log(2.0), atol=1e-4)
        assert fit.converged
        assert fit.naive_se > 0 and fit.robust_se > 0

    def test_no_contrast_rejected(self):
        with pytest.raises(MonotoneLikelihoodError):
            fit_weighted_cox(make_sample([1.0, 2.0], [1, 1], [1, 1]))
        with pytest.raises(MonotoneLikelihoodError):
            fit_weighted_cox(make_sample([1.0, 2.0], [1, 1], [0, 0]))

    def test_no_event_in_one_arm_rejected(self):
        s = make_sample([1.0, 2.0, 3.0], [1, 0, 1], [1, 0, 1])
        with pytest.raises(MonotoneLikelihoodError):
            fit_weighted_cox(s)

    def test_monotone_escape_detected(self):
        # events in both arms but the treated event strictly precedes
        # everything else, so the score never vanishes
        s = make_sample([1.0, 2.0], [1, 1], [1, 0])
        with pytest.raises(MonotoneLikelihoodError):
            fit_weighted_cox(s)

    @pytest.mark.parametrize("scale", [1.0, 0.25])
    def test_flat_tail_rejected(self, scale):
        # the one treated event is alone at risk, so the likelihood rises
        # forever as beta -> -inf; an absolute score tolerance is met on
        # the flat tail (log HR -19.23, or -18.23 at weights x 0.25)
        # before the iterate escapes |beta| > 20
        s = make_sample(
            [2.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0], scale * np.array([1.0, 1, 1, 1, 3, 0.5]),
        )
        with pytest.raises(MonotoneLikelihoodError):
            fit_weighted_cox(s)

    def test_grid_search_agreement(self):
        rng = RngStream(77)
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
        done = 0
        while done < 50:
            n = int(3 + draw_uniform(rng) * 6)
            t = draw_uniform(rng, n)
            z = (draw_uniform(rng, n) < 0.5).astype(float)
            d = np.ones(n)
            if z.min() == z.max():
                continue
            s = make_sample(t, d, z, 0.5 + 1.5 * draw_uniform(rng, n))
            try:
                fit = fit_weighted_cox(s)
            except MonotoneLikelihoodError:
                continue
            ll = partial_loglik(grid, s)
            best = grid[np.argmax(ll)]
            assert abs(fit.log_hr - best) <= 2e-4
            done += 1

    def test_score_vanishes_at_optimum(self):
        rng = RngStream(78)
        n = 500
        t = -np.log(draw_uniform(rng, n))
        z = (draw_uniform(rng, n) < 0.4).astype(float)
        w = 0.5 + draw_uniform(rng, n)
        s = make_sample(t, np.ones(n), z, w)
        fit = fit_weighted_cox(s)
        u = brute_score(fit.log_hr, s.time, s.event, s.treatment, s.weight)
        assert abs(u) < 1e-9 * n

    def test_permutation_invariance(self):
        rng = RngStream(79)
        n = 60
        t = draw_uniform(rng, n)
        z = (draw_uniform(rng, n) < 0.5).astype(float)
        d = (draw_uniform(rng, n) < 0.9).astype(float)
        w = 0.5 + draw_uniform(rng, n)
        s = make_sample(t, d, z, w)
        fit = fit_weighted_cox(s)
        perm = np.argsort(draw_uniform(rng, n))
        s2 = make_sample(t[perm], d[perm], z[perm], w[perm])
        fit2 = fit_weighted_cox(s2)
        npt.assert_allclose(fit2.log_hr, fit.log_hr, atol=1e-12)
        npt.assert_allclose(fit2.naive_se, fit.naive_se, atol=1e-12)
        npt.assert_allclose(fit2.robust_se, fit.robust_se, atol=1e-12)

    def test_weight_scale_invariance(self):
        rng = RngStream(80)
        n = 80
        t = draw_uniform(rng, n)
        z = (draw_uniform(rng, n) < 0.5).astype(float)
        w = 0.5 + draw_uniform(rng, n)
        a = fit_weighted_cox(make_sample(t, np.ones(n), z, w))
        b = fit_weighted_cox(make_sample(t, np.ones(n), z, 7.3 * w))
        npt.assert_allclose(b.log_hr, a.log_hr, atol=1e-10)
        npt.assert_allclose(b.robust_se, a.robust_se, atol=1e-10)
        # the naive variance is not scale-invariant; make sure the
        # sandwich result above is not a trivial consequence of rescaling
        assert abs(b.naive_se - a.naive_se) > 1e-3 * a.naive_se

    def test_marginal_contrast_large_sample(self):
        # covariate-free contrast on an exponential outcome recovers
        # the generating log hazard ratio
        rng = RngStream(81)
        n = 100_000
        beta = 0.6931
        z = np.concatenate([np.ones(n // 2), np.zeros(n // 2)])
        u = draw_uniform(rng, n)
        t = -np.log(u) / np.exp(beta * z)
        fit = fit_weighted_cox(make_sample(t, np.ones(n), z))
        npt.assert_allclose(fit.log_hr, beta, atol=3 * fit.naive_se)

    def test_robust_flag_leaves_estimate_unchanged(self):
        rng = RngStream(85)
        n = 300
        t = draw_uniform(rng, n)
        z = (draw_uniform(rng, n) < 0.5).astype(float)
        d = (draw_uniform(rng, n) < 0.9).astype(float)
        w = 0.5 + draw_uniform(rng, n)
        s = make_sample(t, d, z, w)
        full = fit_weighted_cox(s)
        bare = fit_weighted_cox(s, robust=False)
        assert bare.log_hr == full.log_hr
        assert bare.naive_se == full.naive_se
        assert bare.n_iter == full.n_iter
        assert np.isnan(bare.robust_se) and np.isfinite(full.robust_se)

    def test_exhausted_halving_without_convergence_raises(self, monkeypatch):
        # every trial step lowers the likelihood by far more than
        # rounding, so step-halving can never restore ascent
        real = coxfit._loglik_at

        def falling(beta, *args):
            loglik, s0, s1 = real(beta, *args)
            return (loglik - 1.0 if beta != 0.0 else loglik), s0, s1

        monkeypatch.setattr(coxfit, "_loglik_at", falling)
        with pytest.raises(CoxConvergenceError, match="no ascent"):
            fit_weighted_cox(THREE)

    def test_nan_likelihood_is_not_an_ascent(self, monkeypatch):
        real = coxfit._loglik_at

        def poisoned(beta, *args):
            loglik, s0, s1 = real(beta, *args)
            return (np.nan if beta != 0.0 else loglik), s0, s1

        monkeypatch.setattr(coxfit, "_loglik_at", poisoned)
        with pytest.raises(CoxConvergenceError):
            fit_weighted_cox(THREE)

    def test_census_fit_does_not_crawl_at_the_noise_floor(self, monkeypatch):
        # both forced arms of a 10^6-subject census at seed 202, fitted
        # at log HR 2 ln 2 + 0.5: this fit once took 16 Newton
        # iterations and 89 likelihood evaluations, because rounding
        # noise in a likelihood of |ll| ~ 2.7e7 made step-halving
        # reject good steps; a fit whose every step is accepted
        # evaluates once per iterate
        n, beta = 1_000_000, 2.0 * np.log(2.0) + 0.5
        cfg = ScenarioConfig(Scenario.TVTreatmentCovariates, n_subjects=n)
        control = np.sort(gen_potential_outcomes(cfg, RngStream(202))["w1_control"])
        sample = SurvivalSample(
            time=np.concatenate([control * np.exp(-beta), control]),
            event=np.ones(2 * n),
            treatment=np.concatenate([np.ones(n), np.zeros(n)]),
            weight=np.ones(2 * n),
        )
        del control
        evaluations = []
        real_loglik = coxfit._loglik_at

        def counting_loglik(beta, *args):
            evaluations.append(beta)
            return real_loglik(beta, *args)

        monkeypatch.setattr(coxfit, "_loglik_at", counting_loglik)
        fit = fit_weighted_cox(sample, robust=False)
        assert fit.n_iter <= 6
        assert len(evaluations) == fit.n_iter + 1


class TestRobustVariance:
    def test_one_sort_per_fit(self, monkeypatch):
        # ties, censored rows and zero weights take every branch of the
        # fit and its sandwich; the time sort is the only sort
        rng = RngStream(86)
        n = 400
        t = np.round(draw_uniform(rng, n), 2) + 0.01
        z = (draw_uniform(rng, n) < 0.5).astype(float)
        d = (draw_uniform(rng, n) < 0.85).astype(float)
        w = 0.5 + draw_uniform(rng, n)
        w[::37] = 0.0
        s = make_sample(t, d, z, w)
        calls = {}
        for name in ("argsort", "sort", "unique", "lexsort"):
            real = getattr(np, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        fit = fit_weighted_cox(s)
        monkeypatch.undo()
        assert np.isfinite(fit.robust_se)
        assert calls == {"argsort": 1}

    def test_finite_difference_oracle(self):
        # s_i = w_i dU/dw_i, so the meat can be rebuilt from numerical
        # derivatives of the brute-force score
        time = np.array([0.9, 1.7, 0.4, 2.2, 1.1])
        event = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
        z = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        w = np.array([1.2, 0.7, 1.0, 1.5, 0.9])
        fit = fit_weighted_cox(SurvivalSample(time, event, z, w))
        eps = 1e-6
        resid = np.empty(5)
        for i in range(5):
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            du = (
                brute_score(fit.log_hr, time, event, z, wp)
                - brute_score(fit.log_hr, time, event, z, wm)
            ) / (2 * eps)
            resid[i] = w[i] * du
        meat = np.sum(resid**2)
        # observed information via central difference of the brute score
        h = 1e-6
        info = -(
            brute_score(fit.log_hr + h, time, event, z, w)
            - brute_score(fit.log_hr - h, time, event, z, w)
        ) / (2 * h)
        want = meat / info**2
        npt.assert_allclose(fit.robust_se**2, want, rtol=1e-6)

    def test_singleton_null_matches_naive(self):
        rng = RngStream(82)
        n = 4000
        t = -np.log(draw_uniform(rng, n))
        z = (draw_uniform(rng, n) < 0.5).astype(float)
        fit = fit_weighted_cox(make_sample(t, np.ones(n), z))
        assert 0.9 < fit.robust_se / fit.naive_se < 1.1

    def test_zero_weight_cluster_contributes_nothing(self):
        rng = RngStream(83)
        n = 40
        t = draw_uniform(rng, n)
        z = (draw_uniform(rng, n) < 0.5).astype(float)
        w = 0.5 + draw_uniform(rng, n)
        base = fit_weighted_cox(make_sample(t, np.ones(n), z, w))
        padded = fit_weighted_cox(make_sample(
            np.concatenate([t, [0.5, 1.5]]),
            np.concatenate([np.ones(n), [1.0, 0.0]]),
            np.concatenate([z, [1.0, 0.0]]),
            np.concatenate([w, [0.0, 0.0]]),
        ))
        npt.assert_allclose(padded.robust_se, base.robust_se, rtol=1e-12)


class TestSampleValidation:
    def test_nonpositive_time(self):
        with pytest.raises(ValueError):
            make_sample([1.0, 0.0], [1, 1], [1, 0])

    @pytest.mark.parametrize(
        "time, event, z",
        [
            ([1.0, np.nan], [1, 1], [1, 0]),
            ([1.0, np.inf], [1, 1], [1, 0]),
            ([1.0, 2.0], [1, 2], [1, 0]),
            ([1.0, 2.0], [1, 0.5], [1, 0]),
            ([1.0, 2.0], [1, 1], [1, 0.5]),
            ([1.0, 2.0], [1, 1], [2, 0]),
            ([1.0, 2.0], [1, 1], [-1, 0]),
        ],
    )
    def test_rejects_nonfinite_time_and_nonbinary_columns(self, time, event, z):
        with pytest.raises(ValueError):
            make_sample(time, event, z)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            make_sample([1.0, 2.0], [1, 1], [1, 0], w=[1.0, -0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SurvivalSample(
                np.array([1.0, 2.0]),
                np.array([1.0]),
                np.array([1.0, 0.0]),
                np.array([1.0, 1.0]),
            )
