"""Posterior prediction, metrics, and agreement with the dense GP formulas."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve

from lfmrff.features import NumericsWarning, sample_frequencies
from lfmrff.kernels import approx_cov, feature_matrix, latent_feature_matrix
from lfmrff.likelihood import FitResult, low_rank_log_marginal, noise_vector
from lfmrff.model import DataError, Dataset, LfmSpec, MogpSpec, Ode1Params, pack
from lfmrff.mogp import mogp_feature_matrix, sample_spectral
from lfmrff.predict import nlpd, nmse, predict_latent_forces, predict_outputs

SPEC = LfmSpec((Ode1Params(1.0), Ode1Params(2.0)), 1, [1.0],
               [[1.0], [0.8]], [0.05, 0.1])
SEED, S = 13, 40


def make_fit(spec=SPEC, seed=SEED, s=S):
    return FitResult(
        spec=spec, packed=pack(spec), final_lml=0.0, trace=(),
        seed=seed, num_samples=s, iterations=0, status="converged",
    )


def trained_state(spec=SPEC, seed=SEED, s=S, n=24, noise=None):
    rng = np.random.default_rng(99)
    t = np.sort(rng.uniform(0.05, 3.0, n))
    ids = rng.integers(1, 3, size=n)
    y = np.sin(1.3 * t) + 0.1 * rng.normal(size=n)
    data = Dataset(ids, t, y)
    draws = sample_frequencies(s, spec.num_forces, seed)
    fm = feature_matrix(data.inputs, data.output_ids, spec, draws)
    nv = noise_vector(spec, data.output_ids) if noise is None else noise
    _, state = low_rank_log_marginal(fm, nv, data.y)
    return data, draws, state


class TestAgainstDenseGp:
    def test_woodbury_agreement(self):
        # Function-space posterior with K = Phi_c Phi_c^T must match the
        # weight-space computation through the Woodbury identity.
        data, draws, state = trained_state()
        fit = make_fit()
        t_star = np.linspace(0.1, 2.9, 15)
        ids_star = np.tile([1, 2], 8)[:15]
        test = Dataset(ids_star, t_star, np.zeros(15))
        post = predict_outputs(fit, state, test, include_noise=False)

        fm_tr = feature_matrix(data.inputs, data.output_ids, SPEC, draws)
        fm_te = feature_matrix(t_star, ids_star, SPEC, draws)
        k_tr = approx_cov(fm_tr)
        k_cross = approx_cov(fm_te, fm_tr)
        k_te = approx_cov(fm_te)
        m = k_tr + np.diag(noise_vector(SPEC, data.output_ids))
        solve = np.linalg.solve(m, data.y)
        mean_dense = k_cross @ solve
        cov_dense = k_te - k_cross @ np.linalg.solve(m, k_cross.T)
        assert_allclose(post.mean, mean_dense, atol=1e-8)
        assert_allclose(post.variance, np.diag(cov_dense), atol=1e-8)

    def test_latent_woodbury_agreement(self):
        data, draws, state = trained_state()
        fit = make_fit()
        times = np.linspace(0.0, 3.0, 11)
        post = predict_latent_forces(fit, state, times, 1)

        fm_tr = feature_matrix(data.inputs, data.output_ids, SPEC, draws)
        lf = latent_feature_matrix(times, 1, SPEC, draws)
        k_tr = approx_cov(fm_tr)
        k_cross = approx_cov(lf, fm_tr)
        k_uu = approx_cov(lf)
        m = k_tr + np.diag(noise_vector(SPEC, data.output_ids))
        mean_dense = k_cross @ np.linalg.solve(m, data.y)
        cov_dense = k_uu - k_cross @ np.linalg.solve(m, k_cross.T)
        assert_allclose(post.mean, mean_dense, atol=1e-8)
        assert_allclose(post.variance, np.diag(cov_dense), atol=1e-8)


def n_rhs_variance(phi_c, state):
    """phi A^-1 phi^T through a Cholesky solve with N right-hand sides."""
    return np.einsum("ij,ji->i", phi_c, cho_solve((state.chol_a, True), phi_c.T))


class TestVarianceFromInverseFactor:
    def test_outputs_match_n_rhs_solve(self):
        _, draws, state = trained_state()
        t_star = np.linspace(0.05, 3.5, 31)
        ids_star = np.tile([1, 2], 16)[:31]
        test = Dataset(ids_star, t_star, np.zeros(31))
        post = predict_outputs(make_fit(), state, test, include_noise=False)
        phi_c = feature_matrix(t_star, ids_star, SPEC, draws).phi_c
        assert_allclose(post.variance, n_rhs_variance(phi_c, state), rtol=1e-12)
        # each output's rows are one block, with the bits of its own product
        for d in (1, 2):
            rows = ids_star == d
            assert_array_equal(post.mean[rows], phi_c[rows] @ state.solve_a(state.alpha))

    def test_latent_forces_match_n_rhs_solve(self):
        _, draws, state = trained_state()
        times = np.linspace(0.0, 3.5, 29)
        post = predict_latent_forces(make_fit(), state, times, 1)
        phi_c = latent_feature_matrix(times, 1, SPEC, draws).phi_c
        assert_allclose(post.variance, n_rhs_variance(phi_c, state), rtol=1e-12)
        assert_array_equal(post.mean, phi_c @ state.solve_a(state.alpha))

    def test_near_singular_variances_nonnegative_without_warning(self):
        # Duplicated rows with noise 1e-10 make A = I + Phi^T Sigma^-1 Phi
        # ill-conditioned; rowsum(W^2) still cannot go below zero.
        spec = LfmSpec(SPEC.outputs, 1, SPEC.lengthscales, SPEC.sensitivities,
                       [1e-10, 1e-10])
        rng = np.random.default_rng(3)
        t = np.tile(np.sort(rng.uniform(0.05, 3.0, 40)), 2)
        ids = np.tile(rng.integers(1, 3, size=40), 2)
        draws = sample_frequencies(100, 1, SEED)
        fm = feature_matrix(t, ids, spec, draws)
        _, state = low_rank_log_marginal(fm, np.full(t.size, 1e-10), np.sin(1.3 * t))
        fit = make_fit(spec=spec, s=100)
        grid = np.linspace(0.0, 3.0, 61)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericsWarning)
            outs = predict_outputs(fit, state, Dataset(ids, t, np.zeros(t.size)),
                                   include_noise=False)
            latent = predict_latent_forces(fit, state, grid, 1)
        assert np.all(outs.variance >= 0)
        assert np.all(latent.variance >= 0)


class TestPosteriorProperties:
    def test_prior_latent_variance_is_one(self):
        # Conditioning on nothing: the latent force marginal is exactly 1.
        spec = SPEC
        draws = sample_frequencies(S, 1, SEED)
        fm = feature_matrix(np.empty(0), np.empty(0, int), spec, draws)
        _, state = low_rank_log_marginal(fm, np.empty(0), np.empty(0))
        post = predict_latent_forces(make_fit(), state, np.linspace(0, 3, 7), 1)
        assert_allclose(post.mean, 0.0, atol=0)
        assert_allclose(post.variance, 1.0, rtol=1e-12)

    def test_conditioning_shrinks_latent_variance(self):
        _, _, state = trained_state()
        post = predict_latent_forces(make_fit(), state, np.linspace(0.2, 2.8, 9), 1)
        assert np.all(post.variance <= 1.0 + 1e-12)
        assert post.includes_noise is False

    def test_mean_linear_in_y_variance_independent(self):
        data, draws, _ = trained_state()
        fm = feature_matrix(data.inputs, data.output_ids, SPEC, draws)
        nv = noise_vector(SPEC, data.output_ids)
        _, st1 = low_rank_log_marginal(fm, nv, data.y)
        _, st2 = low_rank_log_marginal(fm, nv, 2.0 * data.y)
        test = Dataset(np.array([1, 2]), np.array([0.5, 1.5]), np.zeros(2))
        fit = make_fit()
        p1 = predict_outputs(fit, st1, test)
        p2 = predict_outputs(fit, st2, test)
        assert_allclose(p2.mean, 2.0 * p1.mean, rtol=1e-12)
        assert_allclose(p2.variance, p1.variance, rtol=1e-13)

    def test_small_noise_interpolates(self):
        # Few well-spread points keep the smooth kernel's Gram matrix
        # comfortably above the jitter, so the mean pins the data.
        tiny = LfmSpec(SPEC.outputs, 1, SPEC.lengthscales, SPEC.sensitivities,
                       [1e-10, 1e-10])
        t = np.linspace(0.3, 2.7, 6)
        ids = np.tile([1, 2], 3)
        y = np.sin(1.3 * t)
        draws = sample_frequencies(S, 1, SEED)
        fm = feature_matrix(t, ids, tiny, draws)
        _, state = low_rank_log_marginal(fm, np.full(6, 1e-10), y)
        fit = make_fit(spec=tiny)
        post = predict_outputs(fit, state, Dataset(ids, t, y), include_noise=False)
        assert np.max(np.abs(post.mean - y)) < 1e-5

    def test_include_noise_adds_output_variance(self):
        data, _, state = trained_state()
        test = Dataset(np.array([1, 2]), np.array([0.4, 2.2]), np.zeros(2))
        fit = make_fit()
        without = predict_outputs(fit, state, test, include_noise=False)
        with_ = predict_outputs(fit, state, test)
        assert with_.includes_noise is True
        assert_allclose(with_.variance - without.variance, [0.05, 0.1], rtol=1e-12)
        assert_allclose(with_.mean, without.mean, rtol=0)

    def test_mogp_prediction_runs(self):
        spec = MogpSpec(2, [1.2, 0.8], 1, [1.0], [[1.0], [0.6]], [0.1, 0.1])
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(18, 2))
        ids = rng.integers(1, 3, size=18)
        y = np.cos(x[:, 0]) + 0.1 * rng.normal(size=18)
        draws = sample_spectral(30, 1, 2, 7)
        fm = mogp_feature_matrix(x, ids, spec, draws)
        _, state = low_rank_log_marginal(fm, noise_vector(spec, ids), y)
        fit = make_fit(spec=spec, s=30, seed=7)
        test = Dataset(ids[:4], x[:4], np.zeros(4))
        post = predict_outputs(fit, state, test, include_noise=False)
        assert post.mean.shape == (4,) and np.all(post.variance >= 0)

    def test_latent_rejects_mogp(self):
        spec = MogpSpec(1, [1.0], 1, [1.0], [[1.0]], [0.1])
        fit = make_fit(spec=spec, s=8)
        draws = sample_spectral(8, 1, 1, SEED)
        fm = mogp_feature_matrix(np.zeros((1, 1)), np.array([1]), spec, draws)
        _, state = low_rank_log_marginal(fm, np.array([0.1]), np.array([0.0]))
        with pytest.raises(TypeError, match="LFM"):
            predict_latent_forces(fit, state, np.array([0.5]), 1)

    @pytest.mark.parametrize("q", [0, 3])
    def test_latent_force_index_outside_forces(self, q):
        # Q = 2: q = 0 once read the last lengthscale, q = 3 raised IndexError
        spec = LfmSpec(SPEC.outputs, 2, [1.0, 0.5], [[1.0, 0.3], [0.8, 0.2]], [0.05, 0.1])
        _, _, state = trained_state(spec=spec)
        with pytest.raises(ValueError, match="outside 1..2"):
            predict_latent_forces(make_fit(spec=spec), state, np.array([0.5]), q)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_latent_rejects_non_finite_times(self, bad):
        _, _, state = trained_state()
        with pytest.raises(DataError, match="finite"):
            predict_latent_forces(make_fit(), state, np.array([0.5, bad]), 1)

    def test_latent_allows_negative_times(self):
        # the force is defined before t = 0 too: its mean there is the
        # latent feature row times the posterior mean weights
        _, draws, state = trained_state()
        post = predict_latent_forces(make_fit(), state, np.array([-2.0, -0.5, 0.5]), 1)
        assert np.all(np.isfinite(post.mean)) and np.all(post.variance > 0.0)
        fm = latent_feature_matrix(np.array([-2.0]), 1, SPEC, draws)
        m = cho_solve((state.chol_a, True), state.alpha)
        assert_allclose(post.mean[0], fm.phi_c[0] @ m, rtol=1e-12)


class TestMetrics:
    def test_nmse_perfect_and_mean_prediction(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert nmse(y, y) == 0.0
        assert_allclose(nmse(y, np.full(4, y.mean())), 1.0, rtol=1e-14)

    def test_nmse_simple_value(self):
        # truth (0, 2): variance 1, prediction off by 1 at one point.
        assert_allclose(nmse([0.0, 2.0], [0.0, 1.0]), 0.5, rtol=1e-14)

    def test_nmse_rejects_constant_truth(self):
        with pytest.raises(ValueError, match="constant"):
            nmse([1.0, 1.0], [1.0, 2.0])

    def test_nlpd_standard_normal(self):
        from lfmrff.predict import Posterior

        post = Posterior(np.zeros(1), np.ones(1), False)
        assert_allclose(nlpd([0.0], post), 0.5 * math.log(2 * math.pi), rtol=1e-14)
        post2 = Posterior(np.zeros(1), np.ones(1), False)
        assert_allclose(
            nlpd([2.0], post2), 0.5 * math.log(2 * math.pi) + 2.0, rtol=1e-14
        )

    def test_nlpd_rejects_nonpositive_variance(self):
        from lfmrff.predict import Posterior

        with pytest.raises(ValueError, match="positive"):
            nlpd([0.0], Posterior(np.zeros(1), np.zeros(1), False))


class TestSyntheticRecovery:
    def test_held_out_metrics(self, synthetic_ode1):
        fx = synthetic_ode1
        test = Dataset(fx.ids_test, fx.t_test, fx.y_test)
        post = predict_outputs(fx.fit, fx.state, test)
        assert nmse(fx.y_test, post.mean) < 0.2
        assert math.isfinite(nlpd(fx.y_test, post))

    def test_decay_rates_recovered(self, synthetic_ode1):
        fx = synthetic_ode1
        fitted = [op.gamma for op in fx.fit.spec.outputs]
        truth = [op.gamma for op in fx.true.outputs]
        for got, want in zip(fitted, truth):
            assert abs(got - want) / want < 0.25

    def test_latent_force_tracked(self, synthetic_ode1):
        fx = synthetic_ode1
        post = predict_latent_forces(fx.fit, fx.state, fx.t_latent, 1)
        sign = np.sign(np.dot(post.mean, fx.u_true)) or 1.0
        assert nmse(fx.u_true, sign * post.mean) < 0.3
