"""Feature-matrix assembly and the quadrature reference covariances."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfmrff.features import force_frequencies, rfrf_general, sample_frequencies
from lfmrff.kernels import (
    approx_cov,
    cross_cov_entry,
    cross_cov_grid,
    exact_cov_entry,
    exact_cov_grid,
    feature_matrix,
    greens_function,
    latent_feature_matrix,
    response_quadrature,
)
from lfmrff.model import DataError, LfmSpec, Ode1Params, Ode2Params, OdeOperator

TWO_OUTPUT_SPEC = LfmSpec(
    (Ode1Params(1.0), Ode2Params(1.0, 3.0, 2.0)),
    2,
    [1.0, 0.7],
    [[1.0, 0.5], [0.6, 1.0]],
    [0.1, 0.2],
)


def small_problem(seed=4, n=9):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 3.0, n))
    ids = rng.integers(1, 3, size=n)
    draws = sample_frequencies(12, 2, seed=seed)
    return t, ids, draws


class TestFeatureMatrix:
    def test_single_sample_entries_are_scaled_responses(self):
        # One sample, one force, lengthscale sqrt(2): the mapped frequency
        # equals the raw base draw and the sole column is the ODE1 response
        # itself (sensitivity 1, 1/sqrt(S) = 1). Values frozen from that
        # construction.
        spec = LfmSpec((Ode1Params(1.0),), 1, [np.sqrt(2.0)], [[1.0]], [0.1])
        draws = sample_frequencies(1, 1, seed=3)
        fm = feature_matrix(np.array([0.5, 1.5]), np.array([1, 1]), spec, draws)
        assert fm.phi.shape == (2, 1)
        assert_allclose(
            fm.phi[:, 0],
            [0.32060124 + 0.19802725j, -0.20451273 + 0.49752193j],
            rtol=1e-7,
        )

    def test_shapes_and_metadata(self):
        t, ids, draws = small_problem()
        fm = feature_matrix(t, ids, TWO_OUTPUT_SPEC, draws)
        assert fm.phi.shape == (t.size, 2 * 12)
        assert fm.num_forces == 2 and fm.num_samples == 12
        assert np.array_equal(fm.output_ids, ids)

    def test_phi_c_interleaves_real_and_imag(self):
        # Complex column (q-1)*S + s holds sample s of force q, scaled by
        # S_{d,q}/sqrt(S); phi_c holds its real and imaginary parts in
        # columns 2k and 2k+1, and phi is a view of phi_c.
        t, ids, draws = small_problem()
        fm = feature_matrix(t, ids, TWO_OUTPUT_SPEC, draws)
        spec, s_count = TWO_OUTPUT_SPEC, 12
        expected = np.empty((t.size, 2 * s_count), dtype=complex)
        for q in (1, 2):
            lam = force_frequencies(draws, q, spec.lengthscales[q - 1])
            for n, (tn, d) in enumerate(zip(t, ids)):
                resp = rfrf_general(tn, spec.outputs[d - 1], lam)
                scale = spec.sensitivities[d - 1, q - 1] / np.sqrt(s_count)
                expected[n, (q - 1) * s_count : q * s_count] = scale * resp
        pc = fm.phi_c
        assert pc.shape == (t.size, 48)
        assert_allclose(pc[:, 0::2], expected.real, rtol=1e-12, atol=1e-15)
        assert_allclose(pc[:, 1::2], expected.imag, rtol=1e-12, atol=1e-15)
        assert np.array_equal(pc[:, 0::2], fm.phi.real)
        assert np.array_equal(pc[:, 1::2], fm.phi.imag)
        assert np.shares_memory(fm.phi, fm.phi_c)

    def test_gram_identity(self):
        # Re(phi phi^H) and phi_c phi_c^T are the same matrix.
        t, ids, draws = small_problem()
        fm = feature_matrix(t, ids, TWO_OUTPUT_SPEC, draws)
        k_complex = (fm.phi @ fm.phi.conj().T).real
        k_real = fm.phi_c @ fm.phi_c.T
        assert_allclose(k_real, k_complex, rtol=1e-12, atol=1e-14)
        assert_allclose(approx_cov(fm), k_complex, rtol=1e-12, atol=1e-14)

    def test_cov_symmetric_psd(self):
        t, ids, draws = small_problem(seed=9, n=20)
        K = approx_cov(feature_matrix(t, ids, TWO_OUTPUT_SPEC, draws))
        assert_allclose(K, K.T, rtol=0, atol=0)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-12 * max(1.0, eigs.max())

    def test_zero_time_rows_vanish(self):
        # The response integral over [0, 0] is empty.
        t = np.array([0.0, 1.0])
        fm = feature_matrix(t, np.array([1, 2]), TWO_OUTPUT_SPEC,
                            sample_frequencies(6, 2, seed=1))
        assert_allclose(fm.phi[0], 0.0, atol=1e-15)
        assert np.abs(fm.phi[1]).max() > 0

    def test_sensitivity_scales_rows(self):
        t, ids, draws = small_problem()
        doubled = LfmSpec(
            TWO_OUTPUT_SPEC.outputs,
            2,
            TWO_OUTPUT_SPEC.lengthscales,
            np.asarray(TWO_OUTPUT_SPEC.sensitivities) * 2.0,
            TWO_OUTPUT_SPEC.noise_vars,
        )
        a = feature_matrix(t, ids, TWO_OUTPUT_SPEC, draws)
        b = feature_matrix(t, ids, doubled, draws)
        assert_allclose(b.phi, 2.0 * a.phi, rtol=1e-14)

    def test_cross_cov_rff_consistency(self):
        # approx_cov with two feature matrices gives the rectangular block.
        t, ids, draws = small_problem()
        fm = feature_matrix(t, ids, TWO_OUTPUT_SPEC, draws)
        t2 = np.array([0.25, 2.75])
        fm2 = feature_matrix(t2, np.array([2, 1]), TWO_OUTPUT_SPEC, draws)
        K = approx_cov(fm, fm2)
        assert K.shape == (t.size, 2)
        assert_allclose(K, (fm.phi @ fm2.phi.conj().T).real, rtol=1e-12, atol=1e-14)

    def test_mismatched_draws_rejected(self):
        t, ids, _ = small_problem()
        with pytest.raises(ValueError):
            feature_matrix(t, ids, TWO_OUTPUT_SPEC, sample_frequencies(8, 1, seed=0))

    @pytest.mark.parametrize("bad_id", [0, 3])
    def test_output_id_outside_range_is_data_error(self, bad_id):
        _, _, draws = small_problem()
        with pytest.raises(DataError, match=f"output_id {bad_id}"):
            feature_matrix([0.5, 1.0], [1, bad_id], TWO_OUTPUT_SPEC, draws)

    @pytest.mark.parametrize("bad,message", [
        (-2.0, "negative time -2.0 at row 1"),
        (np.nan, "inputs must be finite"),
        (np.inf, "inputs must be finite"),
    ], ids=["negative", "nan", "inf"])
    def test_time_outside_the_response_is_data_error(self, bad, message):
        # Responses start at rest at t = 0: at a negative time the fill
        # would return the response extrapolated backwards, not a feature.
        _, _, draws = small_problem()
        with pytest.raises(DataError, match=message):
            feature_matrix([0.5, bad], [1, 2], TWO_OUTPUT_SPEC, draws)


class TestLatentFeatures:
    def test_prior_variance_is_one(self):
        # The latent force has unit marginal variance under the feature
        # expansion: sum_s |e^{j lam t}|^2 / S = 1 exactly.
        draws = sample_frequencies(16, 2, seed=2)
        t = np.linspace(0.0, 3.0, 5)
        lf = latent_feature_matrix(t, 1, TWO_OUTPUT_SPEC, draws)
        var = np.sum(np.abs(lf.phi) ** 2, axis=1)
        assert_allclose(var, 1.0, rtol=1e-13)

    def test_only_requested_force_block_nonzero(self):
        draws = sample_frequencies(16, 2, seed=2)
        lf = latent_feature_matrix(np.array([0.5]), 2, TWO_OUTPUT_SPEC, draws)
        assert_allclose(lf.phi[0, :16], 0.0, atol=0)
        assert np.all(np.abs(lf.phi[0, 16:]) > 0)
        # in phi_c, force q owns columns 2(q-1)S to 2qS, Re and Im interleaved
        t = np.array([0.0, 0.5, 2.0])
        for q in (1, 2):
            lf = latent_feature_matrix(t, q, TWO_OUTPUT_SPEC, draws)
            lam = force_frequencies(draws, q, TWO_OUTPUT_SPEC.lengthscales[q - 1])
            block = np.exp(1j * np.outer(t, lam)) / 4.0
            inside = np.zeros(64, dtype=bool)
            inside[32 * (q - 1) : 32 * q] = True
            assert np.all(lf.phi_c[:, ~inside] == 0.0)
            assert_allclose(lf.phi_c[:, inside][:, 0::2], block.real, rtol=1e-14)
            assert_allclose(lf.phi_c[:, inside][:, 1::2], block.imag, rtol=1e-14, atol=1e-16)
            assert np.shares_memory(lf.phi, lf.phi_c)

    def test_force_index_validated(self):
        draws = sample_frequencies(4, 2, seed=0)
        with pytest.raises(ValueError):
            latent_feature_matrix(np.array([0.5]), 3, TWO_OUTPUT_SPEC, draws)


class TestGreensFunction:
    def test_ode1_is_decaying_exponential(self):
        g = greens_function(Ode1Params(1.7))
        u = np.array([0.0, 0.4, 1.0])
        assert_allclose(g(u), np.exp(-1.7 * u), rtol=1e-14)

    def test_ode2_overdamped(self):
        # m=1, c=3, b=2 has roots -1, -2: G(u) = e^{-u} - e^{-2u}.
        g = greens_function(Ode2Params(1.0, 3.0, 2.0))
        u = np.linspace(0.0, 2.0, 9)
        assert_allclose(g(u), np.exp(-u) - np.exp(-2.0 * u), rtol=1e-11, atol=1e-13)

    def test_general_matches_ode2(self):
        ga = greens_function(Ode2Params(1.0, 2.0, 5.0))
        gb = greens_function(OdeOperator((1.0, 2.0, 5.0)))
        u = np.linspace(0.0, 2.0, 9)
        assert_allclose(ga(u), gb(u), rtol=1e-10, atol=1e-12)


class TestQuadratureOracles:
    def test_response_quadrature_zero_time(self):
        assert response_quadrature(0.0, Ode1Params(1.0), 2.0) == 0.0

    def test_exact_entry_symmetry(self):
        a = exact_cov_entry(0.5, 1, 1.5, 2, TWO_OUTPUT_SPEC)
        b = exact_cov_entry(1.5, 2, 0.5, 1, TWO_OUTPUT_SPEC)
        assert_allclose(a, b, rtol=1e-9)

    def test_grid_matches_entries(self):
        t = np.array([0.3, 1.1, 2.6])
        ids = np.array([1, 2, 2])
        K = exact_cov_grid(t, ids, spec=TWO_OUTPUT_SPEC)
        for i in range(3):
            for j in range(3):
                want = exact_cov_entry(t[i], ids[i], t[j], ids[j], TWO_OUTPUT_SPEC)
                assert_allclose(K[i, j], want, rtol=1e-7, atol=1e-12)

    def test_grid_rectangular(self):
        tr = np.array([0.4, 1.9])
        tc = np.array([0.8, 1.2, 2.2])
        K = exact_cov_grid(tr, np.array([1, 1]), tc, np.array([2, 2, 1]),
                           spec=TWO_OUTPUT_SPEC)
        assert K.shape == (2, 3)
        want = exact_cov_entry(0.4, 1, 1.2, 2, TWO_OUTPUT_SPEC)
        assert_allclose(K[0, 1], want, rtol=1e-7, atol=1e-12)

    def test_cross_grid_matches_entries(self):
        t = np.array([0.6, 2.1])
        ids = np.array([1, 2])
        tf = np.array([0.5, 1.5])
        K = cross_cov_grid(t, ids, tf, 1, TWO_OUTPUT_SPEC)
        assert K.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                want = cross_cov_entry(t[i], ids[i], tf[j], 1, TWO_OUTPUT_SPEC)
                assert_allclose(K[i, j], want, rtol=1e-6, atol=1e-12)

    def test_mc_estimate_approaches_exact(self):
        # With a healthy sample count the feature covariance should sit
        # within a few percent of the quadrature value.
        spec = LfmSpec((Ode1Params(1.0),), 1, [1.0], [[1.0]], [0.1])
        t = np.linspace(0.2, 2.8, 6)
        ids = np.ones(6, dtype=int)
        exact = exact_cov_grid(t, ids, spec=spec)
        errs = []
        for seed in range(5):
            fm = feature_matrix(t, ids, spec, sample_frequencies(4000, 1, seed))
            errs.append(np.linalg.norm(approx_cov(fm) - exact))
        assert np.median(errs) < 0.05 * np.linalg.norm(exact)
