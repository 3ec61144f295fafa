"""Multi-dimensional-input model: spectral features and the closed-form covariance."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfmrff.features import block_params, output_rows
from lfmrff.kernels import approx_cov
from lfmrff.model import DataError, MogpSpec
from lfmrff.mogp import (
    mogp_cov_exact,
    mogp_cov_quadrature,
    mogp_feature_matrix,
    mogp_frequencies,
    sample_spectral,
)

SPEC_1D = MogpSpec(1, [2.0, 0.7], 1, [1.0], [[1.0], [0.8]], [0.1, 0.1])
SPEC_2D = MogpSpec(2, [1.5, 0.9], 2, [1.0, 0.6], [[1.0, 0.3], [0.5, 1.0]], [0.1, 0.1])


class TestDraws:
    def test_deterministic_and_shaped(self):
        a = sample_spectral(32, 2, 3, seed=11)
        b = sample_spectral(32, 2, 3, seed=11)
        assert a.base.shape == (2, 32, 3)
        assert_allclose(a.base, b.base, rtol=0)
        assert a.num_forces == 2 and a.input_dim == 3 and a.num_samples == 32

    def test_readonly(self):
        draws = sample_spectral(4, 1, 1, seed=0)
        with pytest.raises(ValueError):
            draws.base[0, 0, 0] = 2.0

    def test_frequency_scaling(self):
        draws = sample_spectral(8, 2, 2, seed=5)
        lam = mogp_frequencies(draws, 2, 0.25)
        assert_allclose(lam, np.sqrt(2.0) / 0.25 * draws.base[1], rtol=1e-15)

    def test_force_index_validated(self):
        draws = sample_spectral(4, 1, 1, seed=0)
        with pytest.raises(ValueError):
            mogp_frequencies(draws, 2, 1.0)


class TestFeatures:
    def test_shape_and_determinism(self):
        x = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
        ids = np.array([1, 2, 1, 2, 1])
        draws = sample_spectral(16, 2, 2, seed=7)
        fm = mogp_feature_matrix(x, ids, SPEC_2D, draws)
        fm2 = mogp_feature_matrix(x, ids, SPEC_2D, draws)
        assert fm.phi.shape == (5, 32)
        assert_allclose(fm.phi, fm2.phi, rtol=0)

    def test_phi_c_interleaves_real_and_imag(self):
        # Complex column (q-1)*S + s holds sample s of force q, scaled by
        # S_{d,q}/sqrt(S); phi_c holds its real and imaginary parts in
        # columns 2k and 2k+1, and phi is a view of phi_c.
        x = np.linspace(-1.0, 1.0, 14).reshape(7, 2)
        ids = np.array([1, 2, 2, 1, 2, 1, 1])
        draws = sample_spectral(16, 2, 2, seed=7)
        fm = mogp_feature_matrix(x, ids, SPEC_2D, draws)
        rows = output_rows(ids)
        expected = np.empty((7, 32), dtype=complex)
        for (d, q), block in block_params(rows, SPEC_2D, draws).items():
            scale = SPEC_2D.sensitivities[d - 1, q - 1] / 4.0
            expected[rows[d], (q - 1) * 16 : q * 16] = scale * block.fill(x[rows[d]])
        assert fm.phi_c.shape == (7, 64)
        assert_allclose(fm.phi_c[:, 0::2], expected.real, rtol=1e-14, atol=1e-16)
        assert_allclose(fm.phi_c[:, 1::2], expected.imag, rtol=1e-14, atol=1e-16)
        assert np.array_equal(fm.phi_c[:, 0::2], fm.phi.real)
        assert np.array_equal(fm.phi_c[:, 1::2], fm.phi.imag)
        assert np.shares_memory(fm.phi, fm.phi_c)

    def test_input_dim_checked(self):
        draws = sample_spectral(4, 2, 2, seed=0)
        for x in (np.zeros(3), np.zeros((3, 1)), np.zeros((3, 3))):
            dim = 1 if x.ndim == 1 else x.shape[1]
            with pytest.raises(DataError, match=f"dimension {dim} does not match spec input_dim 2"):
                mogp_feature_matrix(x, np.ones(3, int), SPEC_2D, draws)

    def test_non_finite_location_is_data_error(self):
        draws = sample_spectral(4, 2, 2, seed=0)
        x = np.array([[0.5, -1.0], [np.nan, 0.2]])
        with pytest.raises(DataError, match="inputs must be finite"):
            mogp_feature_matrix(x, np.array([1, 2]), SPEC_2D, draws)

    def test_draw_compatibility_checked(self):
        draws = sample_spectral(4, 1, 2, seed=0)
        with pytest.raises(ValueError):
            mogp_feature_matrix(np.zeros((3, 2)), np.ones(3, int), SPEC_2D, draws)

    @pytest.mark.parametrize("bad_id", [0, 3])
    def test_output_id_outside_range_is_data_error(self, bad_id):
        draws = sample_spectral(4, 2, 2, seed=0)
        with pytest.raises(DataError, match=f"output_id {bad_id}"):
            mogp_feature_matrix(np.zeros((2, 2)), [1, bad_id], SPEC_2D, draws)


class TestExactCov:
    def test_matches_double_quadrature_frozen(self):
        # Reference: dblquad of the product of two Gaussian smoothing kernels
        # against the unit-variance force kernel, truncated far out.
        k = mogp_cov_exact(
            np.array([[0.3]]), np.array([1]),
            np.array([[-0.9]]), np.array([2]), spec=SPEC_1D,
        )
        assert_allclose(k[0, 0], 1.4330450999750446, rtol=1e-10)

    def test_quadrature_agrees_elementwise(self):
        xs = np.array([-0.6, 0.1, 1.2])
        for i, xi in enumerate(xs):
            for j, xj in enumerate(xs):
                for di in (1, 2):
                    for dj in (1, 2):
                        want = mogp_cov_quadrature(
                            np.array([xi]), di, np.array([xj]), dj, SPEC_1D
                        )
                        got = mogp_cov_exact(
                            np.array([[xi]]), np.array([di]),
                            np.array([[xj]]), np.array([dj]), spec=SPEC_1D,
                        )[0, 0]
                        assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_symmetric_with_distinct_widths(self):
        x = np.linspace(-1.5, 1.5, 8).reshape(-1, 1)
        ids = np.array([1, 2, 1, 2, 1, 2, 1, 2])
        K = mogp_cov_exact(x, ids, spec=SPEC_1D)
        assert_allclose(K, K.T, rtol=0, atol=0)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-12 * eigs.max()

    def test_stationary_in_difference(self):
        shift = np.array([[0.37]])
        a = mogp_cov_exact(np.array([[0.2]]), np.array([1]),
                           np.array([[0.9]]), np.array([2]), spec=SPEC_1D)
        b = mogp_cov_exact(np.array([[0.2]]) + shift, np.array([1]),
                           np.array([[0.9]]) + shift, np.array([2]), spec=SPEC_1D)
        assert_allclose(a, b, rtol=1e-12)

    def test_2d_psd(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(12, 2))
        ids = rng.integers(1, 3, size=12)
        K = mogp_cov_exact(x, ids, spec=SPEC_2D)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-12 * eigs.max()

    def test_quadrature_rejects_higher_dim(self):
        with pytest.raises(ValueError):
            mogp_cov_quadrature(np.zeros(2), 1, np.zeros(2), 1, SPEC_2D)


class TestMonteCarlo:
    def test_feature_cov_converges_1d(self):
        x = np.linspace(-1.2, 1.2, 6).reshape(-1, 1)
        ids = np.array([1, 1, 1, 2, 2, 2])
        exact = mogp_cov_exact(x, ids, spec=SPEC_1D)
        errs = {}
        for s in (200, 3200):
            norms = []
            for seed in range(6):
                fm = mogp_feature_matrix(x, ids, SPEC_1D, sample_spectral(s, 1, 1, seed))
                norms.append(np.linalg.norm(approx_cov(fm) - exact))
            errs[s] = np.median(norms)
        # 16x the samples should shave the error by roughly 4x; allow slack.
        assert errs[3200] < 0.45 * errs[200]

    def test_feature_cov_close_2d(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(8, 2))
        ids = rng.integers(1, 3, size=8)
        exact = mogp_cov_exact(x, ids, spec=SPEC_2D)
        fm = mogp_feature_matrix(x, ids, SPEC_2D, sample_spectral(6000, 2, 2, 1))
        err = np.linalg.norm(approx_cov(fm) - exact) / np.linalg.norm(exact)
        assert err < 0.08
