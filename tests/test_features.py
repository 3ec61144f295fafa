"""Response-feature construction against direct quadrature of the convolution."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfmrff.features import (
    FrequencyDraws,
    NumericsWarning,
    force_columns,
    force_frequencies,
    operator_roots,
    output_blocks,
    phi_c_width,
    residue_coeffs,
    rfrf_general,
    sample_frequencies,
    write_phi_block,
)
from lfmrff.kernels import feature_matrix, response_quadrature
from lfmrff.model import LfmSpec, NumericalError, Ode1Params, Ode2Params, OdeOperator


class TestResidues:
    def test_three_distinct_roots(self):
        # Roots 0, 1, 2: A_1 = 1/((0-1)(0-2)) = 1/2, A_2 = 1/((1-0)(1-2)) = -1,
        # A_3 = 1/((2-0)(2-1)) = 1/2.
        coeffs = residue_coeffs(np.array([0.0, 1.0, 2.0], dtype=complex))
        assert_allclose(coeffs, [0.5, -1.0, 0.5], rtol=1e-14)

    def test_pair(self):
        coeffs = residue_coeffs(np.array([-1.0 + 0j, -2.0 + 0j]))
        assert_allclose(coeffs, [1.0, -1.0], rtol=1e-14)

    def test_partial_fractions_reconstruct_inverse(self):
        rng = np.random.default_rng(3)
        roots = rng.normal(size=4) + 1j * rng.normal(size=4)
        coeffs = residue_coeffs(roots)
        z = 0.3 - 1.7j
        direct = 1.0 / np.prod(z - roots)
        expanded = np.sum(coeffs / (z - roots))
        assert_allclose(expanded, direct, rtol=1e-12)


class TestRoots:
    def test_ode2_closed_form(self):
        s1, s2 = operator_roots(Ode2Params(1.0, 3.0, 2.0)).roots
        assert_allclose(sorted([s1.real, s2.real]), [-2.0, -1.0], atol=1e-14)
        assert s1.imag == s2.imag == 0.0

    def test_ode2_underdamped(self):
        s1, s2 = operator_roots(Ode2Params(1.0, 2.0, 5.0)).roots
        assert_allclose([s1, s2], [-1.0 + 2.0j, -1.0 - 2.0j], atol=1e-14)

    def test_ode2_near_critical_perturbs_and_warns(self):
        with pytest.warns(NumericsWarning):
            s1, s2 = operator_roots(Ode2Params(1.0, 2.0, 1.0)).roots
        assert s1 != s2

    @pytest.mark.parametrize("mass", [1e-160, 1e-170])
    def test_ode2_vanishing_mass_is_numerical_error(self, mass):
        # (c/2m)^2 overflows, so the roots cannot be represented.
        with pytest.raises(NumericalError, match="mass"):
            operator_roots(Ode2Params(mass, 1.0, 1.0))

    def test_general_matches_ode2(self):
        rs = operator_roots(OdeOperator((1.0, 3.0, 2.0)))
        assert_allclose(sorted(rs.roots.real), [-2.0, -1.0], atol=1e-12)
        assert rs.leading == 1.0

    def test_general_repeated_root_rejected(self):
        # (s + 1)^2 has a genuine double root; no valid residue expansion.
        with pytest.raises(NumericalError, match="repeated"):
            operator_roots(OdeOperator((1.0, 2.0, 1.0)))

    def test_leading_scaling(self):
        rs = operator_roots(OdeOperator((2.0, 6.0, 4.0)))
        assert rs.leading == 2.0
        assert_allclose(sorted(rs.roots.real), [-2.0, -1.0], atol=1e-12)


class TestResponseFeatures:
    def test_ode1_matches_quadrature_frozen_value(self):
        # Independent value: scipy.integrate.quad of exp(-0.8 u) exp(j(-2)(1.3-u))
        # over u in [0, 1.3].
        got = rfrf_general(np.array([1.3]), Ode1Params(0.8), np.array([-2.0]))
        assert_allclose(
            got[0, 0], 0.01351896452171259 - 0.6105793034725487j, rtol=1e-12
        )

    def test_ode2_matches_quadrature_frozen_value(self):
        got = rfrf_general(np.array([0.7]), Ode2Params(1.0, 3.0, 2.0), np.array([1.0]))
        assert_allclose(
            got[0, 0], 0.12009565858069397 + 0.03394237164580603j, rtol=1e-10
        )

    @pytest.mark.parametrize("lam", [-3.1, -0.4, 0.9, 4.2])
    @pytest.mark.parametrize("t", [0.1, 0.7, 2.4])
    def test_ode1_grid_vs_quadrature(self, t, lam):
        got = rfrf_general(np.array([t]), Ode1Params(1.3), np.array([lam]))[0, 0]
        want = response_quadrature(t, Ode1Params(1.3), lam)
        assert abs(got - want) < 1e-8

    @pytest.mark.parametrize(
        "params",
        [Ode2Params(1.0, 3.0, 2.0), Ode2Params(1.0, 2.0, 5.0), Ode2Params(0.5, 0.3, 2.0)],
    )
    def test_ode2_grid_vs_quadrature(self, params):
        for t in (0.3, 1.9):
            for lam in (-1.7, 2.5):
                got = rfrf_general(np.array([t]), params, np.array([lam]))[0, 0]
                want = response_quadrature(t, params, lam)
                assert abs(got - want) < 1e-8

    def test_general_matches_quadrature_third_order(self):
        op = OdeOperator((1.0, 6.0, 11.0, 6.0))  # roots -1, -2, -3
        t = np.array([0.4, 1.1])
        lam = np.array([0.7, -2.2])
        got = rfrf_general(t, op, lam)
        for i in range(2):
            for j in range(2):
                want = response_quadrature(t[i], op, lam[j])
                assert abs(got[i, j] - want) < 1e-8

    def test_general_agrees_with_ode1(self):
        t = np.linspace(0.05, 2.5, 7)
        lam = np.array([-1.2, 0.5, 3.0])
        a = rfrf_general(t, Ode1Params(0.9), lam)
        b = rfrf_general(t, OdeOperator((1.0, 0.9)), lam)
        assert_allclose(a, b, rtol=1e-11, atol=1e-13)

    def test_general_agrees_with_ode2(self):
        t = np.linspace(0.05, 2.5, 7)
        lam = np.array([-1.2, 0.5, 3.0])
        a = rfrf_general(t, Ode2Params(1.0, 2.0, 5.0), lam)
        b = rfrf_general(t, OdeOperator((1.0, 2.0, 5.0)), lam)
        assert_allclose(a, b, rtol=1e-11, atol=1e-13)

    def test_zero_time_is_zero(self):
        got = rfrf_general(np.array([0.0]), Ode1Params(1.0), np.array([1.5]))
        assert_allclose(got, 0.0, atol=1e-15)

    def test_scalar_inputs_squeeze(self):
        v = rfrf_general(0.5, Ode1Params(1.0), 1.0)
        assert np.ndim(v) == 0

    def test_frequency_collision_perturbed(self):
        # An undamped oscillator has poles at +/- j sqrt(spring/mass); hitting
        # one with the sampled frequency must not produce a NaN.
        params = Ode2Params(1.0, 0.0, 4.0)
        with pytest.warns(NumericsWarning):
            v = rfrf_general(np.array([0.8]), params, np.array([2.0]))
        assert np.all(np.isfinite(v))


class TestDraws:
    def test_sample_deterministic(self):
        a = sample_frequencies(64, 3, seed=7)
        b = sample_frequencies(64, 3, seed=7)
        assert_allclose(a.base, b.base, rtol=0)
        assert a.seed == 7 and a.num_samples == 64 and a.num_forces == 3

    def test_sample_moments(self):
        draws = sample_frequencies(20000, 1, seed=0)
        assert abs(draws.base.mean()) < 0.03
        assert abs(draws.base.std() - 1.0) < 0.03

    def test_base_is_readonly(self):
        draws = sample_frequencies(8, 1, seed=0)
        with pytest.raises(ValueError):
            draws.base[0, 0] = 1.0

    def test_force_frequencies_scaling(self):
        draws = sample_frequencies(16, 2, seed=5)
        lam = force_frequencies(draws, 2, 0.5)
        assert_allclose(lam, np.sqrt(2.0) / 0.5 * draws.base[:, 1], rtol=1e-15)

    def test_force_frequencies_validation(self):
        draws = sample_frequencies(4, 2, seed=0)
        with pytest.raises(ValueError):
            force_frequencies(draws, 3, 1.0)
        with pytest.raises(ValueError):
            force_frequencies(draws, 0, 1.0)
        with pytest.raises(ValueError):
            force_frequencies(draws, 1, -1.0)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            sample_frequencies(0, 1, seed=0)
        with pytest.raises(ValueError):
            sample_frequencies(4, 0, seed=0)


def test_frequency_draws_rejects_bad_base():
    with pytest.raises(ValueError):
        FrequencyDraws(np.zeros((3,)), seed=0, num_samples=3)


@pytest.mark.parametrize("q_count", [1, 3])
def test_phi_c_layout_helpers_match_writer_and_view(q_count):
    # Force-major complex columns, Re/Im interleaved in Phi_c: force q's
    # columns of the output's block, scaled by S_{1,q}/sqrt(S), land in
    # Phi_c columns 2(q-1)S .. 2qS, and phi views phi_c.
    s_count, t = 4, np.linspace(0.1, 2.0, 5)
    spec = LfmSpec((Ode2Params(1.0, 2.0, 5.0),), q_count, np.linspace(0.8, 1.4, q_count),
                   [np.linspace(0.5, 1.5, q_count)], [0.1])
    draws = sample_frequencies(s_count, q_count, seed=2)
    width = phi_c_width(q_count, s_count)
    assert width == 2 * q_count * s_count
    fm = feature_matrix(t, np.ones(5, int), spec, draws)
    assert fm.phi_c.shape == (5, width)
    assert fm.phi.shape == (5, q_count * s_count)
    assert np.shares_memory(fm.phi, fm.phi_c)
    block = output_blocks([1], spec, draws)[1]
    out = np.zeros((5, width))
    write_phi_block(out, slice(None), spec, s_count, 1, block.fill(t))
    assert np.all(np.any(out != 0.0, axis=0))
    unscaled = block.fill(t)
    for q in range(1, q_count + 1):
        cols = force_columns(q, s_count)
        assert cols == slice((q - 1) * s_count, q * s_count)
        assert np.array_equal(block.lam[cols],
                              force_frequencies(draws, q, spec.lengthscales[q - 1]))
        assert_allclose(out.view(complex)[:, cols],
                        spec.sensitivities[0, q - 1] / np.sqrt(s_count) * unscaled[:, cols],
                        rtol=1e-15)
        assert np.array_equal(out[:, 2 * cols.start : 2 * cols.stop : 2], fm.phi[:, cols].real)
        assert np.array_equal(out[:, 2 * cols.start + 1 : 2 * cols.stop : 2], fm.phi[:, cols].imag)
