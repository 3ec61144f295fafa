"""Low-rank marginal likelihood, its analytic gradient, and the optimizer."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfmrff import backends
from lfmrff.features import FrequencyDraws, NumericsWarning, sample_frequencies
from lfmrff.kernels import feature_matrix
from lfmrff.likelihood import (
    FitResult,
    LmlObjective,
    OptimizerConfig,
    full_log_marginal,
    low_rank_log_marginal,
    noise_vector,
    optimize,
    weight_posterior,
)
from lfmrff.model import (
    NOISE_FLOOR,
    Dataset,
    LfmSpec,
    MogpSpec,
    NumericalError,
    Ode1Params,
    Ode2Params,
    OdeOperator,
    pack,
)
from lfmrff.mogp import mogp_feature_matrix, sample_spectral

LOG_2PI = math.log(2.0 * math.pi)


class TestLowRank:
    def test_hand_example(self):
        # One observation, one complex feature with value 1: Phi_c = [1, 0],
        # K + Sigma = 2, so L = -log(2 pi)/2 - log(2)/2 - 2^2/(2*2).
        value, state = low_rank_log_marginal(
            np.array([[1.0, 0.0]]), np.array([1.0]), np.array([2.0])
        )
        assert_allclose(value, -0.5 * LOG_2PI - 0.5 * math.log(2.0) - 1.0, rtol=1e-14)
        assert_allclose(state.chol_a @ state.chol_a.T, np.diag([2.0, 1.0]), rtol=1e-15)
        assert_allclose(state.alpha, [2.0, 0.0], rtol=1e-15)
        # value = -(data fit + log det A + log noise + log 2 pi) / 2
        log_det = 2.0 * float(np.sum(np.log(np.diag(state.chol_a))))
        assert_allclose(log_det, math.log(2.0), rtol=1e-14)
        assert_allclose(-2.0 * value - log_det - LOG_2PI, 2.0, rtol=1e-14)

    def test_zero_features_reduce_to_diagonal_gaussian(self):
        noise = np.array([0.5, 2.0, 1.0])
        y = np.array([0.3, -1.0, 0.7])
        value, _ = low_rank_log_marginal(np.zeros((3, 4)), noise, y)
        direct = -0.5 * np.sum(y**2 / noise + np.log(noise) + LOG_2PI)
        assert_allclose(value, direct, rtol=1e-14)

    def test_matches_dense_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n, r = rng.integers(3, 15), rng.integers(1, 8)
            phi_c = rng.normal(size=(n, r))
            noise = rng.uniform(0.1, 2.0, size=n)
            y = rng.normal(size=n)
            lr, _ = low_rank_log_marginal(phi_c, noise, y)
            dense = full_log_marginal(phi_c @ phi_c.T, noise, y)
            assert_allclose(lr, dense, rtol=1e-12)

    @pytest.mark.parametrize("n", [6, 7, 8, 17])
    def test_chunk_boundaries_match_dense(self, monkeypatch, n):
        # chunks of 7 rows: n = chunk - 1, chunk, chunk + 1, 2 chunk + 3
        monkeypatch.setattr(backends, "CHUNK_ROWS", 7)
        rng = np.random.default_rng(n)
        phi_c = rng.normal(size=(n, 5))
        noise = rng.uniform(0.1, 2.0, size=n)
        y = rng.normal(size=n)
        value, state = low_rank_log_marginal(phi_c, noise, y)
        assert_allclose(value, full_log_marginal(phi_c @ phi_c.T, noise, y), rtol=1e-12)
        assert_allclose(state.chol_a @ state.chol_a.T,
                        np.eye(5) + phi_c.T @ (phi_c / noise[:, None]), rtol=1e-13)
        # the posterior mean A^-1 alpha is Phi_c^T beta, beta = (K + Sigma)^-1 y
        beta = np.linalg.solve(phi_c @ phi_c.T + np.diag(noise), y)
        assert_allclose(state.solve_a(state.alpha), phi_c.T @ beta, rtol=1e-10)

    def test_accepts_feature_matrix_object(self):
        spec = LfmSpec((Ode1Params(1.0),), 1, [1.0], [[1.0]], [0.1])
        t = np.linspace(0.1, 2.0, 6)
        fm = feature_matrix(t, np.ones(6, int), spec, sample_frequencies(5, 1, 0))
        y = np.sin(t)
        via_fm, _ = low_rank_log_marginal(fm, np.full(6, 0.1), y)
        via_mat, _ = low_rank_log_marginal(fm.phi_c, np.full(6, 0.1), y)
        assert_allclose(via_fm, via_mat, rtol=0)

    def test_cholesky_factor_reproduces_a(self):
        rng = np.random.default_rng(1)
        phi_c = rng.normal(size=(10, 4))
        _, state = low_rank_log_marginal(
            phi_c, np.full(10, 0.3), rng.normal(size=10)
        )
        a_mat = np.eye(4) + phi_c.T @ phi_c / 0.3
        assert_allclose(state.chol_a @ state.chol_a.T, a_mat, atol=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="rows"):
            low_rank_log_marginal(np.zeros((3, 2)), np.ones(2), np.zeros(3))
        with pytest.raises(ValueError, match="positive"):
            low_rank_log_marginal(np.zeros((2, 2)), np.array([1.0, 0.0]), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_features_are_numerical_errors(self, bad):
        phi_c = np.array([[1.0, 0.0], [bad, 0.5]])
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            low_rank_log_marginal(phi_c, np.ones(2), np.zeros(2))


class TestDense:
    def test_standard_normal_point(self):
        assert_allclose(
            full_log_marginal(np.zeros((1, 1)), np.ones(1), np.zeros(1)),
            -0.5 * LOG_2PI,
            rtol=1e-15,
        )

    def test_standard_normal_at_two(self):
        assert_allclose(
            full_log_marginal(np.zeros((1, 1)), np.ones(1), np.array([2.0])),
            -0.5 * LOG_2PI - 2.0,
            rtol=1e-15,
        )

    def test_indefinite_matrix_raises(self):
        with pytest.raises(NumericalError, match="positive definite"):
            full_log_marginal(np.array([[-5.0]]), np.ones(1), np.ones(1))


def test_noise_vector_maps_outputs():
    spec = LfmSpec((Ode1Params(1.0), Ode1Params(2.0)), 1, [1.0],
                   [[1.0], [1.0]], [0.1, 0.4])
    got = noise_vector(spec, np.array([1, 2, 2, 1]))
    assert_allclose(got, [0.1, 0.4, 0.4, 0.1], rtol=0)


# ---------------------------------------------------------------------------
# the objective assembles the same Phi as the public feature matrices


def lfm_data(seed=0, n=10):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.05, 3.0, n))
    ids = rng.integers(1, 3, size=n)
    y = rng.normal(size=n)
    return Dataset(ids, t, y)


def mogp_data(seed=7, n=9):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    return Dataset(rng.integers(1, 3, size=n), x, rng.normal(size=n))


# (spec, draws, assembly of the public feature matrix) per objective case
OBJECTIVE_CASES = {
    "ode1-ode2-interleaved": (
        LfmSpec((Ode1Params(1.1), Ode2Params(1.0, 3.0, 2.0)), 2, [0.9, 1.7],
                [[0.7, 0.2], [-0.5, 1.1]], [0.3, 0.1]),
        sample_frequencies(7, 2, seed=4),
        feature_matrix,
    ),
    "order3-ode2": (
        LfmSpec((OdeOperator((2.0, 3.0, 9.0, 4.0)), Ode2Params(1.3, 0.8, 5.0)), 1,
                [1.2], [[1.0], [0.6]], [0.2, 0.25]),
        sample_frequencies(9, 1, seed=6),
        feature_matrix,
    ),
    "mogp-2d": (
        MogpSpec(2, [1.4, 0.8], 2, [1.0, 0.7], [[1.0, 0.2], [0.4, 0.9]], [0.15, 0.3]),
        sample_spectral(5, 2, 2, seed=8),
        mogp_feature_matrix,
    ),
}


@pytest.mark.parametrize(
    "case,data",
    [
        ("ode1-ode2-interleaved", lfm_data(1, n=40)),
        ("order3-ode2", lfm_data(3, n=40)),
        ("mogp-2d", mogp_data()),
    ],
    ids=["ode1-ode2-interleaved", "order3-ode2", "mogp-2d"],
)
def test_objective_value_matches_feature_matrix(case, data):
    spec, draws, assemble = OBJECTIVE_CASES[case]
    fm = assemble(data.inputs, data.output_ids, spec, draws)
    ref, _ = low_rank_log_marginal(fm, noise_vector(spec, data.output_ids), data.y)
    got = LmlObjective(data, spec, draws).value(pack(spec).values)
    assert_allclose(got, ref, rtol=1e-12)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("noise,rtol", [(1e-6, 1e-10), (NOISE_FLOOR, 5e-9)],
                         ids=["noise-1e-6", "noise-floor"])
def test_small_noise_value_matches_feature_matrix(noise, rtol, seed):
    # Data drawn from the features themselves with noise this small leave
    # residuals near the noise level, so the data-fit term is a small
    # difference of large sums: the objective takes it from Gram sums,
    # low_rank_log_marginal from the rows' residuals y - Phi_c m, and
    # float64 rounding sets how far apart they land.  Over these eight
    # data seeds (200 rows, R=40) they differed by at most 3.0e-11 at noise
    # 1e-6 and 2.0e-9 at the floor; the tolerances leave room for other
    # BLAS builds.  See the likelihood module docstring for both against a
    # 50-digit reference.
    spec = LfmSpec((Ode1Params(1.0), Ode2Params(1.0, 3.0, 2.0)), 2, [1.0, 0.7],
                   [[1.0, 0.5], [0.6, 1.0]], [noise, noise])
    draws = sample_frequencies(10, 2, 0)
    rng = np.random.default_rng(seed)
    t, ids = np.tile(np.linspace(0.0, 3.0, 100), 2), np.repeat([1, 2], 100)
    fm = feature_matrix(t, ids, spec, draws)
    y = fm.phi_c @ rng.normal(size=fm.phi_c.shape[1]) + math.sqrt(noise) * rng.normal(size=200)
    ref, _ = low_rank_log_marginal(fm, noise_vector(spec, ids), y)
    got = LmlObjective(Dataset(ids, t, y), spec, draws).value(pack(spec).values)
    assert_allclose(got, ref, rtol=rtol)


# ---------------------------------------------------------------------------
# analytic gradient vs central differences


def fd_gradient(obj, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        hi = h * (1.0 + abs(theta[i]))
        tp, tm = theta.copy(), theta.copy()
        tp[i] += hi
        tm[i] -= hi
        g[i] = (obj.value(tp) - obj.value(tm)) / (2.0 * hi)
    return g


def check_gradient(spec, data, draws):
    obj = LmlObjective(data, spec, draws)
    theta = pack(spec).values
    _, analytic = obj.value_and_gradient(theta)
    numeric = fd_gradient(obj, theta)
    assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# chunked evaluations: results do not depend on where chunks end

CHUNK = 7


def two_output_data(rows, mogp, seed=11):
    """``rows`` rows per output, output ids alternating 1, 2, 1, 2, ..."""
    rng = np.random.default_rng(seed)
    n = 2 * rows
    x = rng.uniform(-1.0, 1.0, size=(n, 2)) if mogp else rng.uniform(0.05, 3.0, n)
    return Dataset(np.tile([1, 2], rows), x, rng.normal(size=n))


@pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("case", list(OBJECTIVE_CASES))
def test_chunked_objective_matches_dense(monkeypatch, case, rows):
    spec, draws, assemble = OBJECTIVE_CASES[case]
    data = two_output_data(rows, isinstance(spec, MogpSpec))
    theta = pack(spec).values
    _, one_chunk = LmlObjective(data, spec, draws).value_and_gradient(theta)
    monkeypatch.setattr(backends, "CHUNK_ROWS", CHUNK)
    obj = LmlObjective(data, spec, draws)
    value, grad = obj.value_and_gradient(theta)
    fm = assemble(data.inputs, data.output_ids, spec, draws)
    dense = full_log_marginal(fm.phi_c @ fm.phi_c.T, noise_vector(spec, data.output_ids), data.y)
    assert_allclose(value, dense, rtol=1e-12)
    assert obj.value(theta) == value
    assert np.linalg.norm(grad - one_chunk) <= 1e-12 * np.linalg.norm(one_chunk)
    check_gradient(spec, data, draws)


MEMORY_SPEC = LfmSpec((Ode1Params(1.0), Ode2Params(1.0, 3.0, 2.0)), 2, [1.0, 0.7],
                      [[1.0, 0.5], [0.6, 1.0]], [0.1, 0.1])


def memory_problem(n):
    """Q=2, S=50 (R=200): n rows split between two outputs, and the objective."""
    data = Dataset(np.repeat([1, 2], n // 2), np.tile(np.linspace(0.0, 3.0, n // 2), 2),
                   np.random.default_rng(0).normal(size=n))
    draws = sample_frequencies(50, 2, 0)
    return data, draws, LmlObjective(data, MEMORY_SPEC, draws)


def peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_memory_is_linear_with_small_constant():
    # N=16000.  The objective holds no array that grows with N: its Gram
    # matrices are R x R and every other array is chunk-sized.
    n = 16000
    data, draws, obj = memory_problem(n)
    theta = pack(MEMORY_SPEC).values
    obj.value_and_gradient(theta)  # warm-up
    fm = feature_matrix(data.inputs, data.output_ids, MEMORY_SPEC, draws)
    noise = noise_vector(MEMORY_SPEC, data.output_ids)
    assert peak(obj.value_and_gradient, theta) <= 3000 * n
    assert peak(obj.value, theta) <= 3000 * n
    # no N x R temporary besides the input Phi_c (1.6 KB per row)
    assert peak(low_rank_log_marginal, fm, noise, data.y) <= 500 * n


def test_evaluation_memory_is_flat_in_n():
    # After the first evaluation has made the sums and work arrays, an
    # evaluation allocates only chunk-sized temporaries, whatever N.
    theta = pack(MEMORY_SPEC).values
    peaks = []
    for n in (16000, 64000):
        obj = memory_problem(n)[2]
        obj.value_and_gradient(theta)  # warm-up
        peaks.append(peak(obj.value_and_gradient, theta))
    assert peaks[1] <= 8e6
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


class TestGradient:
    def test_ode1_pair(self):
        spec = LfmSpec((Ode1Params(0.8), Ode1Params(1.6)), 2, [1.0, 0.6],
                       [[1.0, 0.4], [0.3, 1.2]], [0.2, 0.15])
        check_gradient(spec, lfm_data(0), sample_frequencies(6, 2, seed=3))

    def test_ode2_mixed(self):
        spec = LfmSpec((Ode1Params(1.1), Ode2Params(1.0, 3.0, 2.0)), 1, [0.9],
                       [[0.7], [-0.5]], [0.3, 0.1])
        check_gradient(spec, lfm_data(1), sample_frequencies(6, 1, seed=4))

    def test_zero_sensitivity(self):
        # The gradient's sums are taken before scaling by S_dq, so a zero
        # sensitivity still has its exact slope.
        spec = LfmSpec((Ode1Params(1.1), Ode2Params(1.0, 3.0, 2.0)), 2, [0.9, 1.7],
                       [[0.7, 0.0], [-0.5, 1.1]], [0.3, 0.1])
        draws = sample_frequencies(6, 2, seed=4)
        _, g = LmlObjective(lfm_data(1), spec, draws).value_and_gradient(pack(spec).values)
        assert g[pack(spec).labels.index("sensitivity[d=1,q=2]")] != 0.0
        check_gradient(spec, lfm_data(1), draws)

    def test_underdamped_ode2(self):
        spec = LfmSpec((Ode2Params(1.0, 2.0, 5.0),), 1, [1.3], [[0.9]], [0.25])
        data = lfm_data(2)
        data = Dataset(np.ones_like(data.output_ids), data.inputs, data.y)
        check_gradient(spec, data, sample_frequencies(5, 1, seed=5))

    def test_general_operator_third_order(self):
        # Coefficient derivatives for the generic operator come from the
        # implicit-function root derivatives ds_p/da_i = -s_p^(P-i) / a'(s_p).
        spec = LfmSpec((OdeOperator((1.0, 6.0, 11.0, 6.0)),), 1, [1.0],
                       [[1.0]], [0.2])
        data = lfm_data(3)
        data = Dataset(np.ones_like(data.output_ids), data.inputs, data.y)
        check_gradient(spec, data, sample_frequencies(4, 1, seed=6))

    def test_general_operator_leading_coefficient_complex_roots(self):
        # (2s + 1)(s^2 + s + 4): a_0 != 1 and a complex root pair
        spec = LfmSpec((OdeOperator((2.0, 3.0, 9.0, 4.0)),), 1, [1.0],
                       [[1.0]], [0.2])
        data = lfm_data(3)
        data = Dataset(np.ones_like(data.output_ids), data.inputs, data.y)
        check_gradient(spec, data, sample_frequencies(4, 1, seed=6))

    def test_near_critical_ode2_warns(self):
        # c^2 = 4mb: the spring is perturbed and the gradient is taken at the
        # perturbed roots, which differences of value() still confirm.
        spec = LfmSpec((Ode1Params(0.7), Ode2Params(1.0, 2.0, 1.0)), 1, [1.3],
                       [[0.9], [0.6]], [0.25, 0.2])
        data = lfm_data(2)
        draws = sample_frequencies(5, 1, seed=5)
        obj = LmlObjective(data, spec, draws)
        with pytest.warns(NumericsWarning, match="critical damping"):
            obj.value_and_gradient(pack(spec).values)
        with pytest.warns(NumericsWarning, match="critical damping"):
            check_gradient(spec, data, draws)

    def test_ode2_frequency_collision(self):
        # One frequency sits at the resonance of a lightly damped ODE2, so
        # j*lam meets a root and is perturbed.  Many samples keep the one
        # near-singular column's roundoff inside the difference tolerance.
        damper, spring = 1e-7, 4.0
        base = np.random.default_rng(1).normal(size=(128, 1))
        base[1, 0] = math.sqrt(spring - damper**2 / 4.0) / math.sqrt(2.0)
        draws = FrequencyDraws(base, 0, 128)
        spec = LfmSpec((Ode2Params(1.0, damper, spring),), 1, [1.0], [[0.9]], [0.25])
        data = lfm_data(2)
        data = Dataset(np.ones_like(data.output_ids), data.inputs, data.y)
        with pytest.warns(NumericsWarning, match="collide"):
            check_gradient(spec, data, draws)

    def test_general_operator_frequency_collision(self):
        # (s + 1)(s^2 + 1e-7 s + 4) has poles at -5e-8 +- 2j; one frequency
        # sits on the upper one.  The order-3 output collides, the ODE2 output
        # does not, so exactly one block warns per evaluation.
        coeffs = tuple(np.polymul([1.0, 1.0], [1.0, 1e-7, 4.0]))
        base = np.random.default_rng(1).normal(size=(128, 1))
        base[1, 0] = float(np.max(np.roots(coeffs).imag)) / math.sqrt(2.0)
        draws = FrequencyDraws(base, 0, 128)
        spec = LfmSpec((OdeOperator(coeffs), Ode2Params(1.0, 3.0, 2.0)), 1, [1.0],
                       [[0.9], [0.5]], [0.25, 0.2])
        data = lfm_data(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            LmlObjective(data, spec, draws).value_and_gradient(pack(spec).values)
        collide = [w for w in caught
                   if issubclass(w.category, NumericsWarning) and "collide" in str(w.message)]
        assert len(collide) == 1
        with pytest.warns(NumericsWarning, match="collide"):
            check_gradient(spec, data, draws)

    def test_mogp_two_dim(self):
        spec = MogpSpec(2, [1.4, 0.8], 2, [1.0, 0.7],
                        [[1.0, 0.2], [0.4, 0.9]], [0.15, 0.3])
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=(9, 2))
        ids = rng.integers(1, 3, size=9)
        data = Dataset(ids, x, rng.normal(size=9))
        check_gradient(spec, data, sample_spectral(5, 2, 2, seed=8))

    def test_floored_noise_has_zero_slope(self):
        spec = LfmSpec((Ode1Params(1.0),), 1, [1.0], [[1.0]], [1e-8])
        data = lfm_data(4)
        data = Dataset(np.ones_like(data.output_ids), data.inputs, data.y)
        obj = LmlObjective(data, spec, sample_frequencies(4, 1, seed=0))
        packed = pack(spec)
        noise_slot = [i for i, lab in enumerate(packed.labels)
                      if "noise" in str(lab)]
        assert len(noise_slot) == 1
        _, g = obj.value_and_gradient(packed.values)
        assert g[noise_slot[0]] == 0.0

    def test_duplicated_rows_add_noise_gradient(self):
        # Stacking the same observation twice doubles that output's noise
        # slot only through the sum over rows; verify against differences.
        spec = LfmSpec((Ode1Params(1.0),), 1, [1.0], [[1.0]], [0.3])
        base = Dataset(np.array([1, 1]), np.array([0.7, 0.7]), np.array([0.4, 0.4]))
        check_gradient(spec, base, sample_frequencies(4, 1, seed=9))

    def test_non_finite_slot_is_named(self):
        spec = LfmSpec((Ode1Params(1.0),), 1, [1.0], [[1.0]], [0.1])
        t = np.linspace(0.1, 2.0, 5)
        data = Dataset(np.ones(5, int), t, np.full(5, 1e200))
        obj = LmlObjective(data, spec, sample_frequencies(4, 1, 0))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="log_gamma"):
                obj.value_and_gradient(pack(spec).values)

    def test_objective_validates_draws(self):
        spec = LfmSpec((Ode1Params(1.0),), 2, [1.0, 1.0], [[1.0, 1.0]], [0.1])
        data = Dataset(np.array([1]), np.array([0.5]), np.array([0.0]))
        with pytest.raises(ValueError):
            LmlObjective(data, spec, sample_frequencies(4, 1, seed=0))
        mogp = MogpSpec(1, [1.0], 1, [1.0], [[1.0]], [0.1])
        with pytest.raises(TypeError):
            LmlObjective(data, mogp, sample_frequencies(4, 1, seed=0))
        with pytest.raises(ValueError):
            LmlObjective(data, mogp, sample_spectral(4, 1, 2, seed=0))


LFM_Q1 = LfmSpec((Ode1Params(1.0),), 1, [1.0], [[1.0]], [0.1])
MOGP_Q1 = MogpSpec(2, [1.0], 1, [1.0], [[1.0]], [0.1])
LFM_ROWS = Dataset([1, 1], [0.5, 1.0], [0.1, 0.2])
MOGP_ROWS = Dataset([1, 1], [[0.5, 0.1], [1.0, -0.3]], [0.1, 0.2])
TAKES_DRAWS = {
    "feature_matrix": lambda data, spec, draws: feature_matrix(
        data.inputs, data.output_ids, spec, draws),
    "mogp_feature_matrix": lambda data, spec, draws: mogp_feature_matrix(
        data.inputs, data.output_ids, spec, draws),
    "weight_posterior": weight_posterior,
    "LmlObjective": LmlObjective,
}
LFM_TAKERS = ("feature_matrix", "weight_posterior", "LmlObjective")
MOGP_TAKERS = ("mogp_feature_matrix", "weight_posterior", "LmlObjective")
# (what is wrong, spec, its rows, draws, error type, message)
WRONG_DRAWS = [
    ("spectral-for-lfm", LFM_Q1, LFM_ROWS, sample_spectral(4, 1, 1, seed=0),
     TypeError, "FrequencyDraws"),
    ("extra-force-lfm", LFM_Q1, LFM_ROWS, sample_frequencies(4, 2, seed=0),
     ValueError, "2 forces"),
    ("frequency-for-mogp", MOGP_Q1, MOGP_ROWS, sample_frequencies(4, 1, seed=0),
     TypeError, "SpectralDraws"),
    ("extra-force-mogp", MOGP_Q1, MOGP_ROWS, sample_spectral(4, 2, 2, seed=0),
     ValueError, "2 forces"),
    ("input-dim-mogp", MOGP_Q1, MOGP_ROWS, sample_spectral(4, 1, 3, seed=0),
     ValueError, "input_dim 3"),
]


@pytest.mark.parametrize("taker,case", [
    (taker, case) for case in WRONG_DRAWS
    for taker in (LFM_TAKERS if isinstance(case[1], LfmSpec) else MOGP_TAKERS)
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_draws_that_do_not_fit_the_spec_raise_typed_errors(taker, case):
    # Each caller of the feature fills rejects such draws with the same
    # check, before any fill; none reads only some of the draws' forces.
    _, spec, data, draws, error, message = case
    with pytest.raises(error, match=message):
        TAKES_DRAWS[taker](data, spec, draws)


# ---------------------------------------------------------------------------
# optimizer behaviour


def fit_problem():
    rng = np.random.default_rng(12)
    t = np.sort(rng.uniform(0.0, 3.0, 30))
    y = np.sin(1.5 * t) * np.exp(-0.2 * t) + rng.normal(scale=0.05, size=30)
    data = Dataset(np.ones(30, int), t, y)
    init = LfmSpec((Ode1Params(0.5),), 1, [2.0], [[0.5]], [0.2])
    return init, data, sample_frequencies(20, 1, seed=1)


class TestOptimize:
    def test_trace_is_monotone_and_improves(self):
        init, data, draws = fit_problem()
        fit = optimize(init, data, draws, OptimizerConfig(max_iters=40))
        lmls = [row[1] for row in fit.trace]
        assert all(b >= a - 1e-12 for a, b in zip(lmls, lmls[1:]))
        assert fit.final_lml >= lmls[0]
        assert fit.status in ("converged", "max_iters", "line_search_failed")
        assert fit.seed == draws.seed and fit.num_samples == draws.num_samples

    def test_trace_schema(self):
        init, data, draws = fit_problem()
        fit = optimize(init, data, draws, OptimizerConfig(max_iters=3))
        for i, row in enumerate(fit.trace):
            assert row[0] == i
            assert len(row) == 5
        elapsed = [row[3] for row in fit.trace]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
        evals = [row[4] for row in fit.trace]
        assert evals[0] == 1 and all(b > a for a, b in zip(evals, evals[1:]))

    def test_trace_counts_every_evaluation(self, monkeypatch):
        calls = []
        original = LmlObjective.value_and_gradient

        def counted(self, theta):
            calls.append(1)
            return original(self, theta)

        monkeypatch.setattr(LmlObjective, "value_and_gradient", counted)
        init, data, draws = fit_problem()
        fit = optimize(init, data, draws, OptimizerConfig(max_iters=40))
        assert fit.trace[-1][4] == len(calls)
        # some line searches take more than one trial, and those count too
        assert len(calls) > len(fit.trace)

    def test_iteration_limit_status(self):
        init, data, draws = fit_problem()
        fit = optimize(init, data, draws, OptimizerConfig(max_iters=3))
        assert fit.status == "max_iters"
        assert fit.iterations == 3
        assert len(fit.trace) == 4

    def test_converged_means_gradient_norm_within_tolerance(self):
        init, data, draws = fit_problem()
        cfg = OptimizerConfig()
        fit = optimize(init, data, draws, cfg)
        assert fit.status == "converged"
        g = LmlObjective(data, init, draws).value_and_gradient(fit.packed.values)[1]
        assert np.linalg.norm(g) <= cfg.grad_tol
        assert fit.trace[-1][2] == np.linalg.norm(g)

    def test_zero_iterations_when_already_converged(self):
        init, data, draws = fit_problem()
        fit = optimize(init, data, draws, OptimizerConfig(grad_tol=1e12))
        assert fit.iterations == 0
        assert fit.status == "converged"
        assert len(fit.trace) == 1
        assert_allclose(fit.packed.values, pack(init).values, rtol=0)

    def test_stalled_line_search_status(self):
        # No gradient reaches norm 0, so the fit ends when no step along the
        # search direction measurably raises the lml.
        init, data, draws = fit_problem()
        with pytest.warns(NumericsWarning, match="line search failed"):
            fit = optimize(init, data, draws, OptimizerConfig(grad_tol=0.0))
        assert fit.status == "line_search_failed"
        assert fit.iterations < OptimizerConfig().max_iters
        assert fit.final_lml == max(row[1] for row in fit.trace)

    def test_never_returns_worse_than_init(self):
        init, data, draws = fit_problem()
        obj = LmlObjective(data, init, draws)
        start = obj.value(pack(init).values)
        fit = optimize(init, data, draws, OptimizerConfig(max_iters=2))
        assert fit.final_lml >= start - 1e-12

    def test_first_step_underflow_backtracks(self):
        # Large targets give a raw gradient in the hundreds, so the first unit
        # step takes log_lengthscale below exp's range; unpacking that trial
        # point fails, which must count as a failed trial, not escape.
        init, data, draws = fit_problem()
        data = Dataset(data.output_ids, data.inputs, 10.0 * data.y)
        theta = pack(init).values
        g = LmlObjective(data, init, draws).value_and_gradient(theta)[1]
        slot = pack(init).labels.index("log_lengthscale[q=1]")
        assert math.exp(theta[slot] + g[slot]) == 0.0
        fit = optimize(init, data, draws, OptimizerConfig(max_iters=3))
        assert isinstance(fit, FitResult)
        assert fit.iterations >= 1
        assert fit.final_lml > fit.trace[0][1]

    def test_refit_from_result_matches_final(self):
        init, data, draws = fit_problem()
        fit = optimize(init, data, draws, OptimizerConfig(max_iters=25))
        obj = LmlObjective(data, init, draws)
        assert_allclose(obj.value(fit.packed.values), fit.final_lml, rtol=1e-12)
