"""The Chebyshev reduction of one-dimensional outputs against the direct fill.

An output whose inputs are one-dimensional (every LFM output, a MOGP's when
p = 1) is reduced, in an evaluation where its features are resolved, in a
Chebyshev basis of its span: its chunks add Grams of T_0..T_k instead of
psi's, mapped to psi's by the block's coefficients.  Prediction does the
same for an output's test rows, and for a latent force's times: their means
and variances come from B Z_c, not from filled rows.  Most other objective
and prediction tests use R <= 28, where no basis degree is allowed, so this
file is where that path is compared with the direct fill: its sums, the
objective's value and gradient, and the predictions' means and variances,
over operator edge cases and input layouts, and the cases it must leave to
the direct fill with today's bits, errors and warnings.
"""

import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lfmrff import features, predict
from lfmrff.features import (
    NumericsWarning,
    chebyshev_coefficients,
    chebyshev_nodes,
    chebyshev_rows,
    force_frequencies,
    output_blocks,
    output_rows,
    phi_c_width,
    sample_draws,
)
from lfmrff.kernels import latent_block
from lfmrff.likelihood import FitResult, LmlObjective, _OutputSums, _Work, weight_posterior
from lfmrff.model import (
    Dataset,
    LfmSpec,
    MogpSpec,
    NumericalError,
    Ode1Params,
    Ode2Params,
    OdeOperator,
    pack,
)

# Q = 2 forces of S = 32 samples: R = 128, so degrees up to 64 are allowed
FORCES, SAMPLES = 2, 32
DRAWS_SEED = 3
# Bounds on the difference from the direct fill: each sum's relative to
# the Cauchy-Schwarz bound on its entries (``rounding_scales``), the
# value's relative, the gradient's relative to |g|.  Over about 1000
# examples the sums' largest was 1.6e-14 (1.4e-13 where two roots, or a
# root and an excitation root, nearly coincide), and over 470 the value's
# 1.3e-15 and the gradient's 1e-15 away from such roots.  Near them the
# gradient's rounding is large on either path: at critical damping the
# direct fill moved it by up to 1.6e-9 of |g| when its rows came in
# another order, and the basis by as much, so there it has its own bound.
SUMS_RTOL = 1e-12
VALUE_RTOL = 1e-12
GRAD_RTOL = 1e-10
CLOSE_ROOTS_GRAD_RTOL = 1e-8
# Prediction's bound on the difference from the direct fill: the means'
# relative to the largest |mean|, the variances' relative to the largest
# variance.  Over about 560 comparisons here the largest were 2.1e-13 for
# the means, at critical damping (roots perturbed 1e-3 apart, residues
# near 500), and 1.7e-14 for the variances.
PREDICT_RTOL = 1e-12

PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@contextmanager
def direct_fill():
    """Objectives first evaluated in this context, and predictions made in it, take the
    direct fill for every output and latent force."""
    with mock.patch.object(features, "BASIS_ROWS_PER_DEGREE", 10**9):
        yield


def degrees(obj, spec):
    """{d: the basis degree output d takes at ``spec``, or None for the direct fill}."""
    blocks = output_blocks(obj._rows, spec, obj.draws)
    chosen = {d: sums.coefficients(blocks[d]) for d, sums in obj._sums.items()}
    return {d: None if z is None else z.shape[0] for d, z in chosen.items()}


def assert_basis_matches_the_fill(spec, data, grad_rtol=GRAD_RTOL):
    """The objective reduced where resolved against the direct fill; returns the degrees."""
    draws = sample_draws(spec, SAMPLES, DRAWS_SEED)
    theta = pack(spec).values
    obj = LmlObjective(data, spec, draws)
    value, grad = obj.value_and_gradient(theta)
    with direct_fill():
        ref_value, ref_grad = LmlObjective(data, spec, draws).value_and_gradient(theta)
    assert abs(value - ref_value) <= VALUE_RTOL * abs(ref_value)
    assert np.linalg.norm(grad - ref_grad) <= grad_rtol * np.linalg.norm(ref_grad)
    return degrees(obj, spec)


def close_roots(block):
    """Whether two of ``block``'s roots, or a root and an excitation root j lam,
    lie within 1e-2 of each other: their residues then cancel far above eps
    in the fill itself."""
    roots = np.concatenate([block.rs.roots, 1j * block.lam])
    gaps = np.abs(roots[:, None] - roots[None, : block.rs.roots.size])
    gaps[np.arange(block.rs.roots.size), np.arange(block.rs.roots.size)] = np.inf
    return np.min(gaps) < 1e-2 * (1.0 + np.max(np.abs(block.rs.roots)))


# ---------------------------------------------------------------------------
# strategies


def ode2(damping):
    """ODE2 of mass m and natural frequency w at damping ratio ``damping``."""
    return st.builds(lambda m, w, z: Ode2Params(m, 2.0 * z * m * w, m * w * w),
                     st.floats(0.5, 2.0), st.floats(0.5, 3.0), damping)


OPERATORS = st.one_of(
    st.builds(Ode1Params, st.floats(0.05, 5.0)),
    ode2(st.floats(0.05, 0.9)),  # underdamped
    ode2(st.floats(1.1, 5.0)),  # overdamped
    ode2(st.just(1.0)),  # critically damped: the roots are perturbed apart
    st.builds(lambda m, b: Ode2Params(m, 1e-7, b), st.floats(0.5, 2.0), st.floats(0.5, 4.0)),
    # (s + r)((s + a)^2 + b^2): order 3, a real root and a complex pair
    st.builds(lambda r, a, b: OdeOperator((1.0, r + 2.0 * a, 2.0 * a * r + a * a + b * b,
                                           r * (a * a + b * b))),
              st.floats(0.2, 3.0), st.floats(0.1, 2.0), st.floats(0.3, 3.0)),
)


@st.composite
def times(draw, low=0.0):
    """Times of one output on [low, low + span]: sometimes with a row at ``low``,
    sometimes with duplicated rows."""
    n = draw(st.integers(400, 1500))
    span = draw(st.floats(1.0, 5.0))
    seed = draw(st.integers(0, 2**32 - 1))
    t = low + np.random.default_rng(seed).uniform(0.0, span, n)
    if draw(st.booleans()):
        t[0] = low
    if draw(st.booleans()):
        t[n // 2 :] = t[: n - n // 2]
    return t


@st.composite
def lfm_problems(draw):
    """A two-output LFM spec and data: a drawn operator and time layout, and an
    ODE1 output of a single row."""
    op = draw(OPERATORS)
    t = draw(times())
    ell = [draw(st.floats(0.7, 2.0)) for _ in range(FORCES)]
    spec = LfmSpec((op, Ode1Params(1.0)), FORCES, ell, [[1.0, 0.6], [0.5, 0.8]], [0.1, 0.2])
    ids = np.concatenate([np.ones(t.size, int), [2]])
    rng = np.random.default_rng(t.size)
    return spec, Dataset(ids, np.append(t, 1.5), rng.normal(size=t.size + 1))


@st.composite
def mogp_problems(draw):
    """A one-output MOGP over R^1 with inputs that may be negative."""
    x = draw(times(low=draw(st.floats(-3.0, 1.0))))
    spec = MogpSpec(1, [draw(st.floats(0.5, 4.0))], FORCES,
                    [draw(st.floats(0.7, 2.0)) for _ in range(FORCES)], [[1.0, 0.7]], [0.1])
    return spec, Dataset(np.ones(x.size, int), x, np.random.default_rng(x.size).normal(size=x.size))


# ---------------------------------------------------------------------------
# the basis itself


@pytest.mark.parametrize("n", [2, 3, 33, 49, 97])
def test_chebyshev_rows_match_the_cosine_form(n):
    x = np.concatenate([[0.0, 10.0], np.random.default_rng(n).uniform(0.0, 10.0, 500)])
    rows = chebyshev_rows(x, 0.0, 10.0, np.empty((n, x.size)))
    theta = np.arccos(np.clip(x / 5.0 - 1.0, -1.0, 1.0))
    exact = np.cos(np.outer(np.arange(n), theta))
    assert np.max(np.abs(rows - exact)) <= 1e-12
    assert np.array_equal(rows[:, 0], (-1.0) ** np.arange(n))  # u = -1 exactly
    assert np.array_equal(rows[:, 1], np.ones(n))


def test_coefficients_interpolate_at_the_nodes():
    values = lambda x: np.stack([np.exp(-x), np.sin(3.0 * x)], axis=1)  # noqa: E731
    z = chebyshev_coefficients(values, 1.0, 4.0, (8, 32))
    assert z.shape == (32, 2)  # eight nodes leave sin(3x) on [1, 4] unresolved
    nodes, _ = chebyshev_nodes(32)
    x = np.linspace(1.0, 4.0, 300)
    basis = chebyshev_rows(x, 1.0, 4.0, np.empty((32, x.size))).T
    assert np.max(np.abs(basis @ z - values(x))) <= 1e-14


def test_coefficients_of_an_unresolved_or_non_finite_sample_are_none():
    assert chebyshev_coefficients(lambda x: np.sin(50.0 * x)[:, None], 0.0, 10.0, (32, 64)) is None
    with np.errstate(over="raise"):  # the nodes' overflow is not raised
        assert chebyshev_coefficients(lambda x: np.exp(x)[:, None], 0.0, 800.0, (32,)) is None


# ---------------------------------------------------------------------------
# sums and objective: the basis against the direct fill


def reduced_sums(block, x, y, r2, use_basis):
    """An output's merged sums over chunks of 300 rows split between two sides."""
    sums = _OutputSums(x, y, r2, {0, 1})
    z = sums.coefficients(block) if use_basis else None
    work = [_Work(300, r2, True), _Work(300, r2, True)]
    for i, lo in enumerate(range(0, y.size, 300)):
        sums.add(i % 2, slice(lo, lo + 300), i < 2, block, z, True, work[i % 2])
    total = sums.merge(True, z)
    return z, [*total.grams.copy(), total.a, *total.grad_sums]


def rounding_scales(block, x, y, sums):
    """Cauchy-Schwarz bounds on each sum's entries, the scale of its rounding.

    ``sums`` are the direct fill's [G, Gx, a, ax, Omega^T psi, Omega^T y]
    (the last two for a block with row weights).  G and Gx are positive
    semidefinite, so their largest entry is their bound.
    """
    psi = np.sqrt(np.max(np.diag(sums[0])))  # the largest column norm of psi
    scales = [np.max(np.abs(sums[0])), np.max(np.abs(sums[1])), psi * np.linalg.norm(y),
              psi * np.linalg.norm(x * y)]
    if len(sums) > 4:
        omega = np.max(np.linalg.norm(block.row_weights(x).view(float), axis=0))
        scales += [omega * psi, omega * np.linalg.norm(y)]
    return scales


@PROPERTY
@given(st.one_of(lfm_problems(), mogp_problems()))
def test_basis_sums_match_the_direct_fill(problem):
    spec, data = problem
    draws = sample_draws(spec, SAMPLES, DRAWS_SEED)
    rows = np.flatnonzero(data.output_ids == 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)  # critical damping, perturbed
        block = output_blocks([1], spec, draws)[1]
    x, y = data.inputs[rows], data.y[rows]
    r2 = 2 * FORCES * SAMPLES
    z, got = reduced_sums(block, x, y, r2, True)
    if z is None:  # not resolved: filled, as the fallback tests check
        event("filled")
        return
    _, want = reduced_sums(block, x, y, r2, False)
    assert len(got) == len(want)
    for g, w, scale in zip(got, want, rounding_scales(block, x, y, want)):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= SUMS_RTOL * scale


@PROPERTY
@given(lfm_problems())
def test_lfm_objective_matches_the_direct_fill(problem):
    spec, data = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        block = output_blocks([1], spec, sample_draws(spec, SAMPLES, DRAWS_SEED))[1]
        chosen = assert_basis_matches_the_fill(
            spec, data, CLOSE_ROOTS_GRAD_RTOL if close_roots(block) else GRAD_RTOL)
    assert chosen[2] is None  # the one-row output is filled
    event("filled" if chosen[1] is None else "reduced")


@PROPERTY
@given(mogp_problems())
def test_one_dimensional_mogp_objective_matches_the_direct_fill(problem):
    spec, data = problem
    assert assert_basis_matches_the_fill(spec, data)[1] is not None


@pytest.mark.parametrize("op", [
    Ode1Params(2.0),
    Ode2Params(1.0, 0.6, 4.0),  # underdamped
    Ode2Params(1.0, 5.0, 2.0),  # overdamped
    Ode2Params(1.0, 2.0, 1.0),  # critically damped, perturbed
    Ode2Params(1.0, 1e-7, 2.0),  # undamped
    OdeOperator((1.0, 2.0, 5.0, 4.0)),  # (s + 1)(s^2 + s + 4)
], ids=["ode1", "under", "over", "critical", "c=1e-7", "order3"])
def test_every_operator_kind_is_reduced_on_a_resolved_span(op):
    # 1000 rows over [0, 5], a row at t = 0 and duplicated times
    t = np.random.default_rng(4).uniform(0.0, 5.0, 1000)
    t[0], t[500:] = 0.0, t[:500]
    data = Dataset(np.ones(1000, int), t, np.random.default_rng(5).normal(size=1000))
    spec = LfmSpec((op,), FORCES, [1.0, 1.5], [[1.0, 0.6]], [0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        block = output_blocks([1], spec, sample_draws(spec, SAMPLES, DRAWS_SEED))[1]
        chosen = assert_basis_matches_the_fill(
            spec, data, CLOSE_ROOTS_GRAD_RTOL if close_roots(block) else GRAD_RTOL)
    assert chosen[1] is not None


def test_basis_path_has_the_same_bits_with_and_without_the_helper(monkeypatch):
    # 3000 rows an output: three chunks, on both sides of the pass
    spec = LfmSpec((Ode1Params(1.2), OdeOperator((1.0, 2.0, 5.0, 4.0))), FORCES, [1.0, 2.0],
                   [[1.0, 0.5], [0.8, 1.2]], [0.05, 0.05])
    rng = np.random.default_rng(0)
    data = Dataset(np.repeat([1, 2], 3000), rng.uniform(0.0, 5.0, 6000), rng.normal(size=6000))
    draws = sample_draws(spec, SAMPLES, DRAWS_SEED)
    theta = pack(spec).values
    results = []
    for helpers in (0, 1):
        monkeypatch.setattr(features, "_helper_count", lambda h=helpers: h)
        obj = LmlObjective(data, spec, draws)
        results.append(obj.value_and_gradient(theta))
    assert None not in degrees(obj, spec).values()
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])


# ---------------------------------------------------------------------------
# what the basis leaves to the direct fill


def lfm(op, ell=(1.0, 1.0)):
    return LfmSpec((op, Ode1Params(1.0)), FORCES, list(ell), [[1.0, 0.6], [0.5, 0.8]], [0.1, 0.2])


def grid(t_max, n=1000):
    t = np.tile(np.linspace(0.0, t_max, n), 2)
    return Dataset(np.repeat([1, 2], n), t, np.random.default_rng(1).normal(size=2 * n))


@pytest.mark.parametrize("spec,data,filled", [
    pytest.param(lfm(Ode1Params(1.0), ell=(0.3, 1.0)), grid(10.0), {1, 2},
                 id="short-ell-long-span"),
    pytest.param(lfm(Ode1Params(50.0)), grid(10.0), {1}, id="stiff-root"),
    pytest.param(lfm(Ode1Params(1.0)), grid(100.0), {1, 2}, id="span-100"),
    pytest.param(lfm(Ode1Params(1.0)),
                 Dataset(np.repeat([1, 2], 400), np.append(np.full(400, 2.0), np.linspace(0, 3, 400)),
                         np.random.default_rng(2).normal(size=800)), {1}, id="one-time"),
    pytest.param(lfm(Ode1Params(1.0)), grid(3.0, n=100), {1, 2}, id="few-rows"),
])
def test_unresolved_outputs_take_the_direct_fill(spec, data, filled):
    draws = sample_draws(spec, SAMPLES, DRAWS_SEED)
    theta = pack(spec).values
    obj = LmlObjective(data, spec, draws)
    got = obj.value_and_gradient(theta)
    assert {d for d, k in degrees(obj, spec).items() if k is None} == filled
    if filled == {1, 2}:  # then the evaluation is the direct one, bit for bit
        with direct_fill():
            want = LmlObjective(data, spec, draws).value_and_gradient(theta)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


# 800 rows alternating t = 0 and a subnormal t, where 2/(hi - lo) overflows:
# a basis would map the rows to inf and NaN, so they take the direct fill
SUBNORMAL_SPAN = np.tile([0.0, 1e-310], 400)
SUBNORMAL_SPEC = LfmSpec((Ode1Params(1.0),), 1, [1.0], [[1.0]], [0.1])
SUBNORMAL_DRAWS = sample_draws(SUBNORMAL_SPEC, 64, DRAWS_SEED)  # R = 128: degrees up to 64


def test_a_subnormal_span_takes_the_direct_fill():
    assert features.basis_degrees(SUBNORMAL_SPAN, 128) == ()
    assert features.basis_degrees(np.tile([0.0, 1e-300], 400), 128) == (32, 48, 64)
    data = Dataset(np.ones(800, int), SUBNORMAL_SPAN, np.random.default_rng(6).normal(size=800))
    obj = LmlObjective(data, SUBNORMAL_SPEC, SUBNORMAL_DRAWS)
    value, grad = obj.value_and_gradient(pack(SUBNORMAL_SPEC).values)
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert degrees(obj, SUBNORMAL_SPEC) == {1: None}


def test_subnormal_spans_predict_from_the_direct_fill():
    train = Dataset(np.ones(800, int), np.linspace(0.0, 3.0, 800),
                    np.random.default_rng(7).normal(size=800))
    state = weight_posterior(train, SUBNORMAL_SPEC, SUBNORMAL_DRAWS)
    fit = FitResult(spec=SUBNORMAL_SPEC, packed=pack(SUBNORMAL_SPEC), final_lml=0.0, trace=(),
                    seed=DRAWS_SEED, num_samples=64, iterations=0, status="converged")
    test = Dataset(np.ones(800, int), SUBNORMAL_SPAN, np.zeros(800))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [predict.predict_outputs(fit, state, test),
               predict.predict_latent_forces(fit, state, SUBNORMAL_SPAN, 1)]
    with direct_fill():
        want = [predict.predict_outputs(fit, state, test),
                predict.predict_latent_forces(fit, state, SUBNORMAL_SPAN, 1)]
    for have, ref in zip(got, want):
        assert np.all(np.isfinite(have.mean)) and np.all(np.isfinite(have.variance))
        assert np.array_equal(have.mean, ref.mean) and np.array_equal(have.variance, ref.variance)


def test_overflowing_outputs_keep_todays_errors():
    # (s - 1)(s + 2): e^{t} overflows at t = 800, at the nodes as in the rows,
    # so the output is filled and the fill raises or yields non-finite features
    spec = lfm(OdeOperator((1.0, 1.0, -2.0)))
    t = np.concatenate([np.linspace(0.0, 800.0, 500), np.linspace(0.0, 3.0, 500)])
    data = Dataset(np.repeat([1, 2], 500), t, np.ones(1000))
    draws = sample_draws(spec, SAMPLES, DRAWS_SEED)
    theta = pack(spec).values
    obj = LmlObjective(data, spec, draws)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        obj.value_and_gradient(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(NumericalError, match="not finite"):
                obj.value_and_gradient(theta)
    assert degrees(obj, spec)[1] is None
    # under the default error state the fill's overflow warns, as it did
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericalError):
        obj.value(theta)


def test_near_critical_damping_warns_once_on_the_basis_path():
    spec = lfm(Ode2Params(1.0, 2.0, 1.0))  # c^2 = 4 m b
    draws = sample_draws(spec, SAMPLES, DRAWS_SEED)
    obj = LmlObjective(grid(5.0), spec, draws)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        obj.value_and_gradient(pack(spec).values)
    critical = [c for c in caught if "near-critical" in str(c.message)]
    assert len(critical) == 1 and critical[0].category is NumericsWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        assert degrees(obj, spec)[1] is not None


# ---------------------------------------------------------------------------
# prediction: the basis against the direct fill


def make_fit(spec):
    return FitResult(spec=spec, packed=pack(spec), final_lml=0.0, trace=(), seed=DRAWS_SEED,
                     num_samples=SAMPLES, iterations=0, status="converged")


def basis_outputs(spec, test):
    """The outputs whose test rows ``predict_outputs`` reduces in a basis."""
    rows = output_rows(test.output_ids)
    blocks = output_blocks(rows, spec, sample_draws(spec, SAMPLES, DRAWS_SEED))
    width = phi_c_width(spec.num_forces, SAMPLES)
    return {d for d, r in rows.items()
            if predict._coefficients(test.inputs[r], width,
                                     lambda u, b=blocks[d]: b.fill(u).view(float)) is not None}


def latent_takes_basis(spec, times, q):
    lam = force_frequencies(sample_draws(spec, SAMPLES, DRAWS_SEED), q, spec.lengthscales[q - 1])
    return predict._coefficients(times, 2 * SAMPLES,
                                 lambda u: latent_block(u, lam).view(float)) is not None


def assert_near(got, want):
    """``got`` within PREDICT_RTOL of the direct fill's ``want`` (see PREDICT_RTOL)."""
    assert np.max(np.abs(got.mean - want.mean)) <= PREDICT_RTOL * np.max(np.abs(want.mean))
    assert np.max(np.abs(got.variance - want.variance)) <= PREDICT_RTOL * np.max(want.variance)
    assert np.all(got.variance >= 0.0)


def assert_predictions_match_the_fill(spec, train, test, times=()):
    """Predictions at ``test`` (and latent forces at ``times``) against the direct fill.

    Rows reduced in a basis are within the bounds; every other row has the
    direct fill's bits.  Returns the outputs and forces that took the basis.
    """
    fit = make_fit(spec)
    state = weight_posterior(train, spec, sample_draws(spec, SAMPLES, DRAWS_SEED))
    forces = range(1, spec.num_forces + 1) if isinstance(spec, LfmSpec) else ()
    got = [predict.predict_outputs(fit, state, test, include_noise=False)]
    got += [predict.predict_latent_forces(fit, state, times, q) for q in forces]
    with direct_fill():
        want = [predict.predict_outputs(fit, state, test, include_noise=False)]
        want += [predict.predict_latent_forces(fit, state, times, q) for q in forces]
    reduced = basis_outputs(spec, test)
    basis = np.isin(test.output_ids, list(reduced))
    if basis.any():
        assert_near(got[0], want[0])
    for have, ref in ((got[0].mean, want[0].mean), (got[0].variance, want[0].variance)):
        assert np.array_equal(have[~basis], ref[~basis])
    latent = {q for q in forces if latent_takes_basis(spec, times, q)}
    for q, have, ref in zip(forces, got[1:], want[1:]):
        if q in latent:
            assert_near(have, ref)
        else:
            assert np.array_equal(have.mean, ref.mean)
            assert np.array_equal(have.variance, ref.variance)
    return reduced, latent


@PROPERTY
@given(lfm_problems(), times(low=-4.0))
def test_lfm_predictions_match_the_direct_fill(problem, latent_times):
    # test rows at the training rows (with a row at t = 0 and duplicate
    # times, sometimes), latent forces at negative times
    spec, data = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        reduced, latent = assert_predictions_match_the_fill(spec, data, data, latent_times)
    assert 2 not in reduced  # the one-row output is filled
    event("reduced" if 1 in reduced else "filled")
    event(f"{len(latent)} forces reduced")


@PROPERTY
@given(mogp_problems())
def test_one_dimensional_mogp_predictions_match_the_direct_fill(problem):
    spec, data = problem
    assert assert_predictions_match_the_fill(spec, data, data)[0] == {1}


@pytest.mark.parametrize("op", [
    Ode1Params(2.0),
    Ode2Params(1.0, 0.6, 4.0),  # underdamped
    Ode2Params(1.0, 5.0, 2.0),  # overdamped
    Ode2Params(1.0, 2.0, 1.0),  # critically damped, perturbed
    Ode2Params(1.0, 1e-7, 2.0),  # undamped
    OdeOperator((1.0, 2.0, 5.0, 4.0)),  # (s + 1)(s^2 + s + 4)
], ids=["ode1", "under", "over", "critical", "c=1e-7", "order3"])
def test_every_operator_kind_predicts_in_the_basis(op):
    # 1000 test rows over [0, 5], a row at t = 0 and duplicated times;
    # the latent forces over [-1, 1.5]
    t = np.random.default_rng(4).uniform(0.0, 5.0, 1000)
    t[0], t[500:] = 0.0, t[:500]
    data = Dataset(np.ones(1000, int), t, np.random.default_rng(5).normal(size=1000))
    spec = LfmSpec((op,), FORCES, [1.0, 1.5], [[1.0, 0.6]], [0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        reduced, latent = assert_predictions_match_the_fill(spec, data, data, 0.5 * t - 1.0)
    assert reduced == {1} and latent == {1, 2}


def test_empty_times_give_empty_posteriors():
    spec = lfm(Ode1Params(1.0))
    state = weight_posterior(grid(3.0), spec, sample_draws(spec, SAMPLES, DRAWS_SEED))
    post = predict.predict_latent_forces(make_fit(spec), state, np.array([]), 1)
    assert post.mean.shape == post.variance.shape == (0,)


@pytest.mark.parametrize("spec,test,reduced", [
    pytest.param(lfm(Ode1Params(1.0)), grid(3.0, n=100), set(), id="few-rows"),
    pytest.param(lfm(Ode1Params(1.0)),
                 Dataset(np.repeat([1, 2], 400), np.append(np.full(400, 2.0), np.linspace(0, 3, 400)),
                         np.zeros(800)), {2}, id="one-time"),
    pytest.param(lfm(Ode1Params(1.0), ell=(0.3, 1.0)), grid(100.0), set(),
                 id="short-ell-span-100"),
    pytest.param(lfm(Ode1Params(50.0)), grid(10.0), {2}, id="stiff-root"),
])
def test_unresolved_test_rows_take_the_direct_fill(spec, test, reduced):
    # The filled rows keep today's bits (assert_predictions_match_the_fill),
    # and so do both forces at output 1's times: too few, all at one time,
    # or a span (100 or 10) that degree 32, the most 2S = 64 columns allow,
    # does not resolve at ell = 1.
    times = test.inputs[test.output_ids == 1]
    assert assert_predictions_match_the_fill(spec, grid(3.0), test, times) == (reduced, set())


def test_overflowing_test_rows_keep_todays_errors():
    # (s - 1)(s + 2): e^{t} overflows at t = 800, at the nodes as in the rows,
    # so output 1's test rows are filled, and the fill raises or overflows
    spec = lfm(OdeOperator((1.0, 1.0, -2.0)))
    t = np.concatenate([np.linspace(0.0, 800.0, 500), np.linspace(0.0, 3.0, 500)])
    test = Dataset(np.repeat([1, 2], 500), t, np.zeros(1000))
    fit = make_fit(spec)
    state = weight_posterior(grid(3.0), spec, sample_draws(spec, SAMPLES, DRAWS_SEED))
    assert basis_outputs(spec, test) == {2}
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        predict.predict_outputs(fit, state, test)
    with np.errstate(all="ignore"):
        got = predict.predict_outputs(fit, state, test)
        with direct_fill():
            want = predict.predict_outputs(fit, state, test)
    assert not np.all(np.isfinite(got.mean[:500]))
    np.testing.assert_array_equal(got.mean[:500], want.mean[:500])

