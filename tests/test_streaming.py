"""Chunked fills, assembly and prediction: results do not depend on where chunks end.

Row counts straddle ``backends.CHUNK_ROWS`` (chunk - 1, chunk, chunk + 1,
2 chunk + 3, and 1 and 4 chunk + 1 in the two-thread cases) with randomly
interleaved output ids, so chunks hold unequal and sometimes single rows of
an output.  References assemble or solve the whole matrix at once.  The
passes run on ``features.run_split`` (the predictions' through
``features.run_chunks``) with no helper thread and with one, and give the
same bits both ways.
"""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve

from lfmrff import backends, cli, features, kernels, predict
from lfmrff.features import (
    NumericsWarning,
    force_frequencies,
    output_blocks,
    output_rows,
    run_chunks,
    sample_frequencies,
    write_phi_block,
)
from lfmrff.kernels import feature_matrix, latent_block, latent_feature_matrix
from lfmrff.likelihood import (
    FitResult,
    LmlObjective,
    low_rank_log_marginal,
    noise_vector,
    weight_posterior,
)
from lfmrff.model import (
    Dataset,
    LfmSpec,
    MogpSpec,
    NumericalError,
    Ode1Params,
    Ode2Params,
    OdeOperator,
    pack,
    write_dataset_csv,
)
from lfmrff.mogp import mogp_feature_matrix, sample_spectral
from lfmrff.predict import predict_latent_forces, predict_outputs

CHUNK = backends.CHUNK_ROWS
ROWS = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
# The two-thread cases add a single row (the whole-matrix references above
# multiply one row by GEMV, whose bits differ from a row of a GEMM) and five
# chunks, since a helper starts only at features.SPLIT_MIN_ITEMS chunks.
THREAD_ROWS = [1, *ROWS, 4 * CHUNK + 1]

CASES = {
    "ode1-ode2": (
        LfmSpec((Ode1Params(1.1), Ode2Params(1.0, 3.0, 2.0)), 2, [0.9, 1.7],
                [[0.7, 0.2], [-0.5, 1.1]], [0.3, 0.1]),
        sample_frequencies(6, 2, seed=4),
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
    # R = 128: an output of 192 test rows or more, or 192 latent times, may
    # be predicted in a Chebyshev basis; force 1's frequencies are too high
    # for degree 32 over [0, 5], force 2's are not
    "ode1-ode2-s32": (
        LfmSpec((Ode1Params(1.1), Ode2Params(1.0, 3.0, 2.0)), 2, [0.9, 1.7],
                [[0.7, 0.2], [-0.5, 1.1]], [0.3, 0.1]),
        sample_frequencies(32, 2, seed=4),
        feature_matrix,
    ),
}
# Rows predicted in a Chebyshev basis are within this of the whole-matrix
# reference, relative to its largest |mean| and its largest variance (at
# most 4.8e-15 and 1.1e-14 on these cases); every other row has its bits.
PREDICT_RTOL = 1e-12


@pytest.fixture(params=[0, 1], ids=["no-helper", "one-helper"])
def helpers(request, monkeypatch):
    """Run every chunked pass of the test with this many helper threads."""
    monkeypatch.setattr(features, "_helper_count", lambda: request.param)
    return request.param


@pytest.fixture
def splits(monkeypatch):
    """(items, whether a helper took any) for each pass that finishes: ``feature_matrix``'s
    pieces and the predictions' ``run_chunks`` chunks (not the objective's items)."""
    log = []
    split = features.run_split

    def traced(count, work):
        caller = threading.current_thread()
        helped = []

        def traced_work(side, i):
            if threading.current_thread() is not caller:
                helped.append(i)
            work(side, i)

        split(count, traced_work)
        log.append((count, bool(helped)))

    monkeypatch.setattr(features, "run_split", traced)
    monkeypatch.setattr(kernels, "run_split", traced)
    return log


def chunk_count(sizes):
    """Chunks of a ``run_chunks`` pass over segments of these sizes."""
    return sum(-(-size // CHUNK) for size in sizes)


def piece_count(output_ids, spec):
    """Items of ``feature_matrix``'s pass: pieces of PIECE_ROWS // Q rows of each output's rows."""
    step = max(1, backends.PIECE_ROWS // spec.num_forces)
    return sum(-(-r.size // step) for r in output_rows(output_ids).values())


def assert_helper_took_long_passes(splits, helpers, items):
    """The passes made ``items`` items each, and a helper, if allowed, took
    part in each of SPLIT_MIN_ITEMS items or more, and only those."""
    assert [count for count, _ in splits] == items
    assert [helped for _, helped in splits] == [
        helpers > 0 and count >= features.SPLIT_MIN_ITEMS for count in items]


def interleaved(n, mogp, seed=0):
    rng = np.random.default_rng(seed + n)
    x = rng.uniform(-1.0, 1.0, size=(n, 2)) if mogp else rng.uniform(0.0, 5.0, n)
    if not mogp:
        x[0] = 0.0
    return Dataset(rng.integers(1, 3, size=n), x, rng.normal(size=n))


def whole_block_phi_c(data, spec, draws):
    """Phi_c written output by output from blocks filled over all their rows."""
    s_count = draws.num_samples
    phi_c = np.zeros((len(data), 2 * spec.num_forces * s_count))
    rows = output_rows(data.output_ids)
    for d, block in output_blocks(rows, spec, draws).items():
        write_phi_block(phi_c, rows[d], spec, s_count, d, block.fill(data.inputs[rows[d]]))
    return phi_c


def make_fit(spec, draws):
    return FitResult(spec=spec, packed=pack(spec), final_lml=0.0, trace=(), seed=draws.seed,
                     num_samples=draws.num_samples, iterations=0, status="converged")


def n_rhs_variance(phi_c, chol_a):
    """phi A^-1 phi^T through a Cholesky solve with N right-hand sides."""
    return np.einsum("ij,ji->i", phi_c, cho_solve((chol_a, True), phi_c.T))


# weight_posterior sums per-output Grams, low_rank_log_marginal whitened
# rows, so the two round apart: on these cases at most 1.8e-14 of chol's
# largest entry and 2.2e-15 of alpha's.
POSTERIOR_RTOL = 1e-13


def assert_posterior_near(post, state):
    for got, want in ((post.chol_a, state.chol_a), (post.alpha, state.alpha)):
        assert np.max(np.abs(got - want)) <= POSTERIOR_RTOL * np.max(np.abs(want))


def basis_rows(spec, draws, test):
    """Which test rows ``predict_outputs`` predicts in a Chebyshev basis."""
    rows = output_rows(test.output_ids)
    blocks = output_blocks(rows, spec, draws)
    width = 2 * spec.num_forces * draws.num_samples
    basis = np.zeros(len(test), dtype=bool)
    for d, r in rows.items():
        values = lambda u, b=blocks[d]: b.fill(u).view(float)  # noqa: E731
        basis[r] = predict._coefficients(test.inputs[r], width, values) is not None
    return basis


def latent_in_basis(lam, times):
    """Whether ``predict_latent_forces`` predicts a force of frequencies ``lam`` in a basis."""
    values = lambda u: latent_block(u, lam).view(float)  # noqa: E731
    return predict._coefficients(times, 2 * lam.size, values) is not None


def prediction_passes(spec, draws, test, times=None, forces=()):
    """Chunks of each pass that fills: ``predict_outputs`` at ``test``, then
    ``predict_latent_forces`` at ``times`` for each of ``forces``."""
    basis = basis_rows(spec, draws, test)
    filled = [r.size for r in output_rows(test.output_ids).values() if not basis[r[0]]]
    passes = [chunk_count(filled)] if filled else []
    for q in forces:
        if not latent_in_basis(force_frequencies(draws, q, spec.lengthscales[q - 1]), times):
            passes.append(chunk_count([times.size]))
    return passes


def by_output(output_ids, phi_c, product, step):
    """``product`` of each output's rows of ``phi_c``, ``step`` rows at a time from its first."""
    out = np.empty(len(output_ids))
    for r in output_rows(output_ids).values():
        for lo in range(0, r.size, step):
            out[r[lo : lo + step]] = product(phi_c[r[lo : lo + step]])
    return out


def assert_rows_match(got, want, basis):
    """Rows ``basis`` within PREDICT_RTOL of ``want``'s largest entry, the others bit for bit."""
    assert_array_equal(got[~basis], want[~basis])
    if basis.any():
        assert np.max(np.abs(got[basis] - want[basis])) <= PREDICT_RTOL * np.max(np.abs(want))


def trained(spec, draws, assemble, n=300):
    data = interleaved(n, isinstance(spec, MogpSpec), seed=1)
    fm = assemble(data.inputs, data.output_ids, spec, draws)
    return data, low_rank_log_marginal(fm, noise_vector(spec, data.output_ids), data.y)[1]


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", list(CASES))
def test_feature_matrix_equals_whole_block_assembly(case, rows):
    spec, draws, assemble = CASES[case]
    data = interleaved(rows, isinstance(spec, MogpSpec))
    got = assemble(data.inputs, data.output_ids, spec, draws).phi_c
    assert_array_equal(got, whole_block_phi_c(data, spec, draws))


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", list(CASES))
def test_predict_outputs_match_whole_matrix(case, rows):
    spec, draws, assemble = CASES[case]
    _, state = trained(spec, draws, assemble)
    test = interleaved(rows, isinstance(spec, MogpSpec), seed=2)
    post = predict_outputs(make_fit(spec, draws), state, test, include_noise=False)
    phi_c = assemble(test.inputs, test.output_ids, spec, draws).phi_c
    basis = basis_rows(spec, draws, test)
    assert basis.all() if case.endswith("s32") else not basis.any()
    # each output's rows are one block, with the bits of the product over them
    m = state.solve_a(state.alpha)
    assert_rows_match(post.mean, by_output(test.output_ids, phi_c, lambda p: p @ m, rows), basis)
    variance = n_rhs_variance(phi_c, state.chol_a)
    assert_allclose(post.variance[~basis], variance[~basis], rtol=1e-12)
    assert_rows_match(post.variance[basis], variance[basis], np.ones(basis.sum(), dtype=bool))


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", ["ode1-ode2", "order3-ode2", "ode1-ode2-s32"])
def test_predict_latent_forces_match_whole_matrix(case, rows):
    spec, draws, assemble = CASES[case]
    _, state = trained(spec, draws, assemble)
    times = np.random.default_rng(rows).uniform(0.0, 5.0, rows)
    for q in range(1, spec.num_forces + 1):
        post = predict_latent_forces(make_fit(spec, draws), state, times, q)
        phi_c = latent_feature_matrix(times, q, spec, draws).phi_c
        lam = force_frequencies(draws, q, spec.lengthscales[q - 1])
        basis = np.full(rows, latent_in_basis(lam, times))
        assert basis[0] == (case.endswith("s32") and q == 2)
        assert_rows_match(post.mean, phi_c @ state.solve_a(state.alpha), basis)
        variance = n_rhs_variance(phi_c, state.chol_a)
        if basis[0]:
            assert_rows_match(post.variance, variance, basis)
        else:
            assert_allclose(post.variance, variance, rtol=1e-12)


@pytest.mark.parametrize("rows", THREAD_ROWS)
@pytest.mark.parametrize("case", list(CASES))
def test_predictions_have_the_bits_of_fills_into_new_arrays(case, rows, helpers, splits):
    # The passes fill into buffers that each side holds across its chunks;
    # with a fixed posterior every chunk's filled means and variances have
    # the bits of rows filled into new arrays (whole blocks, new latent
    # rows) and multiplied output by output, a chunk at a time from the
    # output's first row, and rows predicted in a basis are near them.
    spec, draws, assemble = CASES[case]
    _, state = trained(spec, draws, assemble)
    fit = make_fit(spec, draws)
    splits.clear()
    m, l_inv_t = predict._weights(state)
    test = interleaved(rows, isinstance(spec, MogpSpec), seed=3)
    phi_c = whole_block_phi_c(test, spec, draws)
    post = predict_outputs(fit, state, test, include_noise=False)
    basis = basis_rows(spec, draws, test)
    want = [by_output(test.output_ids, phi_c, lambda p: backends.matmul_rows(p, m), CHUNK),
            by_output(test.output_ids, phi_c, lambda p: predict._sq_row_norms(p, l_inv_t), CHUNK)]
    assert_rows_match(post.mean, want[0], basis)
    assert_rows_match(post.variance, want[1], basis)
    if not isinstance(spec, LfmSpec):
        assert_helper_took_long_passes(splits, helpers, prediction_passes(spec, draws, test))
        return
    times = np.random.default_rng(rows).uniform(-1.0, 5.0, rows)
    s_count = draws.num_samples
    forces = range(1, spec.num_forces + 1)
    for q in forces:
        post = predict_latent_forces(fit, state, times, q)
        cols = slice(2 * (q - 1) * s_count, 2 * q * s_count)
        lam = force_frequencies(draws, q, spec.lengthscales[q - 1])
        basis = np.full(rows, latent_in_basis(lam, times))
        for lo in range(0, rows, CHUNK):
            sl = slice(lo, lo + CHUNK)
            fresh = latent_block(times[sl], lam).view(float)
            want[0][sl] = backends.matmul_rows(fresh, m[cols])
            want[1][sl] = predict._sq_row_norms(fresh, l_inv_t[cols])
        assert_rows_match(post.mean, want[0], basis)
        assert_rows_match(post.variance, want[1], basis)
    assert_helper_took_long_passes(splits, helpers, prediction_passes(spec, draws, test, times, forces))


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", list(CASES))
def test_predictions_have_the_same_bits_in_any_order_of_outputs(case, rows):
    spec, draws, assemble = CASES[case]
    _, state = trained(spec, draws, assemble)
    fit = make_fit(spec, draws)
    test = interleaved(rows, isinstance(spec, MogpSpec), seed=2)
    order = np.argsort(test.output_ids, kind="stable")
    by_id = Dataset(test.output_ids[order], test.inputs[order], test.y[order])
    want, got = predict_outputs(fit, state, test), predict_outputs(fit, state, by_id)
    assert_array_equal(got.mean, want.mean[order])
    assert_array_equal(got.variance, want.variance[order])


def test_mixed_test_sets_multiply_only_the_filled_rows(monkeypatch):
    # 20000 rows of output 1, in the basis, and 100 of output 2, too few
    # for any degree, their ids interleaved
    spec, draws, assemble = CASES["ode1-ode2-s32"]
    _, state = trained(spec, draws, assemble)
    rng = np.random.default_rng(7)
    ids = rng.permutation(np.repeat([1, 2], [20000, 100]))
    test = Dataset(ids, rng.uniform(0.0, 5.0, ids.size), np.zeros(ids.size))
    assert_array_equal(basis_rows(spec, draws, test), ids == 1)
    width = 2 * spec.num_forces * draws.num_samples
    seen = {"matmul_rows": 0, "_sq_row_norms": 0}  # rows of Phi_c multiplied
    for module, name in ((backends, "matmul_rows"), (predict, "_sq_row_norms")):
        def counted(phi, *args, name=name, call=getattr(module, name)):
            if phi.shape[1] == width:  # not a fill's own product of root terms
                seen[name] += phi.shape[0]
            return call(phi, *args)

        monkeypatch.setattr(module, name, counted)
    predict_outputs(make_fit(spec, draws), state, test)
    # the means' product, and _sq_row_norms's own through matmul_rows
    assert seen == {"matmul_rows": 200, "_sq_row_norms": 100}


def test_latent_times_of_any_shape_predict_as_their_ravel():
    spec, draws, assemble = CASES["ode1-ode2"]
    _, state = trained(spec, draws, assemble)
    fit = make_fit(spec, draws)
    times = np.random.default_rng(9).uniform(0.0, 5.0, (2, 1500))  # three chunks, filled
    for q in (1, 2):
        got = predict_latent_forces(fit, state, times, q)
        want = predict_latent_forces(fit, state, times.ravel(), q)
        assert_array_equal(got.mean, want.mean)
        assert_array_equal(got.variance, want.variance)


@pytest.mark.parametrize("sizes", [[1, CHUNK + 1, 0, 2], [2 * CHUNK + 3]])
def test_chunks_restart_at_each_segment(sizes, helpers):
    seen = []
    run_chunks(sizes, 1, lambda sl, rows: rows, lambda sl, rows: seen.append((sl.start, sl.stop)))
    chunks, start = [], 0
    for size in sizes:
        chunks += [(lo, min(start + size, lo + CHUNK)) for lo in range(start, start + size, CHUNK)]
        start += size
    assert sorted(seen) == chunks


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", list(CASES))
def test_streamed_weight_posterior_equals_low_rank_state(case, rows):
    spec, draws, assemble = CASES[case]
    data = interleaved(rows, isinstance(spec, MogpSpec))
    noise = noise_vector(spec, data.output_ids)
    _, state = low_rank_log_marginal(
        assemble(data.inputs, data.output_ids, spec, draws), noise, data.y
    )
    assert_posterior_near(weight_posterior(data, spec, draws), state)


@pytest.mark.parametrize("rows", THREAD_ROWS)
@pytest.mark.parametrize("case", list(CASES))
def test_passes_have_the_same_bits_with_and_without_the_helper(case, rows, monkeypatch, splits):
    spec, draws, assemble = CASES[case]
    _, state = trained(spec, draws, assemble)
    fit = make_fit(spec, draws)
    data = interleaved(rows, isinstance(spec, MogpSpec))
    noise = noise_vector(spec, data.output_ids)
    times = np.random.default_rng(rows).uniform(0.0, 5.0, rows)
    whole = whole_block_phi_c(data, spec, draws)
    # feature_matrix's pass, then the predictions' (weight_posterior splits
    # the objective's items itself)
    forces = range(1, spec.num_forces + 1) if isinstance(spec, LfmSpec) else ()
    passes = [piece_count(data.output_ids, spec)]
    passes += prediction_passes(spec, draws, data, times, forces)
    posts = {}
    for h in (0, 1):
        monkeypatch.setattr(features, "_helper_count", lambda h=h: h)
        splits.clear()
        fm = assemble(data.inputs, data.output_ids, spec, draws)
        assert_array_equal(fm.phi_c, whole)
        streamed = weight_posterior(data, spec, draws)
        assert_posterior_near(streamed, low_rank_log_marginal(whole, noise, data.y)[1])
        posts[h] = [streamed, predict_outputs(fit, state, data)]
        posts[h] += [predict_latent_forces(fit, state, times, q) for q in forces]
        assert_helper_took_long_passes(splits, h, passes)
    assert_array_equal(posts[1][0].chol_a, posts[0][0].chol_a)
    assert_array_equal(posts[1][0].alpha, posts[0][0].alpha)
    for alone, helped in zip(posts[0][1:], posts[1][1:]):
        assert_array_equal(helped.mean, alone.mean)
        assert_array_equal(helped.variance, alone.variance)


class ChunkFailure(Exception):
    pass


@pytest.mark.parametrize("where", ["fill"])
def test_a_failing_chunk_raises_in_the_caller_and_leaves_no_thread(where, helpers):
    def fill(sl, rows):
        if where == "fill" and sl.start == 2 * CHUNK:  # chunk 3 of 5
            raise ChunkFailure(sl.start)
        return rows

    before = threading.active_count()
    with pytest.raises(ChunkFailure):
        run_chunks([5 * CHUNK], 3, fill, lambda sl, rows: sl.start)
    assert threading.active_count() == before


def test_a_helper_runs_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(features, "_helper_count", lambda: 1)
    seen = []

    def fill(sl, rows):
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.01)  # leave chunks for the helper
        else:
            seen.append(np.geterr()["over"])
        return rows

    with np.errstate(over="raise"):
        run_chunks([8 * CHUNK], 1, fill, lambda sl, rows: None)
    assert seen and set(seen) == {"raise"}


def test_the_objectives_helper_honours_the_callers_error_state(monkeypatch):
    # (s - 1)(s + 2): the root 1 makes e^{t} overflow at t = 800.  With
    # chunks of 7 rows the overflowing rows are the second of four chunks,
    # item 1, which the helper takes (it starts with two items a side).
    monkeypatch.setattr(backends, "CHUNK_ROWS", 7)
    monkeypatch.setattr(features, "_helper_count", lambda: 1)
    spec = LfmSpec((OdeOperator((1.0, 1.0, -2.0)),), 1, [1.0], [[1.0]], [0.1])
    draws = sample_frequencies(5, 1, seed=0)
    t = np.concatenate([np.linspace(0.0, 1.0, 7), np.full(7, 800.0), np.linspace(0.0, 1.0, 14)])
    obj = LmlObjective(Dataset(np.ones(28, int), t, np.ones(28)), spec, draws)
    theta = pack(spec).values
    filled_by = []  # (overflowing rows, on the helper) per fill
    fill = features.ResponseBlock.fill

    def traced_fill(self, x, out=None):
        filled_by.append((x.max() > 1.0, threading.current_thread() is not threading.main_thread()))
        return fill(self, x, out)

    monkeypatch.setattr(features.ResponseBlock, "fill", traced_fill)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        obj.value_and_gradient(theta)
    assert (True, True) in filled_by  # the overflowing rows, filled on the helper
    # as in optimize, which counts a trial point like this as infinitely bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(NumericalError, match="not finite"):
                obj.value_and_gradient(theta)


@pytest.mark.parametrize("count", [3, 4, 1001])
@pytest.mark.parametrize("fail_at", [None, 0, "odd"], ids=["all", "caller-fails", "helper-fails"])
def test_split_takes_each_item_once_on_its_side(count, fail_at, helpers):
    # switching as often as the interpreter can; each side appends only to
    # its own list, as the objective adds only into its own side's sums
    if fail_at == "odd":
        fail_at = count // 2 | 1  # an odd item, past the first
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    before = threading.active_count()
    seen = ([], [])
    on_main = (set(), set())

    def work(side, i):
        if i == fail_at:
            raise ChunkFailure(i)
        on_main[side].add(threading.current_thread() is threading.main_thread())
        seen[side].append(i)

    try:
        if fail_at is None:
            features.run_split(count, work)
        else:
            with pytest.raises(ChunkFailure):
                features.run_split(count, work)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    if fail_at is None:
        assert seen == (list(range(0, count, 2)), list(range(1, count, 2)))
        # a helper takes the odd items only with two or more items a side
        split = helpers and count >= features.SPLIT_MIN_ITEMS
        assert on_main == ({True}, {not split})
    else:
        # the failing side stops at its item and the other side, which
        # may have finished first, took a prefix of its own items
        side = fail_at % 2
        assert seen[side] == list(range(side, fail_at, 2))
        other = list(range(1 - side, count, 2))
        assert seen[1 - side] == other[: len(seen[1 - side])]


def test_cli_predict_writes_the_same_bytes_with_and_without_the_helper(tmp_path, monkeypatch,
                                                                        splits):
    # five chunks of test rows and of times, filled (R = 24 allows no
    # Chebyshev degree), so the one-helper run splits both predictions
    spec, draws, _ = CASES["ode1-ode2"]
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    rows = 4 * CHUNK + 1
    test = interleaved(rows, mogp=False, seed=4)
    write_dataset_csv(train_csv, interleaved(3000, mogp=False, seed=3))
    write_dataset_csv(test_csv, test)
    passes = prediction_passes(spec, draws, test, np.unique(test.inputs), [1])
    assert passes == [5, 5]
    cli.write_fit_file(tmp_path / "fit.json", make_fit(spec, draws), "odeP", train_csv)
    (tmp_path / "lf.cfg").write_text("latent_force=1\n")
    written = []
    for h in (0, 1):
        monkeypatch.setattr(features, "_helper_count", lambda h=h: h)
        splits.clear()
        out = tmp_path / f"out{h}"
        assert cli.main(["predict", str(tmp_path / "fit.json"), str(test_csv), "--config",
                         str(tmp_path / "lf.cfg"), "--out-dir", str(out)]) == 0
        assert_helper_took_long_passes(splits, h, passes)
        written.append([(out / name).read_bytes()
                        for name in ("predictions.csv", "latent_forces.csv")])
    assert written[0] == written[1]


# A child pinned to the CPUs given as argv[1] (BLAS on one thread, set by
# the parent): a SHA-256 over value_and_gradient of LFM and 2-D MOGP specs
# with 1, 2 and 3 outputs of 500, 1025 and 3073 rows each (the LFM specs at
# S = 20, filled, and S = 50, reduced in a Chebyshev basis), one over the
# fit.json that `lfmrff train` writes from argv[2] into argv[3], and one each
# over the predictions.csv and latent_forces.csv that `lfmrff predict`
# writes there from that fit at argv[2]'s rows, with argv[5]'s config.  It
# also counts the children that `lfmrff predict`'s CSV writer forks.
CPU_COUNT_CHILD = """
import hashlib, json, os, sys

os.sched_setaffinity(0, json.loads(sys.argv[1]))
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()

import numpy as np

from lfmrff import cli
from lfmrff.features import sample_draws
from lfmrff.likelihood import LmlObjective
from lfmrff.model import Dataset, LfmSpec, MogpSpec, Ode1Params, Ode2Params, OdeOperator, pack

operators = (Ode1Params(1.2), Ode2Params(1.0, 1.5, 3.0), OdeOperator((1.0, 2.0, 5.0, 4.0)))
digest = hashlib.sha256()
rng = np.random.default_rng(0)
for outputs in (1, 2, 3):
    sens, noise = rng.uniform(0.5, 1.2, (outputs, 2)), np.full(outputs, 0.05)
    for spec in (LfmSpec(operators[:outputs], 2, [1.0, 2.0], sens, noise),
                 MogpSpec(2, [2.0, 4.0, 3.0][:outputs], 2, [1.0, 1.5], sens, noise)):
        for rows in (500, 1025, 3073):
            ids = rng.permutation(np.repeat(np.arange(1, outputs + 1), rows))
            mogp = isinstance(spec, MogpSpec)
            x = rng.uniform(-1.0, 1.0, (ids.size, 2)) if mogp else rng.uniform(0.0, 5.0, ids.size)
            # S = 50 puts the LFM outputs in a Chebyshev basis (R = 200)
            for samples in (20,) if mogp else (20, 50):
                obj = LmlObjective(Dataset(ids, x, rng.normal(size=ids.size)), spec,
                                   sample_draws(spec, samples, 1))
                value, grad = obj.value_and_gradient(pack(spec).values)
                digest.update(np.float64(value).tobytes())
                digest.update(grad.tobytes())
assert cli.main(["train", sys.argv[2], "--out-dir", sys.argv[3], "--samples", "50",
                 "--seed", "0", "--config", sys.argv[4]]) == 0
fit_json = os.path.join(sys.argv[3], "fit.json")
before = len(forks)
assert cli.main(["predict", fit_json, sys.argv[2], "--out-dir", sys.argv[3],
                 "--config", sys.argv[5]]) == 0
files = []
for name in ("fit.json", "predictions.csv", "latent_forces.csv"):
    with open(os.path.join(sys.argv[3], name), "rb") as fh:
        files.append(hashlib.sha256(fh.read()).hexdigest())
print(json.dumps([len(os.sched_getaffinity(0)), before, len(forks) - before,
                  digest.hexdigest(), *files]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs and CPU affinity")
def test_objective_and_fit_have_the_same_bits_on_one_cpu_and_on_two(tmp_path):
    train_csv, cfg, lf_cfg = tmp_path / "train.csv", tmp_path / "run.cfg", tmp_path / "lf.cfg"
    # about 3500 rows an output: four chunks each, whose sums a split that
    # followed the CPU count would add in another order
    write_dataset_csv(train_csv, interleaved(7000, mogp=False, seed=5))
    cfg.write_text("max_iters=3\n")
    lf_cfg.write_text("latent_force=1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(features.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cpus = sorted(os.sched_getaffinity(0))[:2]
    runs = []
    for pinned in (cpus[:1], cpus):
        child = subprocess.run(
            [sys.executable, "-c", CPU_COUNT_CHILD, json.dumps(pinned), str(train_csv),
             str(tmp_path / f"out{len(pinned)}"), str(cfg), str(lf_cfg)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(child.stdout.splitlines()[-1]))
    # (CPUs, forks before predict, forks in predict): on two CPUs the
    # writer forked once for each table of 7000 rows, predictions.csv and
    # latent_forces.csv, and nothing else forked
    assert [run[:3] for run in runs] == [[1, 0, 0], [2, 0, 2]]
    assert runs[0][3:] == runs[1][3:]


def test_pole_on_a_frequency_warns_once_per_call():
    # (s + 1)(s^2 + w^2) with w a drawn frequency: roots -1 and +-j w, so the
    # excitation root j w collides with a pole of the operator
    draws = sample_frequencies(6, 1, seed=5)
    w = float(np.sqrt(2.0) * draws.base[2, 0])
    spec = LfmSpec((OdeOperator((1.0, 1.0, w * w, w * w)), Ode1Params(1.0)), 1, [1.0],
                   [[1.0], [0.5]], [0.1, 0.1])
    data = interleaved(2 * CHUNK + 3, mogp=False)
    with pytest.warns(NumericsWarning, match="collide"):
        fm = feature_matrix(np.arange(3.0), np.ones(3, int), spec, draws)
    _, state = low_rank_log_marginal(fm, np.full(3, 0.1), np.ones(3))
    calls = [
        lambda: feature_matrix(data.inputs, data.output_ids, spec, draws),
        lambda: predict_outputs(make_fit(spec, draws), state, data),
        lambda: weight_posterior(data, spec, draws),
        lambda: LmlObjective(data, spec, draws).value(pack(spec).values),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        collide = [c for c in caught if issubclass(c.category, NumericsWarning)
                   and "collide" in str(c.message)]
        assert len(collide) == 1


# ---------------------------------------------------------------------------
# memory: Q=2, S=50 (R=200)

MEM_SPEC = LfmSpec((Ode1Params(1.0), Ode2Params(1.0, 3.0, 2.0)), 2, [1.0, 0.7],
                   [[1.0, 0.5], [0.6, 1.0]], [0.1, 0.1])
MEM_DRAWS = sample_frequencies(50, 2, 0)
# Q=4 (R=400) for the latent pass, which fills only force q's 2S columns
MEM_SPEC_Q4 = LfmSpec((Ode1Params(1.0), Ode2Params(1.0, 3.0, 2.0)), 4, [1.0, 0.7, 1.3, 0.5],
                      [[1.0, 0.5, 0.3, 0.2], [0.6, 1.0, 0.4, 0.8]], [0.1, 0.1])
MEM_DRAWS_Q4 = sample_frequencies(50, 4, 0)


def grid_data(n):
    return Dataset(np.repeat([1, 2], n // 2), np.tile(np.linspace(0.0, 3.0, n // 2), 2),
                   np.random.default_rng(0).normal(size=n))


def peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_feature_matrix_and_objective_memory_near_what_they_keep():
    # Phi_c (feature_matrix) and the complex blocks (the objective) both
    # take 1.6 KB per row; every fill temporary is chunk-sized.
    n = 16000
    data = grid_data(n)
    assert peak(feature_matrix, data.inputs, data.output_ids, MEM_SPEC, MEM_DRAWS) <= 1800 * n
    obj = LmlObjective(data, MEM_SPEC, MEM_DRAWS)
    theta = pack(MEM_SPEC).values
    obj.value_and_gradient(theta)  # warm-up
    assert peak(obj.value_and_gradient, theta) <= 1800 * n


# a 2-D MOGP, R = 200, whose test rows are always filled
MEM_MOGP = MogpSpec(2, [2.0, 4.0], 2, [1.0, 1.5], [[1.0, 0.5], [0.8, 1.2]], [0.05, 0.05])
MEM_MOGP_DRAWS = sample_spectral(50, 2, 2, seed=0)


def mogp_data(n, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.integers(1, 3, n), rng.uniform(-1.0, 1.0, (n, 2)), rng.normal(size=n))


def test_filled_prediction_memory_is_flat_in_test_rows():
    # the two sides' chunk work arrays, fills and products, and the
    # per-row means, variances and row indices
    state = weight_posterior(mogp_data(2000, 1), MEM_MOGP, MEM_MOGP_DRAWS)
    fit = make_fit(MEM_MOGP, MEM_MOGP_DRAWS)
    for n in (8000, 32000):
        test = mogp_data(n, 2)
        assert not basis_rows(MEM_MOGP, MEM_MOGP_DRAWS, test).any()
        assert peak(predict_outputs, fit, state, test) <= 9e6


def test_prediction_memory_is_flat_in_test_rows():
    train = grid_data(2000)
    fm = feature_matrix(train.inputs, train.output_ids, MEM_SPEC, MEM_DRAWS)
    _, state = low_rank_log_marginal(fm, noise_vector(MEM_SPEC, train.output_ids), train.y)
    fit = make_fit(MEM_SPEC, MEM_DRAWS)
    fit_q4 = make_fit(MEM_SPEC_Q4, MEM_DRAWS_Q4)
    state_q4 = weight_posterior(train, MEM_SPEC_Q4, MEM_DRAWS_Q4)
    for n in (8000, 32000):
        test = grid_data(n)
        times = np.linspace(0.0, 3.0, n)
        assert peak(predict_outputs, fit, state, test) <= 8e6
        assert peak(predict_latent_forces, fit, state, times, 1) <= 8e6
        assert peak(predict_latent_forces, fit_q4, state_q4, times, 1) <= 8e6
