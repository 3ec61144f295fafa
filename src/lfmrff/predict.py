"""Posterior prediction through the weight-space view, plus metrics.

With prior weights w ~ N(0, I) and y = Phi_c w + noise, the posterior
weights are N(A^-1 alpha, A^-1), so any linear functional with feature
row phi* has mean phi* A^-1 alpha and variance phi* A^-1 phi*^T.  This
agrees with the function-space GP formulas by the Woodbury identity but
never forms an N x N matrix.  With A = L L^T the variance is the squared
norm of phi* L^-T, which is nonnegative by construction.

An output with one input dimension (every LFM output, a MOGP's when
p = 1) whose test rows span [lo, hi], with 2/(hi - lo) finite, is
predicted in a Chebyshev basis of that span where its block is resolved
there, as the objective reduces it (``features.basis_degrees`` and
``features.chebyshev_coefficients``): its rows of Phi_c are B Z_c to
rounding, B holding T_0..T_{k-1} and Z_c = Z C_d its coefficients scaled
by the sensitivities.  The means are then B (Z_c m) and the variances the
squared row norms of B T^T, T the k x k triangular factor of a QR of
(Z_c L^-T)^T: O(k) and O(k^2) a row where a filled row costs O(R^2), and
still nonnegative by construction.  A latent force's times take the same
basis, with force q's ``kernels.latent_block`` columns.  B is written
``backends.CHUNK_ROWS`` rows at a time on the calling thread.

Every other output is filled: an unresolved span, a non-finite sample
at the nodes, too few rows for any degree, rows at one time or over a
subnormal span, and a MOGP over two or more dimensions.  Their rows,
gathered output by output, make one ``features.run_chunks`` pass with a
segment per output, so each chunk holds one output's rows.  The output's
block fills them in place, ``backends.PIECE_ROWS // Q`` rows at a time,
into the side's work array, where C_d scales them; they are used for
the chunk's means and variances and dropped, so no test N x R matrix is
formed and memory is flat in the number of test rows.  A filled row thus
has the bits of the product over its own output's rows, in chunks of
``CHUNK_ROWS`` from the first, whatever the order of the test rows and
whichever outputs take the basis.  A latent force's times are one
segment; its rows are zero outside force q's 2S columns, so its pass
fills and multiplies only those, against the matching rows of the
weights.  The calling thread and one helper thread take alternate chunks
and write disjoint slices of the means and variances, which are the same
whatever the thread count.  The posterior is a
``likelihood.WeightPosterior``: ``weight_posterior`` builds it from the
objective's per-output Grams, without a training Phi_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import backends
from .features import (
    basis_degrees,
    chebyshev_coefficients,
    chebyshev_rows,
    force_columns,
    force_frequencies,
    output_blocks,
    output_rows,
    output_scale,
    phi_c_width,
    run_chunks,
    sample_draws,
)
from .kernels import (
    # feature_matrix and latent_feature_matrix are not used here: kept for
    # the benchmark's tracer, which wraps these names; delete with ROADMAP
    # item 1
    feature_matrix,
    latent_block,
    latent_feature_matrix,
)
from .likelihood import FitResult, WeightPosterior, noise_vector
from .model import DataError, Dataset, LfmSpec, validate_dataset

__all__ = [
    "Posterior",
    "predict_outputs",
    "predict_latent_forces",
    "nmse",
    "nlpd",
]


@dataclass(frozen=True, eq=False)
class Posterior:
    """Marginal posterior at a batch of test points."""

    mean: np.ndarray
    variance: np.ndarray
    includes_noise: bool


def draws_for(fit: FitResult):
    """Recreate the frequency draws a fit was trained with (seed + count)."""
    return sample_draws(fit.spec, fit.num_samples, fit.seed)


def _weights(state: WeightPosterior):
    """(m = A^-1 alpha, L^-T) of the posterior, with A = L L^T.

    phi A^-1 phi^T = |phi L^-T|^2 row by row: one R x R triangular solve
    and one GEMM per chunk instead of a solve with N right-hand sides.
    """
    m = cho_solve((state.chol_a, True), state.alpha)
    l_inv = solve_triangular(state.chol_a, np.eye(state.chol_a.shape[0]), lower=True)
    return m, l_inv.T


def _sq_row_norms(phi, l_inv_t):
    """Squared row norms of phi L^-T, ``backends.PIECE_ROWS`` rows at a time.

    Each product is then half a chunk x R, and a GEMM, which runs without
    the interpreter lock (scipy's triangular product holds it).
    """
    out = np.empty(phi.shape[0])
    for lo in range(0, phi.shape[0], backends.PIECE_ROWS):
        part = slice(lo, lo + backends.PIECE_ROWS)
        w = backends.matmul_rows(phi[part], l_inv_t)
        out[part] = np.einsum("ij,ij->i", w, w)
        del w  # before the next piece's product is made
    return out


def _coefficients(x, width, values):
    """Z of ``values`` on the span of inputs ``x``, rows ``width`` columns wide, or None.

    None unless ``features.basis_degrees`` allows a degree and one of
    them resolves ``values`` there (``features.chebyshev_coefficients``).
    """
    degrees = basis_degrees(x, width)
    return chebyshev_coefficients(values, x.min(), x.max(), degrees) if degrees else None


def _basis_pass(x, z, m, l_inv_t):
    """(means, variances) of the rows B(x) z, B holding T_0..T_{k-1} on the span of ``x``.

    ``z`` is k x R, and ``m`` and ``l_inv_t`` are the posterior's
    ``_weights``.  The means are B (z m).  With T the k x k triangular
    factor of a QR of (z L^-T)^T, (z L^-T)(z L^-T)^T = T^T T, so the
    variances are the squared row norms of B T^T: O(k) and O(k^2) a row,
    and nonnegative by construction.  B is written ``CHUNK_ROWS`` rows at
    a time on the calling thread.
    """
    x = x.reshape(-1)
    k, n = z.shape[0], x.size
    lo, hi = x.min(), x.max()
    zm = z @ m
    t = np.linalg.qr((z @ l_inv_t).T, mode="r")
    mean, var = np.empty(n), np.empty(n)
    step = backends.CHUNK_ROWS
    work = np.empty(k * min(n, step))
    for start in range(0, n, step):
        sl = slice(start, min(n, start + step))
        b_t = chebyshev_rows(x[sl], lo, hi, work[: k * (sl.stop - start)].reshape(k, -1))
        mean[sl] = zm @ b_t
        w = t @ b_t
        var[sl] = np.einsum("ij,ij->j", w, w)
    return mean, var


def _fill_pass(sizes, width, fill, m, l_inv_t):
    """(means, variances) of the rows a ``run_chunks`` pass over segments of ``sizes`` rows fills.

    ``fill`` writes rows ``width`` columns wide, and ``m`` and ``l_inv_t``
    are the weights they meet.  Each chunk's rows are used and dropped.
    """
    n = sum(sizes)
    mean, var = np.empty(n), np.empty(n)

    def work(sl, phi):
        mean[sl] = backends.matmul_rows(phi, m)
        var[sl] = _sq_row_norms(phi, l_inv_t)

    run_chunks(sizes, width, fill, work)
    return mean, var


def predict_outputs(fit: FitResult, state: WeightPosterior, test: Dataset,
                    include_noise=True) -> Posterior:
    """Posterior over outputs at the test rows.

    ``state`` is the ``WeightPosterior`` of the training data.  Variance
    is the latent-function marginal plus the fitted noise variance of each
    row's output when ``include_noise`` is set (the default, matching
    predictive bands drawn around noisy data).
    """
    spec = fit.spec
    validate_dataset(test, spec)
    draws = draws_for(fit)
    m, l_inv_t = _weights(state)
    width = phi_c_width(spec.num_forces, fit.num_samples)
    rows = output_rows(test.output_ids)
    blocks = output_blocks(rows, spec, draws)
    mean, var = np.empty(len(test)), np.empty(len(test))
    unresolved = []  # the rows of each output not in a basis
    for d, r in rows.items():
        x = test.inputs[r]
        z = _coefficients(x, width, lambda u, block=blocks[d]: block.fill(u).view(float))
        if z is None:
            unresolved.append(r)
            continue
        # Z C_d: the coefficients of output d's rows of Phi_c
        z = (z.view(complex) * output_scale(spec, fit.num_samples, d)).view(float)
        mean[r], var[r] = _basis_pass(x, z, m, l_inv_t)
    if unresolved:
        at = np.concatenate(unresolved)
        step = max(1, backends.PIECE_ROWS // spec.num_forces)

        def fill(sl, phi):
            r = at[sl]  # a chunk holds one output's rows
            d, x = test.output_ids[r[0]], test.inputs[r]
            for lo in range(0, x.shape[0], step):
                v = blocks[d].fill(x[lo : lo + step], phi[lo : lo + step].view(complex))
                v *= output_scale(spec, fit.num_samples, d)
            return phi

        mean[at], var[at] = _fill_pass([r.size for r in unresolved], width, fill, m, l_inv_t)
    if include_noise:
        var += noise_vector(spec, test.output_ids)
    return Posterior(mean, var, bool(include_noise))


def predict_latent_forces(fit: FitResult, state: WeightPosterior, times, q) -> Posterior:
    """Posterior over latent force q (1-based) at the given times, raveled.

    Latent features share the fitted weight space, so with no data the
    mean is 0 and the variance is exactly 1 at every time (the force
    kernel's unit diagonal); conditioning only shrinks it.  Raises
    ValueError for q outside 1..Q and DataError unless the times are
    finite; negative times are allowed, as the force is defined there.
    """
    spec = fit.spec
    if not isinstance(spec, LfmSpec):
        raise TypeError("latent force prediction requires an LFM spec")
    if not 1 <= q <= spec.num_forces:
        raise ValueError(f"force index {q} outside 1..{spec.num_forces}")
    times = np.asarray(times, dtype=float).ravel()
    if not np.all(np.isfinite(times)):
        raise DataError("inputs must be finite")
    lam = force_frequencies(draws_for(fit), q, spec.lengthscales[q - 1])
    m, l_inv_t = _weights(state)
    block = force_columns(q, fit.num_samples)  # force q's columns of Phi
    cols = slice(2 * block.start, 2 * block.stop)  # and of Phi_c
    m_q, l_inv_t_q = m[cols], l_inv_t[cols]  # the weights those columns meet
    # A row of latent_feature_matrix is zero outside force q's columns, so
    # only those 2S columns are filled, or reduced in a basis, and multiplied.
    width = cols.stop - cols.start
    z = _coefficients(times, width, lambda u: latent_block(u, lam).view(float))
    if z is not None:
        return Posterior(*_basis_pass(times, z, m_q, l_inv_t_q), False)
    return Posterior(*_fill_pass([times.size], width, lambda sl, rows: latent_block(
        times[sl], lam, rows.view(complex)).view(float), m_q, l_inv_t_q), False)


def nmse(y_true, y_pred) -> float:
    """Mean squared error normalized by the variance of the truth."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    var = float(np.var(y_true))
    if var == 0.0:
        raise ValueError("nmse undefined for constant y_true")
    return float(np.mean((y_true - y_pred) ** 2)) / var


def nlpd(y_true, post: Posterior) -> float:
    """Mean negative Gaussian log density of the truth under the posterior."""
    y_true = np.asarray(y_true, dtype=float)
    v = np.asarray(post.variance, dtype=float)
    if np.any(v <= 0):
        raise ValueError("nlpd requires strictly positive predictive variances")
    quad = (y_true - post.mean) ** 2 / (2.0 * v)
    return float(np.mean(0.5 * np.log(2.0 * math.pi * v) + quad))
