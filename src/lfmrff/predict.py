"""Posterior prediction through the weight-space view, plus metrics.

With prior weights w ~ N(0, I) and y = Phi_c w + noise, the posterior
weights are N(A^-1 alpha, A^-1), so any linear functional with feature
row phi* has mean phi* A^-1 alpha and variance phi* A^-1 phi*^T.  This
agrees with the function-space GP formulas by the Woodbury identity but
never forms an N x N matrix.  With A = L L^T the variance is the squared
norm of phi* L^-T, which is nonnegative by construction.

Prediction streams over chunks of ``backends.CHUNK_ROWS`` test rows with
``features.run_chunks``: each chunk's feature rows are filled, used for
its means and variances and dropped, so no test N x R matrix is formed
and memory is flat in the number of test rows.  A latent force's rows
are zero outside force q's 2S columns, so its pass fills and multiplies
only those, against the matching rows of the weights.  The calling
thread and one helper thread take alternate chunks and write disjoint
slices of the means and variances, which are the same whatever the
thread count.  The posterior is a ``likelihood.WeightPosterior``:
``weight_posterior`` builds it from the objective's per-output Grams,
without a training Phi_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import backends
from .features import (
    force_columns,
    force_frequencies,
    phi_c_width,
    phi_fill,
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
    m, l_inv_t = _weights(state)
    mean = np.empty(len(test))
    var = np.empty(len(test))

    def work(sl, phi):
        mean[sl] = backends.matmul_rows(phi, m)
        var[sl] = _sq_row_norms(phi, l_inv_t)

    run_chunks(len(test), phi_c_width(spec.num_forces, fit.num_samples),
               phi_fill(test.inputs, test.output_ids, spec, draws_for(fit)), work)
    if include_noise:
        var += noise_vector(spec, test.output_ids)
    return Posterior(mean, var, bool(include_noise))


def predict_latent_forces(fit: FitResult, state: WeightPosterior, times, q) -> Posterior:
    """Posterior over latent force q (1-based) at the given times.

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
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise DataError("inputs must be finite")
    lam = force_frequencies(draws_for(fit), q, spec.lengthscales[q - 1])
    m, l_inv_t = _weights(state)
    n = times.size
    block = force_columns(q, fit.num_samples)  # force q's columns of Phi
    cols = slice(2 * block.start, 2 * block.stop)  # and of Phi_c
    m_q, l_inv_t_q = m[cols], l_inv_t[cols]  # the weights those columns meet
    mean = np.empty(n)
    var = np.empty(n)

    # A row of latent_feature_matrix is zero outside force q's columns, so
    # only those 2S columns are filled, into the side's work array, and
    # multiplied.
    def work(sl, rows):
        mean[sl] = backends.matmul_rows(rows, m_q)
        var[sl] = _sq_row_norms(rows, l_inv_t_q)

    run_chunks(n, cols.stop - cols.start,
               lambda sl, rows: latent_block(times[sl], lam, rows.view(complex)).view(float), work)
    return Posterior(mean, var, False)


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
