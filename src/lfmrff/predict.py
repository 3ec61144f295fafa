"""Posterior prediction through the weight-space view, plus metrics.

With prior weights w ~ N(0, I) and y = Phi_c w + noise, the posterior
weights are N(A^-1 alpha, A^-1), so any linear functional with feature
row phi* has mean phi* A^-1 alpha and variance phi* A^-1 phi*^T.  This
agrees with the function-space GP formulas by the Woodbury identity but
never forms an N x N matrix.  With A = L L^T the variance is the squared
norm of phi* L^-T, which is nonnegative by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .features import sample_frequencies
from .kernels import feature_matrix, latent_feature_matrix
from .likelihood import FitResult, LowRankState, noise_vector
from .model import Dataset, LfmSpec, validate_dataset
from .mogp import mogp_feature_matrix, sample_spectral

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
    spec = fit.spec
    if isinstance(spec, LfmSpec):
        return sample_frequencies(fit.num_samples, spec.num_forces, fit.seed)
    return sample_spectral(fit.num_samples, spec.num_forces, spec.input_dim, fit.seed)


def _posterior_from_features(phi_c, state: LowRankState):
    mean = phi_c @ state.solve_a(state.alpha)
    # phi A^-1 phi^T = |phi L^-T|^2 row by row: one R x R triangular solve
    # and one GEMM instead of a solve with N right-hand sides.
    l_inv = solve_triangular(state.chol_a, np.eye(state.chol_a.shape[0]), lower=True)
    w = phi_c @ l_inv.T
    return mean, np.einsum("ij,ij->i", w, w)


def predict_outputs(fit: FitResult, state: LowRankState, test: Dataset, include_noise=True) -> Posterior:
    """Posterior over outputs at the test rows.

    Variance is the latent-function marginal plus the fitted noise
    variance of each row's output when ``include_noise`` is set (the
    default, matching predictive bands drawn around noisy data).
    """
    spec = fit.spec
    validate_dataset(test, spec)
    draws = draws_for(fit)
    if isinstance(spec, LfmSpec):
        fm = feature_matrix(test.inputs, test.output_ids, spec, draws)
    else:
        fm = mogp_feature_matrix(test.inputs, test.output_ids, spec, draws)
    mean, var = _posterior_from_features(fm.phi_c, state)
    if include_noise:
        var = var + noise_vector(spec, test.output_ids)
    return Posterior(mean, var, bool(include_noise))


def predict_latent_forces(fit: FitResult, state: LowRankState, times, q) -> Posterior:
    """Posterior over latent force q at the given times.

    Latent features share the fitted weight space, so with no data the
    mean is 0 and the variance is exactly 1 at every time (the force
    kernel's unit diagonal); conditioning only shrinks it.
    """
    spec = fit.spec
    if not isinstance(spec, LfmSpec):
        raise TypeError("latent force prediction requires an LFM spec")
    fm = latent_feature_matrix(np.asarray(times, dtype=float), q, spec, draws_for(fit))
    mean, var = _posterior_from_features(fm.phi_c, state)
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
