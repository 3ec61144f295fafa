"""Convolved multi-output GP over R^p with Gaussian smoothing kernels.

Each output convolves a shared latent GP against exp(-P_d/2 * |u|^2).
The response to the excitation exp(j lam.x) is the excitation times the
smoothing kernel's Fourier transform, so the random feature is

    phi_d(x, lam) = (2 pi / P_d)^(p/2) exp(-|lam|^2 / (2 P_d)) exp(j lam.x)

with lam drawn from the force's spectral density N(0, 2/ell_q^2 I).  The
implied exact cross-covariance is available in closed form (a widened
squared exponential), and for p = 1 by direct double quadrature over the
convolution definition; both serve as oracles for the feature product.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import dblquad

# SpectralDraws, sample_spectral and mogp_frequencies live in features, next
# to the LFM's draws and the block provider; this module re-exports them.
from .features import (
    SpectralDraws,
    feature_blocks,
    mogp_frequencies,
    output_rows,
    sample_spectral,
    write_phi_c,
)
from .kernels import FeatureMatrix
from .model import MogpSpec

__all__ = [
    "SpectralDraws",
    "sample_spectral",
    "mogp_frequencies",
    "mogp_feature_matrix",
    "mogp_cov_exact",
    "mogp_cov_quadrature",
]


def mogp_feature_matrix(x, output_ids, spec: MogpSpec, draws: SpectralDraws) -> FeatureMatrix:
    """Assemble Phi with entries S_{d,q}/sqrt(S) * phi_d(x_n, lam_{s,q})."""
    if draws.num_forces != spec.num_forces:
        raise ValueError(
            f"draws carry {draws.num_forces} forces, spec has {spec.num_forces}"
        )
    if draws.input_dim != spec.input_dim:
        raise ValueError(
            f"draws have input_dim {draws.input_dim}, spec has {spec.input_dim}"
        )
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    output_ids = np.asarray(output_ids, dtype=int)
    rows = output_rows(output_ids)
    blocks = feature_blocks(x, rows, spec, draws)
    s_count = draws.num_samples
    phi_c = write_phi_c(x.shape[0], rows, spec, s_count, blocks)
    return FeatureMatrix(phi_c, output_ids, spec.num_forces, s_count)


def mogp_cov_exact(xr, dr, xc=None, dc=None, spec: MogpSpec | None = None) -> np.ndarray:
    """Closed-form covariance of the convolved model.

    Integrating the Gaussian spectral density against both smoothing
    transforms gives, per force q with variance sig2 = 2/ell_q^2 and
    a = 1/(2 P_d) + 1/(2 P_d'),

        C_d C_d' (1 + 2 a sig2)^(-p/2) exp(-sig2 |x - x'|^2 / (2 (1 + 2 a sig2)))
    """
    if spec is None:
        raise TypeError("spec is required")
    symmetric = xc is None
    xr = np.asarray(xr, dtype=float)
    if xr.ndim == 1:
        xr = xr[:, None]
    if symmetric:
        xc, dc = xr, dr
    else:
        xc = np.asarray(xc, dtype=float)
        if xc.ndim == 1:
            xc = xc[:, None]
    dr = np.asarray(dr, dtype=int)
    dc = np.asarray(dc, dtype=int)
    p = spec.input_dim
    sq_dist = np.sum((xr[:, None, :] - xc[None, :, :]) ** 2, axis=2)
    prec_r = spec.inv_widths[dr - 1]
    prec_c = spec.inv_widths[dc - 1]
    c_r = (2.0 * math.pi / prec_r) ** (p / 2.0)
    c_c = (2.0 * math.pi / prec_c) ** (p / 2.0)
    a = 0.5 / prec_r[:, None] + 0.5 / prec_c[None, :]
    total = np.zeros_like(sq_dist)
    for q in range(spec.num_forces):
        sig2 = 2.0 / spec.lengthscales[q] ** 2
        widen = 1.0 + 2.0 * a * sig2
        s_rq = spec.sensitivities[dr - 1, q]
        s_cq = spec.sensitivities[dc - 1, q]
        total += (
            np.outer(s_rq, s_cq)
            * np.outer(c_r, c_c)
            * widen ** (-p / 2.0)
            * np.exp(-0.5 * sig2 * sq_dist / widen)
        )
    if symmetric:
        total = 0.5 * (total + total.T)
    return total


def mogp_cov_quadrature(x1, d1, x2, d2, spec: MogpSpec, *, half_width=None, epsabs=1e-10):
    """One covariance entry for p = 1 by double quadrature.

    Integrates G_d(x1 - z) G_d'(x2 - z') exp(-(z - z')^2 / ell^2) over a
    box wide enough for the Gaussian tails to be negligible.  Independent
    of the spectral closed form; used to validate it and the features.
    """
    if spec.input_dim != 1:
        raise ValueError("quadrature oracle only supports input_dim == 1")
    x1, x2 = float(np.squeeze(x1)), float(np.squeeze(x2))
    p1 = spec.inv_widths[d1 - 1]
    p2 = spec.inv_widths[d2 - 1]
    if half_width is None:
        half_width = 9.0 * (
            1.0 / math.sqrt(min(p1, p2)) + float(np.max(spec.lengthscales))
        )
    total = 0.0
    for q in range(spec.num_forces):
        inv_ell2 = 1.0 / spec.lengthscales[q] ** 2

        def integrand(zp, z):
            return (
                math.exp(-0.5 * p1 * (x1 - z) ** 2)
                * math.exp(-0.5 * p2 * (x2 - zp) ** 2)
                * math.exp(-((z - zp) ** 2) * inv_ell2)
            )

        val, _ = dblquad(
            integrand,
            x1 - half_width,
            x1 + half_width,
            lambda z: x2 - half_width,
            lambda z: x2 + half_width,
            epsabs=epsabs,
        )
        total += spec.sensitivities[d1 - 1, q] * spec.sensitivities[d2 - 1, q] * val
    return total
