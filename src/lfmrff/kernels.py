"""Covariance construction: feature-product approximation and exact quadrature.

The approximate multi-output covariance is K = Re(Phi Phi^H) where Phi
stacks weighted response features; the exact covariance convolves Green's
functions against the force kernel exp(-(tau-tau')^2/ell^2) from both
sides.  Two independent exact evaluators are provided: nested adaptive
quadrature for single entries, and a vectorized Gauss-Legendre product
rule with order doubling for whole grids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .features import (
    NumericsWarning,
    FrequencyDraws,
    assemble_phi_c,
    force_frequencies,
    operator_roots,
    residue_coeffs,
    # not used here: kept for the benchmark's tracer, which wraps this name;
    # delete with ROADMAP item 1
    rfrf_general,
)
from .model import LfmSpec, Ode1Params

__all__ = [
    "FeatureMatrix",
    "feature_matrix",
    "latent_feature_matrix",
    "approx_cov",
    "greens_function",
    "response_quadrature",
    "exact_cov_entry",
    "exact_cov_grid",
    "cross_cov_entry",
    "cross_cov_grid",
]


# ---------------------------------------------------------------------------
# approximate side


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Feature matrix Phi, (N, Q*S) complex, force-major column blocks.

    Column (q-1)*S + s holds sample s of force q.  It is stored as its real
    view ``phi_c``, (N, 2QS): column 2k holds Re Phi[:, k] and column 2k+1
    Im Phi[:, k], so phi_c phi_c^T equals Re(Phi Phi^H).  ``phi`` is the
    complex view of ``phi_c`` and shares its memory.
    """

    phi_c: np.ndarray
    output_ids: np.ndarray | None
    num_forces: int
    num_samples: int

    @property
    def phi(self) -> np.ndarray:
        return self.phi_c.view(complex)


def feature_matrix(times, output_ids, spec: LfmSpec, draws: FrequencyDraws) -> FeatureMatrix:
    """Assemble Phi with entries S_{d,q}/sqrt(S) * v_d(t_n, lam_{s,q}).

    Rows follow the order of ``times``/``output_ids``; no sorting by output
    is performed.
    """
    if draws.num_forces != spec.num_forces:
        raise ValueError(
            f"draws carry {draws.num_forces} forces, spec has {spec.num_forces}"
        )
    times = np.asarray(times, dtype=float)
    output_ids = np.asarray(output_ids, dtype=int)
    if times.shape != output_ids.shape:
        raise ValueError("times and output_ids must have matching shapes")
    phi_c = assemble_phi_c(times, output_ids, spec, draws)
    return FeatureMatrix(phi_c, output_ids, spec.num_forces, draws.num_samples)


def latent_block(times, lam):
    """Latent-force features exp(j*lam*t)/sqrt(S), (len(times), S) complex.

    exp(j x) is written as cos x + j sin x in place, as in
    ``backends.residue_fill``: the same bits as the complex exponential,
    without its complex temporaries.
    """
    t = np.ravel(times)
    v = np.empty((t.size, lam.size), dtype=complex)
    np.multiply.outer(t, lam, out=v.imag)
    np.cos(v.imag, out=v.real)
    np.sin(v.imag, out=v.imag)
    v /= math.sqrt(lam.size)
    return v


def latent_feature_matrix(times, q, spec: LfmSpec, draws: FrequencyDraws) -> FeatureMatrix:
    """Features of latent force q itself: exp(j*lam*t)/sqrt(S) in block q.

    Shares the weight space of ``feature_matrix``, so posterior weights
    learned from outputs predict the force directly.  Columns of other
    forces are zero.
    """
    if not 1 <= q <= spec.num_forces:
        raise ValueError(f"force index {q} outside 1..{spec.num_forces}")
    times = np.asarray(times, dtype=float)
    s_count = draws.num_samples
    phi_c = np.zeros((times.size, 2 * spec.num_forces * s_count))
    phi_c.view(complex)[:, (q - 1) * s_count : q * s_count] = latent_block(
        times, force_frequencies(draws, q, spec.lengthscales[q - 1])
    )
    return FeatureMatrix(phi_c, None, spec.num_forces, s_count)


def approx_cov(fm: FeatureMatrix, fm2: FeatureMatrix | None = None) -> np.ndarray:
    """Low-rank covariance Re(Phi1 Phi2^H); symmetrized when fm2 is omitted."""
    other = fm if fm2 is None else fm2
    k = fm.phi_c @ other.phi_c.T
    if fm2 is None:
        k = 0.5 * (k + k.T)
    return k


# ---------------------------------------------------------------------------
# exact side: Green's functions


def greens_function(params):
    """Impulse response of the operator as a real vectorized callable.

    First order: exp(-gamma u).  Higher orders, the second included, use
    the partial-fraction expansion over the roots of ``operator_roots``:
    with distinct roots s1, s2 it is (exp(s1 u) - exp(s2 u)) / (m (s1 - s2)).
    """
    if isinstance(params, Ode1Params):
        gamma = params.gamma
        return lambda u: np.exp(-gamma * np.asarray(u, dtype=float))
    rs = operator_roots(params)
    coeffs = residue_coeffs(rs.roots) / rs.leading
    roots = rs.roots

    def g(u):
        u = np.asarray(u, dtype=float)
        return (np.exp(np.multiply.outer(u, roots)) @ coeffs).real

    return g


def response_quadrature(t, params, lam, epsabs=1e-12):
    """Oracle for a single response feature: int_0^t G(t-u) exp(j lam u) du.

    Adaptive quadrature on real and imaginary parts separately; independent
    of the closed-form residue expansion used by the feature code.
    """
    t = float(t)
    if t == 0.0:
        return 0.0 + 0.0j
    g = greens_function(params)
    re = quad(lambda u: g(t - u) * math.cos(lam * u), 0.0, t, epsabs=epsabs, limit=400)[0]
    im = quad(lambda u: g(t - u) * math.sin(lam * u), 0.0, t, epsabs=epsabs, limit=400)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# exact side: covariances by quadrature


def exact_cov_entry(t1, d1, t2, d2, spec: LfmSpec, epsabs=1e-10):
    """One exact covariance entry by nested adaptive quadrature.

    Sums over forces q the double convolution of both Green's functions
    against exp(-(tau-sig)^2/ell_q^2), weighted by the two sensitivities.
    Accurate but slow; intended for spot checks of the grid evaluator.
    """
    t1, t2 = float(t1), float(t2)
    if t1 == 0.0 or t2 == 0.0:
        return 0.0
    g1 = greens_function(spec.outputs[d1 - 1])
    g2 = greens_function(spec.outputs[d2 - 1])
    total = 0.0
    for q in range(spec.num_forces):
        ell = spec.lengthscales[q]
        inv_ell2 = 1.0 / (ell * ell)

        def inner(tau):
            val = quad(
                lambda sig: g2(t2 - sig) * math.exp(-((tau - sig) ** 2) * inv_ell2),
                0.0,
                t2,
                epsabs=0.1 * epsabs,
                limit=200,
            )[0]
            return g1(t1 - tau) * val

        val = quad(inner, 0.0, t1, epsabs=epsabs, limit=200)[0]
        total += spec.sensitivities[d1 - 1, q] * spec.sensitivities[d2 - 1, q] * val
    return total


@lru_cache(maxsize=32)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _weighted_green_nodes(times, output_ids, spec, order):
    """Scaled nodes tau[i,a] in [0, t_i] and weights w*G_d(t_i - tau)."""
    x, w = _leggauss(order)
    times = np.asarray(times, dtype=float)
    tau = 0.5 * times[:, None] * (x[None, :] + 1.0)
    wg = np.empty_like(tau)
    for d in np.unique(output_ids):
        rows = np.flatnonzero(output_ids == d)
        g = greens_function(spec.outputs[d - 1])
        wg[rows] = (0.5 * times[rows, None] * w[None, :]) * g(
            times[rows, None] - tau[rows]
        )
    return tau, wg


def _cov_grid_fixed(tr, dr, tc, dc, spec, order):
    tau_r, a = _weighted_green_nodes(tr, dr, spec, order)
    tau_c, b = _weighted_green_nodes(tc, dc, spec, order)
    n_r, n_c = len(tr), len(tc)
    flat_c = tau_c.reshape(-1)
    total = np.zeros((n_r, n_c))
    for q in range(spec.num_forces):
        inv_ell2 = 1.0 / spec.lengthscales[q] ** 2
        acc = np.zeros((n_r, n_c))
        for node in range(order):
            kmat = np.exp(
                -((tau_r[:, node, None] - flat_c[None, :]) ** 2) * inv_ell2
            ).reshape(n_r, n_c, order)
            acc += a[:, node, None] * np.einsum("ijb,jb->ij", kmat, b)
        s_r = spec.sensitivities[np.asarray(dr) - 1, q]
        s_c = spec.sensitivities[np.asarray(dc) - 1, q]
        total += np.outer(s_r, s_c) * acc
    return total


def exact_cov_grid(
    tr, dr, tc=None, dc=None, spec=None, *, rtol=1e-8, start_order=24, max_order=192
):
    """Exact covariance over a grid via Gauss-Legendre product quadrature.

    The order doubles until the Frobenius change falls below ``rtol``
    relative to the current norm.  The integrands are entire in both
    variables, so convergence is geometric; a warning is raised if the
    budget runs out first.
    """
    if spec is None:
        raise TypeError("spec is required")
    symmetric = tc is None
    if symmetric:
        tc, dc = tr, dr
    order = start_order
    prev = _cov_grid_fixed(tr, dr, tc, dc, spec, order)
    while order < max_order:
        order *= 2
        cur = _cov_grid_fixed(tr, dr, tc, dc, spec, order)
        scale = max(np.linalg.norm(cur), 1e-300)
        if np.linalg.norm(cur - prev) <= rtol * scale:
            prev = cur
            break
        prev = cur
    else:
        warnings.warn(
            f"covariance quadrature did not reach rtol={rtol} by order {max_order}",
            NumericsWarning,
            stacklevel=2,
        )
    if symmetric:
        prev = 0.5 * (prev + prev.T)
    return prev


def cross_cov_entry(t, d, t_force, q, spec: LfmSpec, epsabs=1e-11):
    """Exact covariance between output d at t and force q at t_force."""
    t = float(t)
    if t == 0.0:
        return 0.0
    g = greens_function(spec.outputs[d - 1])
    inv_ell2 = 1.0 / spec.lengthscales[q - 1] ** 2
    val = quad(
        lambda tau: g(t - tau) * math.exp(-((tau - t_force) ** 2) * inv_ell2),
        0.0,
        t,
        epsabs=epsabs,
        limit=200,
    )[0]
    return spec.sensitivities[d - 1, q - 1] * val


def cross_cov_grid(tr, dr, t_force, q, spec: LfmSpec, *, rtol=1e-9, start_order=32, max_order=256):
    """Exact output-to-force covariance over grids, single-integral version."""
    t_force = np.asarray(t_force, dtype=float)
    inv_ell2 = 1.0 / spec.lengthscales[q - 1] ** 2
    s_r = spec.sensitivities[np.asarray(dr) - 1, q - 1]

    def fixed(order):
        tau, a = _weighted_green_nodes(tr, dr, spec, order)
        kmat = np.exp(-((tau[:, :, None] - t_force[None, None, :]) ** 2) * inv_ell2)
        return s_r[:, None] * np.einsum("ia,iaj->ij", a, kmat)

    order = start_order
    prev = fixed(order)
    while order < max_order:
        order *= 2
        cur = fixed(order)
        if np.linalg.norm(cur - prev) <= rtol * max(np.linalg.norm(cur), 1e-300):
            return cur
        prev = cur
    warnings.warn(
        f"cross-covariance quadrature did not reach rtol={rtol} by order {max_order}",
        NumericsWarning,
        stacklevel=2,
    )
    return prev
