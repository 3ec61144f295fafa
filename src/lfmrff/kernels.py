"""Covariance construction: feature-product approximation and exact quadrature.

The approximate multi-output covariance is K = Re(Phi Phi^H) where Phi
stacks weighted response features.  ``feature_matrix`` assembles Phi for
an LFM and a MOGP spec alike (``mogp.mogp_feature_matrix`` is the same
function); ``latent_feature_matrix`` gives a latent force's own rows in
the same weight space.  The exact LFM covariance convolves Green's
functions against the force kernel exp(-(tau-tau')^2/ell^2) from both
sides.  Two independent exact evaluators are provided: nested adaptive
quadrature for single entries, and a vectorized Gauss-Legendre product
rule with order doubling for whole grids.  Their tolerances and orders
are fixed; each oracle's docstring states them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from . import backends
from .features import (
    NumericsWarning,
    FrequencyDraws,
    force_columns,
    force_frequencies,
    operator_roots,
    output_blocks,
    phi_c_width,
    phi_fill,
    residue_coeffs,
    run_chunks,
    # not used here: kept for the benchmark's tracer, which wraps this name;
    # delete with ROADMAP item 1
    rfrf_general,
)
from .model import DataError, LfmSpec, Ode1Params

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

    It is stored as its real view ``phi_c`` (column layout:
    ``features.force_columns`` and ``features.phi_c_width``), so
    phi_c phi_c^T equals Re(Phi Phi^H).  ``phi`` is the complex view of
    ``phi_c`` and shares its memory.
    """

    phi_c: np.ndarray

    @property
    def phi(self) -> np.ndarray:
        return self.phi_c.view(complex)


def feature_matrix(inputs, output_ids, spec, draws) -> FeatureMatrix:
    """Assemble Phi of an LFM or MOGP spec: S_{d,q}/sqrt(S) * v_d(x_n, lam_{s,q}).

    ``inputs`` are times for an LFM and (N, p), or (N,) for p = 1,
    locations for a MOGP; rows follow their order.  ValueError unless
    ``output_ids`` is 1-D with one id per input row; DataError unless the
    inputs pass the spec's ``check_inputs`` and are finite, and each id
    lies in 1..D.
    """
    inputs = np.asarray(inputs, dtype=float)
    output_ids = np.asarray(output_ids, dtype=int)
    if output_ids.ndim != 1 or inputs.shape[:1] != output_ids.shape:
        raise ValueError(f"need one output id per input row: inputs {inputs.shape}, "
                         f"output_ids {output_ids.shape}")
    spec.check_inputs(inputs)
    if not np.all(np.isfinite(inputs)):
        raise DataError("inputs must be finite")
    phi_c = np.empty((output_ids.size, phi_c_width(spec.num_forces, draws.num_samples)))
    blocks = output_blocks(np.unique(output_ids).tolist(), spec, draws)
    fill = phi_fill(inputs, output_ids, spec, draws.num_samples, blocks)
    run_chunks([output_ids.size], 0, lambda sl, _: fill(sl, phi_c[sl]))
    return FeatureMatrix(phi_c)


def latent_block(times, lam, out=None):
    """Latent-force features exp(j*lam*t)/sqrt(S), (len(times), S) complex.

    ``backends.cis`` writes them, with 1/sqrt(S) folded into its scale,
    into ``out``, a C-contiguous complex array of that shape, when it is
    given, and into a new array otherwise; the bits are the same.
    """
    x = np.multiply.outer(np.ravel(times), lam)
    v = np.empty(x.shape, dtype=complex) if out is None else out
    backends.cis(x, v, 1.0 / math.sqrt(lam.size))
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
    phi_c = np.zeros((times.size, phi_c_width(spec.num_forces, s_count)))
    phi_c.view(complex)[:, force_columns(q, s_count)] = latent_block(
        times, force_frequencies(draws, q, spec.lengthscales[q - 1])
    )
    return FeatureMatrix(phi_c)


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


def response_quadrature(t, params, lam):
    """Oracle for a single response feature: int_0^t G(t-u) exp(j lam u) du.

    Adaptive quadrature (absolute tolerance 1e-12) on real and imaginary
    parts separately; independent of the closed-form residue expansion
    used by the feature code.
    """
    t = float(t)
    if t == 0.0:
        return 0.0 + 0.0j
    g = greens_function(params)
    re = quad(lambda u: g(t - u) * math.cos(lam * u), 0.0, t, epsabs=1e-12, limit=400)[0]
    im = quad(lambda u: g(t - u) * math.sin(lam * u), 0.0, t, epsabs=1e-12, limit=400)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# exact side: covariances by quadrature


def exact_cov_entry(t1, d1, t2, d2, spec: LfmSpec):
    """One exact covariance entry by nested adaptive quadrature.

    Sums over forces q the double convolution of both Green's functions
    against exp(-(tau-sig)^2/ell_q^2), weighted by the two sensitivities.
    Absolute tolerance 1e-10, inner integral a tenth of it.  Accurate but
    slow; intended for spot checks of the grid evaluator.
    """
    t1, t2 = float(t1), float(t2)
    if t1 == 0.0 or t2 == 0.0:
        return 0.0
    epsabs = 1e-10
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


_leggauss = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


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


def _doubled_until_converged(fixed, order, rtol, name):
    """``fixed(order)``, doubling the order at most three times.

    Stops once the Frobenius change is within ``rtol`` of the norm; else
    warns, naming the ``name`` oracle, and returns the last grid.
    """
    prev = fixed(order)
    for _ in range(3):
        order *= 2
        cur = fixed(order)
        if np.linalg.norm(cur - prev) <= rtol * max(np.linalg.norm(cur), 1e-300):
            return cur
        prev = cur
    warnings.warn(f"{name} quadrature did not reach rtol={rtol} by order {order}",
                  NumericsWarning, stacklevel=3)
    return prev


def exact_cov_grid(tr, dr, tc=None, dc=None, *, spec, rtol=1e-8):
    """Exact covariance over a grid via Gauss-Legendre product quadrature.

    The order doubles from 24 up to 192 until the Frobenius change falls
    below ``rtol`` relative to the current norm.  The integrands are
    entire in both variables, so convergence is geometric; a warning is
    raised if the budget runs out first.
    """
    symmetric = tc is None
    if symmetric:
        tc, dc = tr, dr
    k = _doubled_until_converged(
        lambda order: _cov_grid_fixed(tr, dr, tc, dc, spec, order), 24, rtol, "covariance"
    )
    if symmetric:
        k = 0.5 * (k + k.T)
    return k


def cross_cov_entry(t, d, t_force, q, spec: LfmSpec):
    """Exact covariance of output d at t and force q at t_force (quad to 1e-11 absolute)."""
    t = float(t)
    if t == 0.0:
        return 0.0
    g = greens_function(spec.outputs[d - 1])
    inv_ell2 = 1.0 / spec.lengthscales[q - 1] ** 2
    val = quad(
        lambda tau: g(t - tau) * math.exp(-((tau - t_force) ** 2) * inv_ell2),
        0.0,
        t,
        epsabs=1e-11,
        limit=200,
    )[0]
    return spec.sensitivities[d - 1, q - 1] * val


def cross_cov_grid(tr, dr, t_force, q, spec: LfmSpec):
    """Exact output-to-force covariance over grids, single-integral version.

    The Gauss-Legendre order doubles from 32 up to 256 until the Frobenius
    change falls below 1e-9 relative to the current norm.
    """
    t_force = np.asarray(t_force, dtype=float)
    inv_ell2 = 1.0 / spec.lengthscales[q - 1] ** 2
    s_r = spec.sensitivities[np.asarray(dr) - 1, q - 1]

    def fixed(order):
        tau, a = _weighted_green_nodes(tr, dr, spec, order)
        kmat = np.exp(-((tau[:, :, None] - t_force[None, None, :]) ** 2) * inv_ell2)
        return s_r[:, None] * np.einsum("ia,iaj->ij", a, kmat)

    return _doubled_until_converged(fixed, 32, 1e-9, "cross-covariance")
