"""Spectral frequency sampling and random Fourier response features.

A response feature is the reaction of a stable linear ODE system to the
complex excitation exp(j*lam*t), integrated from rest at time 0.  For an
operator with Laplace-domain roots s_1..s_P and the extra excitation root
s_{P+1} = j*lam, the response is a partial-fraction sum of exponentials;
inner products of these features across sampled frequencies approximate the
model covariance.  The convolved MOGP's feature is a Gaussian amplitude
times exp(j*lam.x).

``feature_blocks`` is the one provider of feature blocks, for every model
type, and ``write_phi_c`` the one writer that places them into the real
feature matrix Phi_c; ``feature_matrix``, ``mogp_feature_matrix`` and the
likelihood objective all assemble through them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import backends
from .model import LfmSpec, NumericalError, Ode1Params, Ode2Params, OdeOperator

__all__ = [
    "NumericsWarning",
    "FrequencyDraws",
    "SpectralDraws",
    "RootSet",
    "sample_frequencies",
    "sample_spectral",
    "force_frequencies",
    "mogp_frequencies",
    "ode_roots",
    "ode2_roots",
    "operator_roots",
    "residue_coeffs",
    "rfrf_general",
    "rfrf_ode1",
    "rfrf_ode2",
    "latent_feature",
    "perturb_collisions",
    "to_operator",
    "output_rows",
    "feature_blocks",
    "write_phi_c",
]

# Roots closer than SEPARATION_RTOL * (1 + max |root|) count as repeated.
SEPARATION_RTOL = 1e-6


class NumericsWarning(UserWarning):
    """A guarded numerical edge case was auto-perturbed (never silent)."""


# ---------------------------------------------------------------------------
# frequency sampling


@dataclass(frozen=True)
class FrequencyDraws:
    """Standard-normal base draws shared by all forces.

    ``base`` is (S, Q); force q uses column q-1 scaled by sqrt(2)/ell_q, so
    frequencies stay differentiable in the lengthscale through the fixed
    draws (common random numbers).
    """

    base: np.ndarray
    seed: int
    num_samples: int

    def __post_init__(self):
        b = np.array(self.base, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.num_samples:
            raise ValueError(f"base must be ({self.num_samples}, Q), got {b.shape}")
        b.flags.writeable = False
        object.__setattr__(self, "base", b)

    @property
    def num_forces(self) -> int:
        return self.base.shape[1]


def sample_frequencies(num_samples, num_forces, seed) -> FrequencyDraws:
    """Draw the (S, Q) standard-normal base matrix; reproducible from seed."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if num_forces < 1:
        raise ValueError(f"num_forces must be >= 1, got {num_forces}")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((int(num_samples), int(num_forces)))
    return FrequencyDraws(base, int(seed), int(num_samples))


def force_frequencies(draws: FrequencyDraws, q, lengthscale):
    """Frequencies lam_s = sqrt(2) z_{s,q} / ell for force q (1-based).

    The marginal law is N(0, 2/ell^2), the spectral density of the
    exponentiated-quadratic kernel exp(-(tau-tau')^2/ell^2).
    """
    if not 1 <= q <= draws.num_forces:
        raise ValueError(f"force index {q} outside 1..{draws.num_forces}")
    if lengthscale <= 0:
        raise ValueError(f"lengthscale must be positive, got {lengthscale}")
    return (math.sqrt(2.0) / lengthscale) * draws.base[:, q - 1]


@dataclass(frozen=True)
class SpectralDraws:
    """Standard-normal base draws, one (S, p) block per force, stacked.

    ``base`` has shape (Q, S, p); force q uses base[q-1] scaled by
    sqrt(2)/ell_q, keeping frequencies differentiable in the lengthscale.
    """

    base: np.ndarray
    seed: int
    num_samples: int

    def __post_init__(self):
        b = np.array(self.base, dtype=float)
        if b.ndim != 3 or b.shape[1] != self.num_samples:
            raise ValueError(f"base must be (Q, {self.num_samples}, p), got {b.shape}")
        b.flags.writeable = False
        object.__setattr__(self, "base", b)

    @property
    def num_forces(self) -> int:
        return self.base.shape[0]

    @property
    def input_dim(self) -> int:
        return self.base.shape[2]


def sample_spectral(num_samples, num_forces, input_dim, seed) -> SpectralDraws:
    if num_samples < 1 or num_forces < 1 or input_dim < 1:
        raise ValueError("num_samples, num_forces and input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((int(num_forces), int(num_samples), int(input_dim)))
    return SpectralDraws(base, int(seed), int(num_samples))


def mogp_frequencies(draws: SpectralDraws, q, lengthscale):
    """Frequency matrix (S, p) for force q (1-based): sqrt(2)/ell * base."""
    if not 1 <= q <= draws.num_forces:
        raise ValueError(f"force index {q} outside 1..{draws.num_forces}")
    if lengthscale <= 0:
        raise ValueError(f"lengthscale must be positive, got {lengthscale}")
    return (math.sqrt(2.0) / lengthscale) * draws.base[q - 1]


# ---------------------------------------------------------------------------
# roots and residues


@dataclass(frozen=True)
class RootSet:
    """Roots of the operator's characteristic polynomial and a_0."""

    roots: np.ndarray
    leading: float

    def __post_init__(self):
        r = np.array(self.roots, dtype=complex)
        r.flags.writeable = False
        object.__setattr__(self, "roots", r)


def _check_separation(roots, context):
    roots = np.asarray(roots)
    scale = 1.0 + np.max(np.abs(roots))
    for i in range(len(roots)):
        for k in range(i + 1, len(roots)):
            if abs(roots[i] - roots[k]) < SEPARATION_RTOL * scale:
                raise NumericalError(
                    f"{context}: roots {roots[i]:.6g} and {roots[k]:.6g} are "
                    "repeated or too close for a partial-fraction expansion"
                )


@lru_cache(maxsize=256)
def _roots_cached(coeffs):
    monic = np.array(coeffs, dtype=float) / coeffs[0]
    roots = np.roots(monic)
    residual = np.abs(np.polyval(monic, roots))
    tol = 1e-6 * (1.0 + np.abs(roots)) ** len(coeffs)
    if np.any(residual > tol):
        raise NumericalError(
            f"characteristic roots failed verification: residuals {residual}"
        )
    # sort for determinism (np.roots order is eigenvalue-solver dependent)
    order = np.lexsort((roots.imag, roots.real))
    return tuple(roots[order])


def ode_roots(op: OdeOperator) -> RootSet:
    """Characteristic roots of an order-P operator via the companion matrix.

    Each root is verified against the monic polynomial; repeated roots (up
    to the separation threshold) are rejected.
    """
    roots = np.array(_roots_cached(op.coeffs), dtype=complex)
    _check_separation(roots, "ode_roots")
    return RootSet(roots, op.coeffs[0])


def ode2_roots(params: Ode2Params):
    """Roots -c/2m +- sqrt(c^2/4m^2 - b/m) of a second-order operator.

    Critical damping (coincident roots) is perturbed away by growing the
    spring constant by a relative 1e-6, with a NumericsWarning.
    """
    m, c, b = params.mass, params.damper, params.spring
    disc = c * c / (4.0 * m * m) - b / m
    root = np.sqrt(complex(disc))
    s1 = -c / (2.0 * m) + root
    s2 = -c / (2.0 * m) - root
    scale = 1.0 + max(abs(s1), abs(s2))
    if abs(s1 - s2) < SEPARATION_RTOL * scale:
        warnings.warn(
            "near-critical damping (c^2 ~ 4mb); perturbing spring constant "
            "by relative 1e-6 to keep the roots distinct",
            NumericsWarning,
            stacklevel=2,
        )
        b = b * (1.0 + 1e-6)
        root = np.sqrt(complex(c * c / (4.0 * m * m) - b / m))
        s1 = -c / (2.0 * m) + root
        s2 = -c / (2.0 * m) - root
    return complex(s1), complex(s2)


def operator_roots(params) -> RootSet:
    """Characteristic roots and a_0 of an ODE1, ODE2 or general operator.

    ODE2 roots come from ``ode2_roots``, which perturbs near-critical
    damping with a warning; a general operator's repeated roots raise.
    """
    if isinstance(params, Ode1Params):
        return RootSet([-params.gamma], 1.0)
    if isinstance(params, Ode2Params):
        return RootSet(ode2_roots(params), params.mass)
    return ode_roots(params)


def residue_coeffs(roots):
    """Partial-fraction coefficients A_p = 1 / prod_{i != p} (s_p - s_i).

    These are the residues of 1 / prod_i (s - s_i); for two or more roots
    they sum to zero (the rational function decays like s^-2 or faster).
    """
    roots = np.asarray(roots, dtype=complex)
    _check_separation(roots, "residue_coeffs")
    n = roots.size
    out = np.empty(n, dtype=complex)
    for p in range(n):
        diff = roots[p] - np.delete(roots, p)
        out[p] = 1.0 / np.prod(diff)
    return out


def perturb_collisions(lam, roots):
    """Nudge frequencies whose excitation root j*lam collides with an ODE root.

    Collisions are measure-zero under continuous sampling but reachable in
    tests; each offending lam is shifted by 1e-6*(1+|lam|) with a warning.
    """
    lam = np.asarray(lam, dtype=float)
    roots = np.asarray(roots, dtype=complex)
    dist = np.min(np.abs(1j * lam[:, None] - roots[None, :]), axis=1)
    bad = dist < SEPARATION_RTOL * (1.0 + np.abs(lam))
    if not np.any(bad):
        return lam
    warnings.warn(
        f"{int(bad.sum())} sampled frequencies collide with operator roots; "
        "perturbing by relative 1e-6",
        NumericsWarning,
        stacklevel=2,
    )
    out = lam.copy()
    out[bad] = lam[bad] + SEPARATION_RTOL * (1.0 + np.abs(lam[bad]))
    return out


# ---------------------------------------------------------------------------
# response features


def to_operator(params) -> OdeOperator:
    """Equivalent general-form operator for the ODE1/ODE2 shorthand types."""
    if isinstance(params, OdeOperator):
        return params
    if isinstance(params, Ode1Params):
        return OdeOperator((1.0, params.gamma))
    if isinstance(params, Ode2Params):
        return OdeOperator((params.mass, params.damper, params.spring))
    raise TypeError(f"unsupported operator params: {params!r}")


def rfrf_general(t, op: OdeOperator, lam):
    """Response of an order-P operator to exp(j*lam*t), from rest at t=0.

    Equals (1/a_0) * sum_p A_p exp(s_p t) over the P characteristic roots
    plus the excitation root j*lam, which matches the convolution of the
    Green's function with the excitation.  ``t`` may be a scalar or array.
    """
    rs = ode_roots(op)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    lam_arr = perturb_collisions(lam_arr, rs.roots)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    v = backends.residue_fill(t_arr, lam_arr, rs.roots, rs.leading)
    return _squeeze_tl(v, t, lam)


def rfrf_ode1(t, params: Ode1Params, lam):
    """First-order response (exp(j*lam*t) - exp(-gamma*t)) / (gamma + j*lam)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    v = backends.ode1_fill(t_arr, lam_arr, params.gamma)
    return _squeeze_tl(v, t, lam)


def rfrf_ode2(t, params: Ode2Params, lam):
    """Second-order response (A1 e^{s1 t} + A2 e^{s2 t} + A3 e^{s3 t}) / m.

    s1, s2 are the system roots (real when overdamped, conjugate pair when
    underdamped) and s3 = j*lam; the A_p are the partial-fraction residues
    over all three roots.
    """
    s1, s2 = ode2_roots(params)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    lam_arr = perturb_collisions(lam_arr, np.array([s1, s2]))
    v = backends.ode2_fill(t_arr, lam_arr, params.mass, s1, s2)
    return _squeeze_tl(v, t, lam)


def latent_feature(t, lam):
    """Force-side feature exp(j*lam*t); unit modulus for real arguments."""
    return np.exp(1j * np.multiply(lam, t))


def _squeeze_tl(v, t, lam):
    t_scalar = np.asarray(t).ndim == 0
    lam_scalar = np.asarray(lam).ndim == 0
    if t_scalar and lam_scalar:
        return complex(v[0, 0])
    if t_scalar:
        return v[0]
    if lam_scalar:
        return v[:, 0]
    return v


# ---------------------------------------------------------------------------
# feature blocks and their assembly


def output_rows(output_ids):
    """Row indices of each output id present, in increasing id order."""
    output_ids = np.asarray(output_ids, dtype=int)
    return {int(d): np.flatnonzero(output_ids == d) for d in np.unique(output_ids)}


def feature_blocks(inputs, rows, spec, draws):
    """Unscaled feature blocks of every output d and force q.

    ``rows`` maps each output id d to its rows of ``inputs`` (see
    ``output_rows``).  Yields ((d, q), entry), where entry["v"] is the
    (len(rows[d]), S) block and entry["lam"] the frequencies it was filled
    at.  An LFM entry adds the operator's "roots" and "leading"
    coefficient; its frequencies are perturbed off the roots here, once,
    with a NumericsWarning per colliding block.  A MOGP entry adds
    "b" = |lam|^2 per sample.
    """
    if isinstance(spec, LfmSpec):
        for d, r in rows.items():
            rs = operator_roots(spec.outputs[d - 1])
            t = inputs[r]
            for q in range(1, spec.num_forces + 1):
                lam = force_frequencies(draws, q, spec.lengthscales[q - 1])
                lam = perturb_collisions(lam, rs.roots)
                v = backends.residue_fill(t, lam, rs.roots, rs.leading)
                yield (d, q), {"v": v, "lam": lam, "roots": rs.roots, "leading": rs.leading}
        return
    x = inputs[:, None] if inputs.ndim == 1 else inputs
    p = spec.input_dim
    for q in range(1, spec.num_forces + 1):
        lam = mogp_frequencies(draws, q, spec.lengthscales[q - 1])
        b = np.sum(lam * lam, axis=1)
        for d, r in rows.items():
            prec = spec.inv_widths[d - 1]
            amp = (2.0 * math.pi / prec) ** (p / 2.0) * np.exp(-b / (2.0 * prec))
            v = amp[None, :] * np.exp(1j * (x[r] @ lam.T))
            yield (d, q), {"v": v, "lam": lam, "b": b}


def write_phi_c(n, rows, spec, num_samples, blocks):
    """Real feature matrix Phi_c = [Re Phi, Im Phi], (n, 2QS), from blocks.

    ``blocks`` iterates ((d, q), entry) pairs as ``feature_blocks`` yields
    them.  Phi has force-major column blocks: column (q-1)*S + s holds
    sample s of force q, and block (d, q) enters output d's rows scaled by
    S_{d,q}/sqrt(S).
    """
    r = spec.num_forces * num_samples
    root_s = 1.0 / math.sqrt(num_samples)
    phi_c = np.zeros((n, 2 * r))
    for (d, q), entry in blocks:
        block = spec.sensitivities[d - 1, q - 1] * root_s * entry["v"]
        c0 = (q - 1) * num_samples
        phi_c[rows[d], c0 : c0 + num_samples] = block.real
        phi_c[rows[d], r + c0 : r + c0 + num_samples] = block.imag
    return phi_c
