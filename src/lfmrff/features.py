"""Spectral frequency sampling and random Fourier response features.

A response feature is the reaction of a stable linear ODE system to the
complex excitation exp(j*lam*t), integrated from rest at time 0.  For an
operator with Laplace-domain roots s_1..s_P and the extra excitation root
s_{P+1} = j*lam, the response is a partial-fraction sum of exponentials;
inner products of these features across sampled frequencies approximate the
model covariance.  The convolved MOGP's feature is a Gaussian amplitude
times exp(j*lam.x).

``sample_draws`` draws a spec's frequencies and ``check_draws`` is the one
check that draws fit a spec.  Feature blocks, for every model type and
every pass, come from one constructor, ``output_blocks``: one block per
output that spans all Q forces, a ``ResponseBlock`` (which moves its
frequencies off the operator's roots) or a ``MogpBlock``, fixed once per
call.  A block's ``fill`` fills given rows of the output's features,
unscaled by the sensitivities, and its ``grads`` turns per-column sums of
dL/dPhi over them into parameter slopes.  ``write_phi_block`` scales an
output's fill by C_d, which holds S_{d,q}/sqrt(S) over force q's
columns, and places it into Phi_c, the real view of Phi, whose layout
``force_columns`` and ``phi_c_width`` state.

A block's fill over one input coordinate is an entire function of it,
so on a bounded span it equals its Chebyshev interpolant to rounding:
``chebyshev_coefficients`` samples it at Chebyshev nodes and says whether
it is resolved, and ``chebyshev_rows`` writes the basis at given inputs.
The likelihood objective reduces an output's rows in that basis, in place
of the fill, wherever it is resolved (see ``likelihood``), and prediction
predicts test rows and latent-force times in it (see ``predict``).

Every pass over rows, but prediction's rows in a Chebyshev basis, runs
on ``run_split``, which splits the pass's items by index parity between
the calling thread and, when the process may run on two CPUs and each
side has two items or more, one helper thread; otherwise the caller
takes both halves, each in the same order.  Each side holds its own work
arrays across its items.  The likelihood objective and
``likelihood.weight_posterior`` reduce the blocks themselves (see
``likelihood``) into sums kept per side, so those sums repeat bit for
bit.  ``kernels.feature_matrix`` (the one assembler of Phi_c, for either
model kind) takes pieces of each output's rows as its items, fills each
into its side's piece buffer and scatters it into Phi_c with
``write_phi_block``.  The rows the two predictions fill go through
``run_chunks``, which splits them into segments (one per filled output,
one for a latent force) and each segment into chunks of
``backends.CHUNK_ROWS`` from its first row, chunk i on side i % 2,
fills each chunk's rows in place into its side's work array and hands
them to a per-chunk ``work`` function, which writes only the chunk's
slice of its result; so no fill temporary is larger than a chunk.  The
fills and products that dominate an item release the interpreter lock,
so the two sides overlap.  A row has the same bits whichever chunk,
piece, buffer or thread it is filled in, so every result is the same
whatever the thread count.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import backends
from .model import DataError, LfmSpec, NumericalError, Ode1Params, OdeOperator

__all__ = [
    "NumericsWarning",
    "FrequencyDraws",
    "SpectralDraws",
    "RootSet",
    "sample_frequencies",
    "sample_spectral",
    "force_frequencies",
    "mogp_frequencies",
    "sample_draws",
    "check_draws",
    "operator_roots",
    "residue_coeffs",
    "rfrf_general",
    "output_rows",
    "ResponseBlock",
    "MogpBlock",
    "output_blocks",
    "force_columns",
    "phi_c_width",
    "output_scale",
    "write_phi_block",
    "chebyshev_nodes",
    "chebyshev_coefficients",
    "chebyshev_rows",
    "basis_degrees",
    "run_chunks",
    "run_split",
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


def sample_draws(spec, num_samples, seed):
    """The frequency draws of ``spec``'s kind (see ``check_draws``); reproducible from seed."""
    if isinstance(spec, LfmSpec):
        return sample_frequencies(num_samples, spec.num_forces, seed)
    return sample_spectral(num_samples, spec.num_forces, spec.input_dim, seed)


def check_draws(spec, draws):
    """TypeError unless ``draws`` are FrequencyDraws for an LFM or SpectralDraws
    for a MOGP; ValueError if their force count or input dimension differs."""
    lfm = isinstance(spec, LfmSpec)
    kind = FrequencyDraws if lfm else SpectralDraws
    if not isinstance(draws, kind):
        raise TypeError(f"{type(spec).__name__} needs {kind.__name__}, not {type(draws).__name__}")
    if not lfm and draws.input_dim != spec.input_dim:
        raise ValueError(f"draws have input_dim {draws.input_dim}, spec has {spec.input_dim}")
    if draws.num_forces != spec.num_forces:
        raise ValueError(f"draws carry {draws.num_forces} forces, spec has {spec.num_forces}")


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


def operator_roots(params) -> RootSet:
    """Characteristic roots and a_0 of an ODE1, ODE2 or general operator.

    ODE1 has the root -gamma.  ODE2 has the closed form -c/2m +- sqrt(c^2/4m^2
    - b/m), in that order; critical damping (coincident roots) is perturbed
    away by growing the spring constant by a relative 1e-6, with a
    NumericsWarning, and a discriminant that overflows (a vanishing mass)
    raises NumericalError.  A general operator's roots come from the
    companion matrix, each verified against the monic polynomial and sorted;
    repeated roots (up to the separation threshold) raise NumericalError.
    """
    if isinstance(params, Ode1Params):
        return RootSet([-params.gamma], 1.0)
    if isinstance(params, OdeOperator):
        roots = np.array(_roots_cached(params.coeffs), dtype=complex)
        _check_separation(roots, "operator_roots")
        return RootSet(roots, params.coeffs[0])
    m, c, b = params.mass, params.damper, params.spring
    half = c / (2.0 * m)

    def roots(b):
        disc = half * half - b / m
        if not math.isfinite(disc):
            raise NumericalError(
                f"ODE2 roots overflow: mass {m:.6g} is too small against "
                f"damper {c:.6g} and spring {b:.6g}"
            )
        root = np.sqrt(complex(disc))
        return -half + root, -half - root

    s1, s2 = roots(b)
    scale = 1.0 + max(abs(s1), abs(s2))
    if abs(s1 - s2) < SEPARATION_RTOL * scale:
        warnings.warn(
            "near-critical damping (c^2 ~ 4mb); perturbing spring constant "
            "by relative 1e-6 to keep the roots distinct",
            NumericsWarning,
            stacklevel=2,
        )
        s1, s2 = roots(b * (1.0 + 1e-6))
    return RootSet([s1, s2], m)


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


def _perturb_collisions(lam, roots):
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


def rfrf_general(t, params, lam):
    """Response of an operator to exp(j*lam*t), from rest at t=0.

    Equals (1/a_0) * sum_p A_p exp(s_p t) over the characteristic roots of
    ``operator_roots`` plus the excitation root j*lam, which matches the
    convolution of the Green's function with the excitation.  ``params``
    is an ODE1, ODE2 or general operator; ``t`` and ``lam`` may be scalars
    or arrays.
    """
    block = ResponseBlock(params, operator_roots(params), np.atleast_1d(lam))
    v = block.fill(np.atleast_1d(np.asarray(t, dtype=float)))
    return _squeeze_tl(v, t, lam)


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


@dataclass(frozen=True, eq=False)
class ResponseBlock:
    """An LFM block: operator ``op``'s unscaled response at frequencies ``lam``,
    which construction moves off the roots ``rs`` of ``op`` (a ``RootSet``)."""

    op: object
    rs: RootSet
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", _perturb_collisions(self.lam, self.rs.roots))

    def fill(self, x, out=None):
        return backends.residue_fill(x, self.lam, self.rs.roots, self.rs.leading, out)

    def row_weights(self, x):
        """[E | tE] for E = e^{s_p t}: the rows ``grads`` needs ``ht`` against."""
        return backends.root_exponentials(x, self.rs.roots)

    def grads(self, hv, hvx, ht):
        """(d/d(packed head slots), d/dlog ell per column) from column sums of h.

        h = conj(dL/dv) on the block's unscaled features v at inputs x, and
        hv = colsum(h v), hvx[0] = colsum(h t v) and ht = row_weights(x)^T h
        are its sums over the block's rows.
        """
        rs = self.rs
        p_count = rs.roots.size
        _, dcoeffs, dl = backends.residue_algebra(
            self.lam, rs.roots, rs.leading, ht[:p_count], ht[p_count:], hv, hvx[0])
        # lam = sqrt(2) z / ell, so dlam/dlog ell = -lam
        return self.op.packed_gradient(dcoeffs), -dl * self.lam


@dataclass(frozen=True, eq=False)
class MogpBlock:
    """A MOGP block amp exp(j x.lam): ``lam`` (S, p), b = |lam|^2, inverse width
    ``prec`` = P_d and amp = (2 pi / P_d)^(p/2) exp(-b / (2 P_d))."""

    lam: np.ndarray
    b: np.ndarray
    amp: np.ndarray
    prec: float

    @classmethod
    def at(cls, lam, prec):
        """The block of frequencies ``lam`` for an output of inverse width ``prec``."""
        b = np.sum(lam * lam, axis=1)
        amp = (2.0 * math.pi / prec) ** (lam.shape[1] / 2.0) * np.exp(-b / (2.0 * prec))
        return cls(lam, b, amp, prec)

    def fill(self, x, out=None):
        return backends.mogp_fill(x.reshape(x.shape[0], -1), self.lam, self.amp, out)

    def grads(self, hv, hvx, ht):
        """As ``ResponseBlock.grads``, with hvx[j] = colsum(h v x_j); ``ht`` is
        None, as a MOGP block has no ``row_weights``."""
        # v = amp(|lam|^2, P_d) exp(j x.lam): dv/dlog P_d = v (b/(2 P_d) - p/2)
        # and dv/dlog ell = v (b/P_d - j x.lam), so colsum(h v) and
        # colsum(h v x_j) are all the data-sized work.
        hv = hv.real
        d_width = float(hv @ (self.b / (2.0 * self.prec) - 0.5 * self.lam.shape[1]))
        dlogell = hv * (self.b / self.prec) + np.sum(self.lam.T * hvx.imag, axis=0)
        return np.array([d_width]), dlogell


def output_blocks(outputs, spec, draws):
    """The feature block of every output d in ``outputs``: {d: block}.

    Block d spans all Q forces: its columns are the frequencies of forces
    1..Q in turn, so its fill is output d's rows of Phi in
    ``force_columns`` order, unscaled by the sensitivities (see
    ``write_phi_block``).  It is a ``ResponseBlock`` for an LFM, from the
    operator's roots, and a ``MogpBlock`` for a MOGP.  Raises like
    ``check_draws`` for draws that do not fit ``spec``, and DataError for
    an output id outside 1..D.
    """
    _check_outputs(outputs, spec, draws)
    if isinstance(spec, LfmSpec):
        lam = np.concatenate([force_frequencies(draws, q, spec.lengthscales[q - 1])
                              for q in range(1, spec.num_forces + 1)])
        return {d: ResponseBlock(spec.outputs[d - 1], operator_roots(spec.outputs[d - 1]), lam)
                for d in outputs}
    lam = np.concatenate([mogp_frequencies(draws, q, spec.lengthscales[q - 1])
                          for q in range(1, spec.num_forces + 1)])
    return {d: MogpBlock.at(lam, spec.inv_widths[d - 1]) for d in outputs}


def _check_outputs(outputs, spec, draws):
    check_draws(spec, draws)
    bad = [d for d in outputs if not 1 <= d <= spec.num_outputs]
    if bad:
        raise DataError(f"output_id {bad[0]} outside 1..{spec.num_outputs}")


# ---------------------------------------------------------------------------
# Chebyshev bases of one-dimensional inputs
#
# A block's fill over one input coordinate is an entire function of it: a
# residue sum of exponentials, or a Gaussian amplitude times e^{j lam x}.
# On an output's span [lo, hi] it therefore equals, to rounding, its
# n-term Chebyshev interpolant B Z, where row i of B holds T_0..T_{n-1}
# at u_i = 2 (x_i - lo) / (hi - lo) - 1 and Z is n x R.  The n it takes
# grows with |lam| (hi - lo) and the roots' |s| (hi - lo), not with R.

# The degrees n tried in turn; the first that resolves a block is taken.
CHEBYSHEV_DEGREES = (32, 48, 64, 96)
# A block is resolved at degree n when, in every column of Z, the last
# CHEBYSHEV_TAIL coefficients are at most CHEBYSHEV_RTOL times the
# column's largest.  A resolved column's last coefficients sit at its
# rounding, 10 to 60 eps on the cases measured; where a block passed, the
# objective's sums came within 1.6e-14 of the direct fill's, relative to
# the Cauchy-Schwarz bounds on their entries (README, Numerical notes).
CHEBYSHEV_TAIL = 4
CHEBYSHEV_RTOL = 1024 * np.finfo(float).eps
# An output is reduced in a Chebyshev basis of n columns only if it has at
# least this many times n rows (see ``basis_degrees``).
BASIS_ROWS_PER_DEGREE = 6


def basis_degrees(x, width):
    """The degrees k of a Chebyshev basis that rows at inputs ``x``, ``width`` columns wide, may take.

    Only one-dimensional inputs with a span [lo, hi] take a basis, and only
    where 2/(hi - lo), the scale of ``chebyshev_rows``, is finite: a
    subnormal span would map its rows to inf or NaN.  The degrees are those
    of ``CHEBYSHEV_DEGREES`` of at most ``width``/2, and only with
    ``BASIS_ROWS_PER_DEGREE`` k rows or more, so that the basis costs less
    than the fill.  The objective's sums (``likelihood._OutputSums``) and
    prediction (``predict``) share this rule.
    """
    span = float(x.max() - x.min()) if x.size else 0.0
    if (x.ndim > 1 and x.shape[1] != 1) or not (span > 0.0 and math.isfinite(2.0 / span)):
        return ()
    return tuple(k for k in CHEBYSHEV_DEGREES
                 if k <= width // 2 and BASIS_ROWS_PER_DEGREE * k <= x.size)


@lru_cache(maxsize=8)
def chebyshev_nodes(n):
    """(u_k, (2/n) T_j(u_k)) at the n Chebyshev points of the first kind.

    u_k = cos(pi (k + 1/2) / n), k < n, and the second array is (n, n),
    row k, column j.  Both are read-only.
    """
    angles = np.pi * (np.arange(n) + 0.5) / n
    nodes, scaled = np.cos(angles), (2.0 / n) * np.cos(np.outer(angles, np.arange(n)))
    nodes.flags.writeable = scaled.flags.writeable = False
    return nodes, scaled


def chebyshev_coefficients(values, lo, hi, degrees):
    """Z of ``values`` on [lo, hi] at the first degree of ``degrees`` that resolves it.

    ``values(x)`` returns real columns at inputs x, such as a block's fill
    in its real view.  They are sampled at the n Chebyshev nodes mapped to
    [lo, hi], F, and Z = (2/n) V^T F with its first row halved, so that
    ``values(x)`` = B(x) Z, to rounding where it is resolved (see
    ``chebyshev_rows``).  Returns None when no degree resolves every
    column or when a sample is not finite; ``values`` runs with
    floating-point errors ignored, so the caller's error state applies to
    a fill of the rows themselves.
    """
    for n in degrees:
        nodes, scaled = chebyshev_nodes(n)
        with np.errstate(all="ignore"):
            f = values(lo + (0.5 * (hi - lo)) * (nodes + 1.0))
        if not np.all(np.isfinite(f)):
            return None
        z = scaled.T @ f
        z[0] *= 0.5
        size = np.abs(z)
        if np.all(size[-CHEBYSHEV_TAIL:].max(axis=0) <= CHEBYSHEV_RTOL * size.max(axis=0)):
            return z
    return None


def chebyshev_rows(x, lo, hi, out):
    """Write T_k(u) at u = 2 (x - lo) / (hi - lo) - 1 into ``out[k]``, for k < len(out).

    ``out`` is a C-contiguous (n, len(x)) array, n >= 2, so ``out.T`` is
    B.  Given T_0..T_m, the product rule 2 T_m T_j = T_{m+j} + T_{m-j}
    gives T_{m+1}..T_{2m} in three array operations, so n rows take about
    3 log2(n) calls whose loops release the interpreter lock, where the
    three-term recurrence takes 2n short ones that two threads contend
    for.  Against a long-double recurrence the rows are within 7.4e-14 at
    n = 49 and 2.9e-13 at n = 97 (the three-term recurrence: 4.2e-14 and
    8.8e-14); the larger errors fall on the high T_k, whose coefficients
    are at rounding in a resolved block.  Returns ``out``.
    """
    u = out[1]
    np.subtract(x, lo, out=u)
    u *= 2.0 / (hi - lo)
    u -= 1.0
    out[0] = 1.0
    m = 1  # T_0..T_m are written
    while m < out.shape[0] - 1:
        j = min(m, out.shape[0] - 1 - m)
        ahead = out[m + 1 : m + 1 + j]
        np.multiply(out[m], out[1 : j + 1], out=ahead)
        ahead *= 2.0
        ahead -= out[m - j : m][::-1]
        m += j
    return out


def force_columns(q, num_samples):
    """Force q's columns of Phi: column (q-1)*S + s holds its sample s.

    Phi_c, the real view of Phi, holds column k of Phi in columns 2k (Re)
    and 2k+1 (Im).
    """
    return slice((q - 1) * num_samples, q * num_samples)


def phi_c_width(num_forces, num_samples):
    """Columns of Phi_c: the real and imaginary parts of Q*S complex columns."""
    return 2 * num_forces * num_samples


def output_scale(spec, num_samples, d):
    """C_d over the columns of Phi: S_{d,q}/sqrt(S) over force q's ``force_columns(q, S)``."""
    return np.repeat(spec.sensitivities[d - 1] * (1.0 / math.sqrt(num_samples)), num_samples)


def write_phi_block(out, rows, spec, num_samples, d, v):
    """Write output d's block of Phi into ``out[rows]``, rows of Phi_c.

    ``v`` is the unscaled fill of d's ``output_blocks`` block, or a row
    slice of it; ``rows`` indexes the rows of ``out`` it fills.  It is
    scaled in place by C_d (``output_scale``) and written to
    ``out.view(complex)``, which is Phi.
    """
    v *= output_scale(spec, num_samples, d)
    out.view(complex)[rows] = v


# ``run_split`` starts its helper only for a pass of this many items or
# more, two a side.  With one item a side the thread cost more than it
# saved on the criterion 6 spec (R = 200, one BLAS thread, 2-vCPU VM):
# 3.50 against 3.03 ms at N = 200, 3.70 against 3.36 ms at N = 2000
# (README, Numerical notes).  No benchmark workload has a pass of two or
# three items, so the benchmark does not measure this gain.
SPLIT_MIN_ITEMS = 4


def _helper_count():
    """Helper threads of ``run_split``: one when this process may run on two CPUs.

    One, not more: each side of the split holds work arrays of its own.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return 1 if cpus >= 2 else 0


def run_chunks(sizes, width, fill, work):
    """Fill and process a pass over consecutive segments of ``sizes`` rows in chunks, on ``run_split``.

    Each segment is cut into chunks of ``CHUNK_ROWS`` rows from its own
    first row, so no chunk spans two segments, and chunk i of the pass
    goes to side i % 2.  For the chunk of rows ``sl`` its side calls
    ``phi = fill(sl, buf)``, then ``work(sl, phi)``.  ``buf`` is that
    chunk's rows of the side's own uninitialised work array, (longest
    chunk, ``width``), so ``fill`` writes every column of the chunk's rows
    into it and returns it, or a view of it; the rows are valid until that
    side's next chunk.  The two sides may run at once, so ``work`` writes
    only what belongs to its chunk, such as the chunk's slice of an output.
    """
    step = backends.CHUNK_ROWS
    chunks, start = [], 0
    for size in sizes:
        stop = start + size
        chunks += [slice(lo, min(stop, lo + step)) for lo in range(start, stop, step)]
        start = stop
    longest = min(step, max(sizes, default=0))
    bufs = [np.empty((longest, width)) for _ in range(min(2, len(chunks)))]

    def chunk(side, i):
        sl = chunks[i]
        work(sl, fill(sl, bufs[side][: sl.stop - sl.start]))

    run_split(len(chunks), chunk)


def run_split(count, work):
    """Call ``work(side, i)`` for the items i < ``count``, split by parity: side = i % 2.

    The caller takes the even items in order and, when ``_helper_count()``
    allows and ``count`` is at least ``SPLIT_MIN_ITEMS``, one helper thread
    takes the odd items; otherwise the caller takes the odd items after the
    even ones.  Each side runs its items in the same order either way, so
    sums kept per side have the same bits whatever the thread count.  The helper runs under a copy of the
    caller's ``contextvars`` context, so numpy's error state carries over.
    An exception on either side stops both and is raised here, the
    caller's first, and no thread outlives the call.
    """
    stop = threading.Event()

    def side(k):
        try:
            for i in range(k, count, 2):
                if stop.is_set():
                    return
                work(k, i)
        except BaseException:
            stop.set()
            raise

    if count < SPLIT_MIN_ITEMS or _helper_count() < 1:
        side(0)
        side(1)
        return
    with ThreadPoolExecutor(1) as pool:
        helper = pool.submit(contextvars.copy_context().run, side, 1)
        side(0)
    helper.result()

