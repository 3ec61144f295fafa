"""Spectral frequency sampling and random Fourier response features.

A response feature is the reaction of a stable linear ODE system to the
complex excitation exp(j*lam*t), integrated from rest at time 0.  For an
operator with Laplace-domain roots s_1..s_P and the extra excitation root
s_{P+1} = j*lam, the response is a partial-fraction sum of exponentials;
inner products of these features across sampled frequencies approximate the
model covariance.  The convolved MOGP's feature is a Gaussian amplitude
times exp(j*lam.x).

``sample_draws`` draws a spec's frequencies and ``check_draws`` is the one
check that draws fit a spec.  Feature blocks, for every model type, come
in two steps: ``block_params`` fixes the parameters of each (output,
force) block once per call in a ``ResponseBlock`` (which moves its
frequencies off the operator's roots) or ``MogpBlock``, whose ``fill``
fills given rows and whose ``grads`` turns per-column sums of dL/dPhi
over them into parameter slopes.  ``_output_blocks`` makes one block per
output that spans all forces, for the likelihood objective.
``write_phi_block`` places a block, or rows of it, into Phi_c, the real
view of Phi, whose layout ``force_columns`` and ``phi_c_width`` state.

Every other pass over rows of Phi_c goes through one function,
``run_chunks``: ``feature_matrix`` and ``mogp_feature_matrix`` (through
``assemble_phi_c``), ``likelihood.weight_posterior`` and the two
predictions.  It splits the rows into chunks of ``backends.CHUNK_ROWS``,
fills each chunk's rows (``phi_fill`` writes them from ``block_params``'
blocks) and hands them to a per-chunk ``work`` function, so no fill
temporary is larger than a chunk.  The calling thread and, when the
process may run on two CPUs, one helper thread take chunks in turn; the
fills and products that dominate a chunk release the interpreter lock,
so the two overlap.  A row has the same bits whichever chunk, block or
thread it is filled in, results reach the caller in chunk order, and so
every result is the same whatever the thread count.
"""

from __future__ import annotations

import contextvars
import itertools
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
    "block_params",
    "force_columns",
    "phi_c_width",
    "write_phi_block",
    "run_chunks",
    "phi_fill",
    "assemble_phi_c",
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

    def fill(self, x):
        return backends.residue_fill(x, self.lam, self.rs.roots, self.rs.leading)

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

    def fill(self, x):
        return backends.mogp_fill(x.reshape(x.shape[0], -1), self.lam, self.amp)

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


def block_params(outputs, spec, draws):
    """The feature block (d, q) of every output d in ``outputs``.

    Returns {(d, q): block}: a ``ResponseBlock`` for an LFM, from the
    operator's roots found once per output; a ``MogpBlock`` for a MOGP.
    Raises like ``check_draws`` for draws that do not fit ``spec``, and
    DataError for an output id outside 1..D.
    """
    _check_outputs(outputs, spec, draws)
    params = {}
    if isinstance(spec, LfmSpec):
        for d in outputs:
            rs = operator_roots(spec.outputs[d - 1])
            for q in range(1, spec.num_forces + 1):
                lam = force_frequencies(draws, q, spec.lengthscales[q - 1])
                params[(d, q)] = ResponseBlock(spec.outputs[d - 1], rs, lam)
        return params
    for q in range(1, spec.num_forces + 1):
        lam = mogp_frequencies(draws, q, spec.lengthscales[q - 1])
        for d in outputs:
            params[(d, q)] = MogpBlock.at(lam, spec.inv_widths[d - 1])
    return params


def _output_blocks(outputs, spec, draws):
    """One block per output d in ``outputs`` that spans all Q forces.

    Block d's columns are the frequencies of forces 1..Q in turn, so its
    fill is output d's rows of Phi in ``force_columns`` order, each force's
    columns unscaled by S_{d,q}/sqrt(S).  Raises like ``block_params``.
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


def force_columns(q, num_samples):
    """Force q's columns of Phi: column (q-1)*S + s holds its sample s.

    Phi_c, the real view of Phi, holds column k of Phi in columns 2k (Re)
    and 2k+1 (Im).
    """
    return slice((q - 1) * num_samples, q * num_samples)


def phi_c_width(num_forces, num_samples):
    """Columns of Phi_c: the real and imaginary parts of Q*S complex columns."""
    return 2 * num_forces * num_samples


def write_phi_block(out, rows, spec, num_samples, d, q, v):
    """Write block (d, q) of Phi into ``out[rows]``, rows of Phi_c.

    ``out.view(complex)`` is Phi, whose ``force_columns(q, S)`` the block
    fills, scaled by S_{d,q}/sqrt(S).  ``v`` is the unscaled block (a
    block's ``fill``, or a row slice of it) and ``rows`` indexes the rows
    of ``out`` it fills.
    """
    root_s = 1.0 / math.sqrt(num_samples)
    out.view(complex)[rows, force_columns(q, num_samples)] = (
        spec.sensitivities[d - 1, q - 1] * root_s * v)


def _helper_count():
    """Helper threads of ``run_chunks``: one when this process may run on two CPUs.

    One, not more: each chunk in flight holds a work array of its own.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return 1 if cpus >= 2 else 0


def run_chunks(n, width, fill, work=None, combine=None):
    """Fill and process an n-row pass in chunks of ``CHUNK_ROWS`` rows.

    For the chunk of rows ``sl`` the thread that takes it calls
    ``phi = fill(sl, buf)``, then ``work(sl, phi)``.  ``buf`` is that
    chunk's rows of the thread's own work array, (min(n, CHUNK_ROWS),
    width) and zeroed when the thread takes its first chunk, so ``fill``
    may write the chunk's Phi_c rows into it and return it (``width`` is
    0 when it writes them elsewhere); the rows are valid until that
    thread's next chunk.  The caller passes every ``work`` result to
    ``combine`` in chunk order, so a sum over chunks has the same bits
    whichever thread computed which chunk.

    The caller and ``_helper_count()`` helper threads take chunks in turn;
    a helper runs under a copy of the caller's ``contextvars`` context,
    so numpy's error state carries over.  An exception in any chunk stops
    the pass and is raised here, and no thread outlives the call.
    """
    step = backends.CHUNK_ROWS
    count = -(-n // step)
    claims = itertools.count()
    stop = threading.Event()
    done = {}
    combined = 0

    def drain():
        nonlocal combined
        while combined in done:
            result = done.pop(combined)
            combined += 1
            if combine is not None:
                combine(result)

    def take(after_chunk):
        buf = None
        try:
            while not stop.is_set() and (i := next(claims)) < count:
                if buf is None:
                    buf = np.zeros((min(n, step), width))
                sl = slice(i * step, min(n, i * step + step))
                phi = fill(sl, buf[: sl.stop - sl.start])
                done[i] = None if work is None else work(sl, phi)
                after_chunk()
        except BaseException:
            stop.set()
            raise

    helpers = min(_helper_count(), count - 1)
    if helpers < 1:
        take(drain)
        return
    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, take, lambda: None)
                   for _ in range(helpers)]
        take(drain)
    for future in futures:
        future.result()
    drain()


def phi_fill(inputs, output_ids, spec, draws):
    """A ``run_chunks`` fill that writes the chunk's rows of Phi_c.

    ``block_params`` runs here, in the calling thread, so the collision
    perturbation and its one warning happen once, before any chunk is
    filled.  The returned ``fill(sl, rows)`` writes rows ``sl`` of Phi_c
    for ``inputs`` and ``output_ids`` into ``rows``, output by output and
    ``backends.PIECE_ROWS`` rows at a time with ``write_phi_block``, and
    returns ``rows``; they equal the rows of each block filled over all
    its rows at once, bit for bit.
    """
    output_ids = np.asarray(output_ids, dtype=int)
    params = block_params(np.unique(output_ids).tolist(), spec, draws)
    s_count = draws.num_samples

    def fill(sl, rows):
        x = inputs[sl]
        for d, r in output_rows(output_ids[sl]).items():
            for lo in range(0, r.size, backends.PIECE_ROWS):
                part = r[lo : lo + backends.PIECE_ROWS]
                for q in range(1, spec.num_forces + 1):
                    write_phi_block(rows, part, spec, s_count, d, q,
                                    params[(d, q)].fill(x[part]))
        return rows

    return fill


def assemble_phi_c(inputs, output_ids, spec, draws):
    """Real feature matrix Phi_c, (N, 2QS), chunk by chunk; ``.view(complex)`` is Phi.

    DataError unless ``inputs`` fit the spec as ``model.validate_dataset``
    checks them: its ``check_inputs`` (times nonnegative scalars for an
    LFM, the spec's input dimension for a MOGP), and finite.
    """
    spec.check_inputs(inputs)
    if not np.all(np.isfinite(inputs)):
        raise DataError("inputs must be finite")
    phi_c = np.empty((len(output_ids), phi_c_width(spec.num_forces, draws.num_samples)))
    fill = phi_fill(inputs, output_ids, spec, draws)
    run_chunks(len(output_ids), 0, lambda sl, _: fill(sl, phi_c[sl]))
    return phi_c
