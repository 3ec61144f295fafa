"""Spectral frequency sampling and random Fourier response features.

A response feature is the reaction of a stable linear ODE system to the
complex excitation exp(j*lam*t), integrated from rest at time 0.  For an
operator with Laplace-domain roots s_1..s_P and the extra excitation root
s_{P+1} = j*lam, the response is a partial-fraction sum of exponentials;
inner products of these features across sampled frequencies approximate the
model covariance.  The convolved MOGP's feature is a Gaussian amplitude
times exp(j*lam.x).

Feature blocks, for every model type, come in two steps:
``block_params`` fixes the parameters of each (output, force) block once
per call (frequencies, their collision perturbation and its one warning,
roots and a_0 or the MOGP amplitude), and ``fill_block`` fills given rows.
``write_phi_block`` is the one writer that places a block, or rows of it,
into Phi_c, the real view of Phi.  ``feature_blocks`` fills whole blocks
for the likelihood objective.

Every other pass over rows of Phi_c goes through one function,
``run_chunks``: ``feature_matrix`` and ``mogp_feature_matrix`` (through
``assemble_phi_c``), ``likelihood.weight_posterior`` and the two
predictions.  It splits the rows into chunks of ``backends.CHUNK_ROWS``,
fills each chunk's rows (``phi_fill`` writes them from ``block_params``'
entries) and hands them to a per-chunk ``work`` function, so no fill
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
from .model import DataError, LfmSpec, NumericalError, Ode1Params, Ode2Params, OdeOperator

__all__ = [
    "NumericsWarning",
    "FrequencyDraws",
    "SpectralDraws",
    "RootSet",
    "sample_frequencies",
    "sample_spectral",
    "force_frequencies",
    "mogp_frequencies",
    "operator_roots",
    "residue_coeffs",
    "rfrf_general",
    "rfrf_ode1",
    "rfrf_ode2",
    "perturb_collisions",
    "output_rows",
    "block_params",
    "fill_block",
    "feature_blocks",
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


def rfrf_general(t, params, lam):
    """Response of an operator to exp(j*lam*t), from rest at t=0.

    Equals (1/a_0) * sum_p A_p exp(s_p t) over the characteristic roots of
    ``operator_roots`` plus the excitation root j*lam, which matches the
    convolution of the Green's function with the excitation.  ``params``
    is an ODE1, ODE2 or general operator; ``t`` and ``lam`` may be scalars
    or arrays.
    """
    rs = operator_roots(params)
    lam_arr = perturb_collisions(np.atleast_1d(np.asarray(lam, dtype=float)), rs.roots)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    v = backends.residue_fill(t_arr, lam_arr, rs.roots, rs.leading)
    return _squeeze_tl(v, t, lam)


def rfrf_ode1(t, params: Ode1Params, lam):
    """First-order response (exp(j*lam*t) - exp(-gamma*t)) / (gamma + j*lam)."""
    return rfrf_general(t, params, lam)


def rfrf_ode2(t, params: Ode2Params, lam):
    """Second-order response (A1 e^{s1 t} + A2 e^{s2 t} + A3 e^{s3 t}) / m.

    s1, s2 are the system roots (real when overdamped, conjugate pair when
    underdamped) and s3 = j*lam; the A_p are the partial-fraction residues
    over all three roots.
    """
    return rfrf_general(t, params, lam)


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


def block_params(outputs, spec, draws):
    """Parameters of the feature block (d, q) of every output d in ``outputs``.

    Returns {(d, q): entry}, where entry["lam"] holds the frequencies the
    block is filled at.  An LFM entry adds the operator's "roots" and
    "leading" coefficient; its frequencies are perturbed off the roots
    here, once, with a NumericsWarning per colliding block.  A MOGP entry
    adds "b" = |lam|^2 and the Gaussian amplitude "amp" per sample.
    Raises DataError for an output id outside 1..D.
    """
    bad = [d for d in outputs if not 1 <= d <= spec.num_outputs]
    if bad:
        raise DataError(f"output_id {bad[0]} outside 1..{spec.num_outputs}")
    params = {}
    if isinstance(spec, LfmSpec):
        for d in outputs:
            rs = operator_roots(spec.outputs[d - 1])
            for q in range(1, spec.num_forces + 1):
                lam = force_frequencies(draws, q, spec.lengthscales[q - 1])
                lam = perturb_collisions(lam, rs.roots)
                params[(d, q)] = {"lam": lam, "roots": rs.roots, "leading": rs.leading}
        return params
    p = spec.input_dim
    for q in range(1, spec.num_forces + 1):
        lam = mogp_frequencies(draws, q, spec.lengthscales[q - 1])
        b = np.sum(lam * lam, axis=1)
        for d in outputs:
            prec = spec.inv_widths[d - 1]
            amp = (2.0 * math.pi / prec) ** (p / 2.0) * np.exp(-b / (2.0 * prec))
            params[(d, q)] = {"lam": lam, "b": b, "amp": amp}
    return params


def fill_block(x, entry):
    """Unscaled feature block of ``block_params``' entry at inputs ``x``."""
    if "roots" in entry:
        return backends.residue_fill(x, entry["lam"], entry["roots"], entry["leading"])
    return backends.mogp_fill(x.reshape(x.shape[0], -1), entry["lam"], entry["amp"])


def feature_blocks(inputs, rows, spec, draws):
    """Unscaled feature blocks of every output d and force q.

    ``rows`` maps each output id d to its rows of ``inputs`` (see
    ``output_rows``).  Yields ((d, q), entry): the ``block_params`` entry
    plus "v", the (len(rows[d]), S) block filled at those rows.
    """
    for (d, q), entry in block_params(rows, spec, draws).items():
        yield (d, q), {**entry, "v": fill_block(inputs[rows[d]], entry)}


def write_phi_block(out, rows, spec, num_samples, d, q, v):
    """Write block (d, q) of Phi into ``out[rows]``, rows of Phi_c.

    Phi_c is the real view of Phi: column 2k holds Re Phi[:, k] and
    column 2k+1 Im Phi[:, k], so ``out.view(complex)`` is Phi.  ``v`` is
    the unscaled block (``feature_blocks``' entry["v"], or a row slice of
    it) and ``rows`` indexes the rows of ``out`` it fills.  Phi has
    force-major column blocks: column (q-1)*S + s holds sample s of force
    q, and the block enters scaled by S_{d,q}/sqrt(S).
    """
    root_s = 1.0 / math.sqrt(num_samples)
    cols = slice((q - 1) * num_samples, q * num_samples)
    out.view(complex)[rows, cols] = spec.sensitivities[d - 1, q - 1] * root_s * v


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
    returns ``rows``; they equal the rows of the blocks ``feature_blocks``
    fills at once, bit for bit.
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
                                    fill_block(x[part], params[(d, q)]))
        return rows

    return fill


def assemble_phi_c(inputs, output_ids, spec, draws):
    """Real feature matrix Phi_c, (N, 2QS), chunk by chunk; ``.view(complex)`` is Phi."""
    phi_c = np.empty((len(output_ids), 2 * spec.num_forces * draws.num_samples))
    fill = phi_fill(inputs, output_ids, spec, draws)
    run_chunks(len(output_ids), 0, lambda sl, _: fill(sl, phi_c[sl]))
    return phi_c
