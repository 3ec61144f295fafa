"""Log marginal likelihood, analytic gradients, and hyperparameter fitting.

The low-rank evaluation rewrites the usual GP objective through the matrix
inversion and determinant lemmas around A = I + Phi_c^T Sigma^-1 Phi_c,
so cost is linear in the number of observations at fixed feature count.
The data-fit term is y^T beta with beta = (K + Sigma)^-1 y.  When the
residuals y - Phi_c m are near the noise level, that term is a small
difference of large sums.  The objective takes it from sums over the rows
(yy - a^T C m, below), which round worse at the noise floor than the
residuals y - Phi_c m that ``low_rank_log_marginal`` reads.  On data
drawn from the features (200 rows, R=40, data seeds 0-7), against a
50-digit reference, the objective was within 2.4e-9 relative at the floor
(1e-8) and 1.0e-11 at noise 1e-6; ``low_rank_log_marginal`` within 1.3e-9
and 1.9e-11; the two-pass objective of version 0.5.0, which read the
residuals, within 5.4e-10 and 9.0e-12.

The objective and ``weight_posterior`` read the same blocks, one per
output spanning all Q forces, from ``features.output_blocks``, in one
pass (``LmlObjective._factor``): the weight posterior that prediction
reads is the objective's value sums, A and alpha, plus A's Cholesky
factor, so it forms no Phi_c.  ``low_rank_log_marginal`` accumulates A
over chunks of ``backends.CHUNK_ROWS`` rows of the Phi_c it is given.

The objective makes one pass over each output's rows, ``CHUNK_ROWS`` at
a time, and reduces them to the output's R x R sums (``_OutputSums``):
the Gram G = psi^T psi and a = psi^T y for the value, and for the
gradient the same sums weighted by each input coordinate and the rows'
e^{s_p t} terms, psi being the output's block unscaled by the
sensitivities.  An output with one input dimension (every LFM output, a
MOGP's when p = 1) is reduced, in an evaluation where its block is
resolved on its span, in a Chebyshev basis of that span: psi = B Z to
rounding, with B's k columns T_0..T_{k-1} (k at most R/2) and Z from
the block sampled at k Chebyshev nodes (``features.chebyshev_coefficients``).
Its chunks then add only the Gram of T_0..T_k and its sum against y,
k^2/2 products a row where the fill and its Grams take about 12 passes
over R/2 complex columns and (1 + p) R^2/2 products, and every R x R sum
follows from them and Z (``_OutputSums._map``).  Otherwise, and for a
MOGP over two or more dimensions, each chunk is filled once and added
itself.  Which outputs take the basis is decided on the calling thread
before the pass, per evaluation.  The pass's items, each output's chunks
in turn, are split by index parity (``features.run_split``): the calling
thread adds the even items into one set of sums and, when the process
may run on two CPUs, a helper thread adds the odd items into another,
each with its own chunk work arrays; on one CPU the caller adds both
halves in the same order.  An output's two partial sums are then added
in that fixed order, so every result has the same bits on one CPU and on
two.  The Grams are numpy products, which run as a SYRK without the
interpreter lock, so the two threads overlap.  An output holds 1 + p
Grams of R x R (p the input dimension), twice if its chunks fall on both
sides, and no array that grows with its rows, so the objective's memory
is flat in N at a fixed number of outputs D but grows with D; the Grams
save work and memory only where an output has many more rows than R (see
README, Numerical notes).  A, alpha and the data-fit term follow from G
and a; A is factored with LAPACK potrf, m = A^-1
alpha solved with potrs, and the gradient takes A^-1 from potri.  It uses
dL/dPhi_c = beta m^T - Sigma^-1 Phi_c A^-1, whose complex view is dL/dPhi
as Phi_c is the real view of Phi.  With beta = Sigma^-1 (y - Phi_c m) it
is linear in y and Phi_c, so each per-column sum that a block's ``grads``
reads (colsum(h v), colsum(h v x_j) and the root terms, h =
conj(dL/dPhi)) is a column-wise dot of a Gram with C M, for M = m m^T +
A^-1 the weights' posterior second moment: an O(R^2) step per Gram that
reads no row again.  A block's ``grads`` then
reduces those sums to its parameters' slopes: ``backends.residue_algebra``
for an LFM block of any operator order, through the characteristic
roots, and the chain rules through the frequency reparameterization
lam = sqrt(2) z / ell, the packed head slots (each operator's
``packed_gradient``, see ``model``, or a MOGP's log inverse width), the
log-transformed parameters and the per-output noise variances.  The Grams
are of the unscaled features, so no step divides by a sensitivity, and
the slope at a zero sensitivity is exact.

``optimize`` maximizes the objective over the packed parameters with
scipy's L-BFGS-B, one ``value_and_gradient`` per evaluation, and stops on
the 2-norm of the gradient.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from . import backends
from .features import (
    NumericsWarning,
    basis_degrees,
    chebyshev_coefficients,
    chebyshev_rows,
    check_draws,
    output_blocks,
    output_rows,
    phi_c_width,
    # not used here: kept for the benchmark's tracer, which wraps this name;
    # delete with ROADMAP item 1
    rfrf_general,
    run_split,
)
from .kernels import FeatureMatrix
from .model import (
    DataError,
    Dataset,
    NumericalError,
    HyperParamVector,
    NOISE_FLOOR,
    pack,
    unpack,
    validate_dataset,
)

__all__ = [
    "WeightPosterior",
    "FitResult",
    "OptimizerConfig",
    "LmlObjective",
    "noise_vector",
    "full_log_marginal",
    "low_rank_log_marginal",
    "weight_posterior",
    "optimize",
]

LOG_2PI = math.log(2.0 * math.pi)


def noise_vector(spec, output_ids) -> np.ndarray:
    """Per-row noise variances sigma_d^2 picked by each row's output id."""
    return spec.noise_vars[np.asarray(output_ids, dtype=int) - 1]


# ---------------------------------------------------------------------------
# likelihood evaluations


@dataclass(frozen=True, eq=False)
class WeightPosterior:
    """Posterior N(A^-1 alpha, A^-1) of the feature weights.

    alpha = Phi_c^T Sigma^-1 y and chol_a is the lower Cholesky factor of
    A = I + Phi_c^T Sigma^-1 Phi_c (symmetric positive definite): all that
    prediction reads.
    """

    alpha: np.ndarray
    chol_a: np.ndarray

    def solve_a(self, b):
        """A^-1 b."""
        return cho_solve((self.chol_a, True), b)


# Kept for the benchmark's tracer, which wraps ``LowRankState.solve_a``;
# delete with ROADMAP item 1.
LowRankState = WeightPosterior


def _cholesky(a):
    """potrf's lower factor of A, upper triangle zero; in place when ``a`` is Fortran-ordered.

    Reads only the lower triangle of ``a``.  Raises NumericalError when Phi
    is not finite or A is not positive definite.
    """
    # a non-finite entry of Phi makes its column's diagonal of A non-finite
    if not np.all(np.isfinite(np.diag(a))):
        raise NumericalError("feature matrix Phi is not finite")
    chol, info = dpotrf(a, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(
            f"A = I + Phi^T Sigma^-1 Phi not SPD: {info}-th leading minor of the array "
            "is not positive definite"
        )
    return chol


def _lml(data_fit, chol, log_noise, n):
    """Log marginal likelihood of n rows given y^T beta, chol(A) and sum_i log sigma_i^2."""
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (data_fit + log_det + log_noise + n * LOG_2PI)


def low_rank_log_marginal(phi, noise, y):
    """Log marginal likelihood of y under N(0, Phi_c Phi_c^T + Sigma).

    ``phi`` is a ``kernels.FeatureMatrix`` or the (N, R) array Phi_c.
    Returns (value, WeightPosterior).  Cost is O(N R^2) for R = 2QS feature
    columns; A is accumulated over chunks of ``backends.CHUNK_ROWS`` rows,
    so no N x N or N x R array is formed besides Phi_c.  Raises NumericalError
    when Phi is not finite or A is not positive definite.
    """
    phi_c = phi.phi_c if isinstance(phi, FeatureMatrix) else np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    noise = np.asarray(noise, dtype=float)
    n = y.size
    if phi_c.shape[0] != n or noise.shape != (n,):
        raise ValueError("phi, noise and y must agree on the number of rows")
    if np.any(noise <= 0):
        raise ValueError("noise variances must be positive")
    sinv = 1.0 / noise
    root = np.sqrt(sinv)
    r2 = phi_c.shape[1]
    a = np.zeros((r2, r2))
    alpha = np.zeros(r2)
    for lo in range(0, n, backends.CHUNK_ROWS):
        sl = slice(lo, lo + backends.CHUNK_ROWS)
        w = phi_c[sl] * root[sl, None]  # rows of Sigma^-1/2 Phi_c
        a += w.T @ w  # numpy runs W^T W as a SYRK
        alpha += w.T @ (root[sl] * y[sl])
    a[np.diag_indices(r2)] += 1.0
    chol = _cholesky(0.5 * (a + a.T))
    beta = sinv * (y - phi_c @ cho_solve((chol, True), alpha))
    value = _lml(float(y @ beta), chol, float(np.sum(np.log(noise))), n)
    return value, WeightPosterior(alpha, np.tril(chol))


def weight_posterior(data: Dataset, spec, draws) -> WeightPosterior:
    """Posterior of the feature weights of ``spec`` given ``data``, without Phi_c.

    A and alpha come from the objective's pass (``LmlObjective``, value
    sums only): each output's rows reduced to its Grams, on the caller and
    a helper thread, then scaled and summed.  So neither Phi_c nor beta is
    formed, and the result has the same bits on one CPU and on two; it
    differs from ``low_rank_log_marginal``'s over the whole Phi_c only in
    rounding.  Raises DataError for data that do not fit ``spec`` and
    NumericalError like ``low_rank_log_marginal``.
    """
    _, chol, alpha = LmlObjective(data, spec, draws)._factor(spec, gradient=False)
    return WeightPosterior(alpha, chol)


def full_log_marginal(cov, noise, y):
    """Dense-matrix log marginal likelihood; the O(N^3) reference path."""
    y = np.asarray(y, dtype=float)
    noise = np.asarray(noise, dtype=float)
    m = np.asarray(cov, dtype=float) + np.diag(noise)
    try:
        chol, _ = cho_factor(m, lower=True)
    except LinAlgError as exc:
        raise NumericalError(f"K + Sigma not positive definite: {exc}") from None
    half_solve = cho_solve((chol, True), y)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (float(y @ half_solve) + log_det + y.size * LOG_2PI)


# ---------------------------------------------------------------------------
# packed-space objective with analytic gradient


class _Work:
    """One side's chunk work arrays: the fill, its weighted rows and, for a
    side that adds chunks to sums already started, one Gram product.  A
    chunk's Chebyshev rows and their Gram product take the leading parts
    of the last two."""

    def __init__(self, step, r2, adds):
        self.fill = np.empty((step, r2 // 2), dtype=complex)
        self.rows = np.empty((step, r2))
        self.gram = np.empty((r2, r2)) if adds else None


class _Part:
    """The sums over one side's chunks of an output's rows (see ``_OutputSums``).

    ``grams`` holds psi's R x R Grams, and ``basis`` the memory of the one
    Gram of Chebyshev rows of an output whose basis may have up to
    ``degree`` columns.
    """

    def __init__(self, r2, count, degree):
        self.grams = np.empty((count, r2, r2))
        self.basis = np.empty((degree + 1) ** 2) if degree else None
        self.a = self.grad_sums = None  # set by the side's first chunk

    def grams_of(self, z):
        """The Grams of the rows that this evaluation adds: psi's if ``z`` is None,
        else the one Gram of T_0..T_k, for ``z`` of k rows."""
        if z is None:
            return self.grams
        return _leading(self.basis, 1, z.shape[0] + 1, z.shape[0] + 1)


def _leading(array, *shape):
    """The first prod(shape) elements of ``array``'s memory, as a C-contiguous array of ``shape``."""
    return array.reshape(-1)[: math.prod(shape)].reshape(shape)


def _add_gram(gram, w, first, tmp):
    """``gram`` = w^T w for the side's first chunk, else ``gram`` += w^T w.

    numpy runs w^T w as a SYRK, fills both triangles and releases the
    interpreter lock; ``tmp`` is a work array at least ``gram``'s size.
    """
    if first:
        np.matmul(w.T, w, out=gram)
    else:
        np.add(gram, np.matmul(w.T, w, out=_leading(tmp, *gram.shape)), out=gram)


def _map_gram(out, mapped):
    """``out`` = (``mapped`` + ``mapped``^T) / 2, symmetric to the bit."""
    np.add(mapped, mapped.T, out=out)
    out *= 0.5


class _OutputSums:
    """Sums over one output's rows of psi, the output's unscaled features.

    psi is the fill of the output's ``features.output_blocks`` block in
    Phi_c's real column layout, without the factors S_dq/sqrt(S): Phi_c's
    rows of output d are psi C_d.  The value reads the Gram G = psi^T psi,
    a = psi^T y, yy = y^T y and the row count n.  The gradient also reads,
    for each input dimension j, Gx_j = sum_i (x_ij - x0_j) psi_i^T psi_i
    (x0_j the output's least x_j, so each row's weight has a real square
    root) and ax_j = sum_i x_ij y_i psi_i, and, for a block with
    ``row_weights`` Omega, Omega^T psi and Omega^T y.

    The rows are added a chunk at a time (``add``), each chunk into the
    ``_Part`` of its side, one of ``sides``; a part's ``grams`` holds G and
    the Gx_j in turn, each full and symmetric.  ``merge`` then adds the
    parts in side order.

    An output with one input dimension, its rows spanning [x0, x1] with
    x1 > x0, is reduced in a Chebyshev basis in an evaluation where
    ``coefficients`` finds [Z | W] (``features.chebyshev_coefficients``):
    psi = B Z to rounding, Z being k x R and B holding T_0..T_{k-1} of u =
    2 (x - x0) / (x1 - x0) - 1, and Omega = B W for a block with row
    weights.  Its
    chunks then add, for the value and the gradient alike, only the Gram
    of T_0..T_k and its sum against y, and ``merge`` maps these to psi's:
    G = Z^T (B^T B) Z, a = Z^T (B^T y), Omega^T psi = W^T (B^T B) Z and
    Omega^T y = W^T (B^T y), and, as x - x0 = (x1 - x0)(u + 1)/2 and u T_j
    = (T_{j+1} + T_{|j-1|})/2, Gx and ax from the Gram's and the y sum's
    shifted columns.  A row then costs T_0..T_k and one SYRK of k + 1
    columns, where a filled row costs the fill, 1 + p SYRKs of R columns
    and Omega's row weights.  ``degrees`` are the k it may take
    (``features.basis_degrees``).
    """

    def __init__(self, x, y, r2, sides):
        self.x = x  # as the block's fill takes it
        self.y = y
        self.x2 = x.reshape(y.size, -1)
        self.x0 = self.x2.min(axis=0)
        self.n = y.size
        self.yy = float(y @ y)
        self.x1 = self.x2.max()  # read for one input dimension only
        self.degrees = basis_degrees(x, r2)
        degree = max(self.degrees, default=0)
        self.parts = {side: _Part(r2, 1 + self.x0.size, degree) for side in sorted(sides)}
        self.total = None  # set by merge

    def coefficients(self, block):
        """[Z | W] for this evaluation's ``block``, or None for its fill (see the class docstring)."""
        if not self.degrees:
            return None
        weights = getattr(block, "row_weights", None)

        def values(x):  # psi's columns, then Omega's
            psi = block.fill(x).view(float)
            return psi if weights is None else np.hstack([psi, weights(x).view(float)])

        return chebyshev_coefficients(values, self.x0[0], self.x1, self.degrees)

    def add(self, side, sl, first, block, z, gradient, work):
        """Add rows ``sl`` of ``block`` into part ``side``, which they start if ``first``.

        The rows are psi, or T_0..T_k if ``z``, the evaluation's
        ``coefficients``, has k rows.  ``work`` is the side's ``_Work``,
        with at least as many rows as ``sl``.
        """
        part = self.parts[side]
        y = self.y[sl]
        if z is None:
            rows = block.fill(self.x[sl], work.fill[: y.size]).view(float)
        else:  # the value and the gradient read the same sums of these
            rows = chebyshev_rows(self.x2[sl, 0], self.x0[0], self.x1,
                                  _leading(work.rows, z.shape[0] + 1, y.size)).T
        grams = part.grams_of(z)
        if gradient and z is None:
            x = self.x2[sl]
            w = work.rows[: y.size]
            for j in range(self.x0.size):
                np.multiply(rows, np.sqrt(x[:, j] - self.x0[j])[:, None], out=w)
                _add_gram(grams[1 + j], w, first, work.gram)
            sums = [(x * y[:, None]).T @ rows]
            weights = getattr(block, "row_weights", None)
            if weights is not None:
                # the real view of Omega keeps psi real: (Re, Im) row pairs of Omega^T psi
                omega = weights(self.x[sl]).view(float)
                sums += [omega.T @ rows, omega.T @ y]
            if not first:
                sums = [old + new for old, new in zip(part.grad_sums, sums)]
            part.grad_sums = sums
        _add_gram(grams[0], rows, first, work.gram)
        a = rows.T @ y
        part.a = a if first else part.a + a

    def merge(self, gradient, z):
        """Add the later parts into the first, in side order; it becomes ``total``.

        ``z`` is the evaluation's ``coefficients``; if it is not None, the
        sums added are of Chebyshev rows and are then mapped to psi's.
        """
        total, *rest = self.parts.values()
        count = None if gradient else 1  # the value reads only G
        grams = total.grams_of(z)[:count]
        for part in rest:
            np.add(grams, part.grams_of(z)[:count], out=grams)
            total.a = total.a + part.a
            if gradient and z is None:
                total.grad_sums = [t + p for t, p in zip(total.grad_sums, part.grad_sums)]
        if z is not None:
            self._map(total, gradient, z)
        self.total = total
        return total

    def _map(self, total, gradient, z):
        """Turn ``total``'s sums of T_0..T_k into psi's (see the class docstring).

        ``z`` holds Z, psi's coefficients, in its first R columns and W,
        Omega's, in the rest.
        """
        r2 = total.grams.shape[1]
        k = z.shape[0]
        g, a = total.grams_of(z)[0], total.a
        z_psi, w = z[:, :r2], z[:, r2:]
        gz = g[:k, :k] @ z_psi  # B^T psi
        _map_gram(total.grams[0], z_psi.T @ gz)
        total.a = a[:k] @ z_psi
        if not gradient:
            return
        half = 0.5 * (self.x1 - self.x0[0])
        near = np.abs(np.arange(k) - 1)  # u T_j = (T_{j+1} + T_near[j]) / 2
        gx = half * (0.5 * (g[:k, 1:] + g[:k, near]) + g[:k, :k])
        _map_gram(total.grams[1], z_psi.T @ (gx @ z_psi))
        ax = self.x0[0] * a[:k] + half * (0.5 * (a[1:] + a[near]) + a[:k])
        total.grad_sums = [(ax @ z_psi)[None, :]]
        if w.size:
            total.grad_sums += [w.T @ gz, w.T @ a[:k]]

    def column_sums(self, m, mat, c, sig2):
        """(hv, hvx, ht, z): column sums over these rows of h = conj(dL/dPhi).

        dL/dPhi_c = beta m^T - Sigma^-1 Phi_c A^-1 with beta = Sigma^-1 (y -
        Phi_c m), so on these rows it is (y m^T - psi C_d M) / sigma^2 for
        M = m m^T + A^-1, whose complex column view is ``mat``.  With v the
        complex view of psi, hv = colsum(h v), hvx[j] = colsum(h v x_j) and
        ht = Omega^T h (None for a block without row weights); each is
        linear in y and psi, so it is a column-wise dot of a Gram with C_d M
        and no row is read again.  z is the term of hv in G, times
        -sigma^2.  ``c`` holds S_dq/sqrt(S) per force.  Reads the ``total``
        of ``merge``.
        """
        total = self.total
        m_conj = m.view(complex).conj()
        a_x, *omega_sums = total.grad_sums
        dots = _gram_dots(total.grams, mat, c)
        z = dots[0]
        hv = (m_conj * total.a.view(complex) - z) / sig2
        hvx = (m_conj * a_x.view(complex) - dots[1:] - np.multiply.outer(self.x0, z)) / sig2
        if not omega_sums:
            return hv, hvx, None, z
        omega_psi, omega_y = omega_sums
        # w = (Re, Im) row pairs of Omega^T psi C_d M, so that Omega^T conj(psi
        # C_d M) in complex column view is w's (Re, Im) blocks combined
        w = (omega_psi * np.repeat(c, mat.shape[0] // c.size)) @ mat.view(float)
        ht = (np.multiply.outer(omega_y[0::2] + 1j * omega_y[1::2], m_conj)
              - (w[0::2, 0::2] + w[1::2, 1::2]) - 1j * (w[1::2, 0::2] - w[0::2, 1::2])) / sig2
        return hv, hvx, ht, z


def _gram_dots(grams, mat, c):
    """colsum(conj(C M) * G) in complex column view, for each Gram G of ``grams``.

    ``grams`` is (k, R, R), full symmetric Grams as in ``_OutputSums``;
    ``mat`` is the complex column view of the symmetric M and ``c`` holds
    C's factor per force, so force q's rows take c[q-1].  Returns one row
    per Gram.
    """
    forces = (c.size, mat.shape[0] // c.size, mat.shape[1])
    return c @ np.vecdot(mat.reshape(forces), grams.view(complex).reshape(-1, *forces), axis=-2)


class LmlObjective:
    """Deterministic packed-parameter objective over fixed frequency draws.

    Frequencies are held fixed across evaluations (common random numbers),
    so the objective is smooth in the lengthscales through the
    reparameterization of the draws rather than stochastic.  Each
    evaluation is one pass over each output's rows, which adds the rows'
    features into that output's Gram matrices, the pass's chunks split
    between the caller and a helper thread; value and gradient follow from
    the Grams in O(D R^2) work (see the module docstring).  The results do
    not depend on the CPU count.  The sums and the work arrays are
    allocated at the first evaluation and reused, so one objective must
    not be evaluated from two threads at once.
    """

    def __init__(self, data: Dataset, template, draws):
        validate_dataset(data, template)
        check_draws(template, draws)
        self.data = data
        self.template = template
        self.draws = draws
        self.labels = pack(template).labels
        self._head_sizes = template.head_sizes()
        self._rows = output_rows(data.output_ids)
        self._sums = None  # {d: _OutputSums}, made at the first evaluation

    def _allocate(self):
        """The pass's items, the per-output sums and the R x R and chunk-sized work arrays.

        Fresh arrays of these sizes would page-fault again on every
        evaluation, a large share of one at a thousand rows.
        """
        r2 = phi_c_width(self.template.num_forces, self.draws.num_samples)
        step = min(backends.CHUNK_ROWS, max((r.size for r in self._rows.values()), default=0))
        # (output, its rows, first on its side): each output's chunks in
        # turn, item i on side i % 2, so an output's first two chunks start
        # its two sides
        self._items = [(d, slice(lo, lo + step), lo < 2 * step)
                       for d, r in self._rows.items() for lo in range(0, r.size, step)]
        sides = {d: set() for d in self._rows}
        adds = set()  # the sides with an item that is not first
        for i, (d, _, first) in enumerate(self._items):
            sides[d].add(i % 2)
            if not first:
                adds.add(i % 2)
        # each output's inputs and targets, in its blocks' row order
        self._sums = {d: _OutputSums(self.data.inputs[r], self.data.y[r], r2, sides[d])
                      for d, r in self._rows.items()}
        self._work = [_Work(step, r2, k in adds) for k in range(min(2, len(self._items)))]
        self._a = np.empty((r2, r2), order="F")  # A, its factor, then M's lower triangle
        self._mat = np.empty((r2, r2), order="F")  # M = m m^T + A^-1
        self._sym = np.empty((r2, r2), order="F")  # a term of A

    # -- evaluations ----------------------------------------------------------

    def value(self, theta) -> float:
        return self._evaluate(theta, gradient=False)[0]

    def value_and_gradient(self, theta):
        return self._evaluate(theta, gradient=True)

    def _scaling(self, spec):
        """(sigma_d^2, C_d's factor S_dq/sqrt(S) per force, and per column of Phi_c) by output."""
        s_count = self.draws.num_samples
        sig2 = {d: spec.noise_vars[d - 1] for d in self._rows}
        scales = spec.sensitivities / math.sqrt(s_count)
        cols = {d: np.repeat(scales[d - 1], 2 * s_count) for d in self._rows}
        return sig2, scales, cols

    def _factor(self, spec, gradient):
        """One pass over the rows of ``spec``'s features: (blocks, chol, alpha).

        Adds every output's rows into its Grams, the gradient's too if
        ``gradient``, and sums their terms of A = I + Phi_c^T Sigma^-1 Phi_c
        and alpha = Phi_c^T Sigma^-1 y.  ``blocks`` are the outputs'
        ``output_blocks`` and ``chol`` is A's lower Cholesky factor, upper
        triangle zero, held in this objective's work array until its next
        pass.
        """
        blocks = output_blocks(self._rows, spec, self.draws)
        if self._sums is None:
            self._allocate()

        # each output's basis, chosen here before the pass, so the same on one CPU and on two
        coeffs = {d: sums.coefficients(blocks[d]) for d, sums in self._sums.items()}

        def add(side, i):
            d, sl, first = self._items[i]
            self._sums[d].add(side, sl, first, blocks[d], coeffs[d], gradient, self._work[side])

        run_split(len(self._items), add)
        sig2, scales, cols = self._scaling(spec)
        r2 = self._a.shape[0]
        # A = I + sum_d C_d G_d C_d / sigma_d^2.  C_d takes one factor per
        # force, so A's blocks are the Grams' blocks times a Q x Q array:
        # with Fortran order, axes (column within force, force) twice.
        blocks4 = (2 * self.draws.num_samples, spec.num_forces) * 2
        a_mat = self._a
        if not self._sums:  # no output's term starts A
            a_mat.fill(0.0)
        alpha = np.zeros(r2)
        for i, (d, sums) in enumerate(self._sums.items()):
            total = sums.merge(gradient, coeffs[d])
            term = self._sym if i else a_mat  # the first output's term starts A
            # G is symmetric, so its transpose is G in Fortran order
            np.multiply(total.grams[0].T.reshape(blocks4, order="F"),
                        np.multiply.outer(scales[d - 1], scales[d - 1] / sig2[d])[None, :, None, :],
                        out=term.reshape(blocks4, order="F"))
            if i:
                a_mat += term
            alpha += cols[d] * total.a / sig2[d]
        a_mat[np.diag_indices(r2)] += 1.0
        return blocks, _cholesky(a_mat), alpha

    def _evaluate(self, theta, gradient):
        spec = unpack(theta, self.template)
        blocks, chol, alpha = self._factor(spec, gradient)
        sig2, scales, cols = self._scaling(spec)
        s_count, n_q = self.draws.num_samples, spec.num_forces
        m = dpotrs(chol, alpha, lower=1)[0]
        # yy - a^T C_d m = y^T (y - Phi_c m) on output d's rows
        fits = {d: sums.yy - float((cols[d] * sums.total.a) @ m) for d, sums in self._sums.items()}
        value = _lml(sum(fits[d] / sig2[d] for d in fits), chol,
                     sum(sums.n * math.log(sig2[d]) for d, sums in self._sums.items()),
                     len(self.data))
        if not gradient:
            return value, None

        # M = m m^T + A^-1: A^-1's lower triangle over the factor (whose
        # upper triangle is zero), then m m^T added
        low = dsyr(1.0, m, lower=1, a=dpotri(chol, lower=1, overwrite_c=1)[0], overwrite_a=1)
        np.add(low, low.T, out=self._mat)
        np.fill_diagonal(self._mat, low.diagonal())
        mat = self._mat.T.view(complex)

        head_grad = [np.zeros(k) for k in self._head_sizes]
        ell_grad = np.zeros(n_q)
        noise_grad = np.zeros(spec.num_outputs)
        sens_grad = np.zeros((spec.num_outputs, n_q))
        # the last output filled first: its Grams are likeliest still in cache
        for d, sums in reversed(self._sums.items()):
            hv, hvx, ht, z = sums.column_sums(m, mat, scales[d - 1], sig2[d])
            c = cols[d][::2]  # per complex column
            # dL/dsigma^2 = (sum_i beta_i^2 - sum_i (K + Sigma)^-1_ii) / 2, then
            # the log chain; floored variances have zero derivative through max().
            # On these rows sigma^4 sum beta_i^2 = yy - 2 a^T C m + m^T C G C m
            # and sigma^2 sum (K + Sigma)^-1_ii = n - tr(A^-1 C G C) / sigma^2,
            # whose two terms in G add up to c . Re z.
            if sig2[d] > NOISE_FLOOR:
                noise_grad[d - 1] = 0.5 * ((2.0 * fits[d] - sums.yy + float(c @ z.real))
                                           / sig2[d] - sums.n)
            sens_grad[d - 1] = hv.real.reshape(n_q, s_count).sum(axis=1) / math.sqrt(s_count)
            # h C_d = conj(dL/dv) for the unscaled block v
            dheads, dlogell = blocks[d].grads(c * hv, c * hvx, None if ht is None else c * ht)
            head_grad[d - 1] += dheads
            ell_grad += dlogell.reshape(n_q, s_count).sum(axis=1)
        grad = np.concatenate([*head_grad, ell_grad, noise_grad, sens_grad.ravel()])
        if not np.all(np.isfinite(grad)):
            i = int(np.argmax(~np.isfinite(grad)))
            raise NumericalError(
                f"non-finite gradient at packed slot {i} ({self.labels[i]})"
            )
        return value, grad


# ---------------------------------------------------------------------------
# optimizer


@dataclass(frozen=True)
class OptimizerConfig:
    """``max_iters`` bounds the accepted steps; the fit converges once the
    Euclidean norm of the packed gradient is at most ``grad_tol``."""

    max_iters: int = 500
    grad_tol: float = 1e-5


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a hyperparameter fit.

    ``trace`` rows are (iteration, lml, grad_norm, elapsed_s, evals), one
    per accepted step after the initial point; evals counts objective and
    gradient evaluations so far, rejected line-search trials included.  The
    lml column is non-decreasing because L-BFGS-B accepts only steps that
    pass its sufficient-decrease test.  ``status`` is one of converged,
    max_iters, line_search_failed; the returned spec is the last accepted
    point, so never worse than init.
    """

    spec: object
    packed: HyperParamVector
    final_lml: float
    trace: tuple
    seed: int
    num_samples: int
    iterations: int
    status: str


def optimize(init, data: Dataset, draws, config: OptimizerConfig | None = None) -> FitResult:
    """Maximize the log marginal likelihood with scipy's L-BFGS-B.

    L-BFGS-B minimizes the negated objective in packed space.  It stops
    when the gradient's 2-norm reaches ``grad_tol`` (its own tolerances are
    off), after ``max_iters`` steps, or when its line search fails.  Trial
    points that raise numerical errors count as infinitely bad, so the line
    search backtracks from them.
    """
    cfg = config or OptimizerConfig()
    obj = LmlObjective(data, init, draws)
    started = perf_counter()
    evals = 0
    trace = []
    last = best = None  # (theta, lml, gradient) of the latest / accepted point

    def evaluate(theta):
        nonlocal evals, last
        evals += 1
        f, g = obj.value_and_gradient(theta)
        last = (theta.copy(), f, g)

    def accept(intermediate_result=None):
        # L-BFGS-B reports a new iterate right after evaluating it, so the
        # latest evaluation is that iterate
        nonlocal best
        best = last
        trace.append((len(trace), best[1], float(np.linalg.norm(best[2])),
                      perf_counter() - started, evals))
        if trace[-1][2] <= cfg.grad_tol:
            raise StopIteration

    def negated(theta):
        if not np.array_equal(theta, last[0]):
            try:
                # Overflow in a rejected trial point is routine; an infinite
                # value makes the line search shorten the step.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    evaluate(theta)
            except (NumericalError, DataError, OverflowError):
                # exp over- or underflow while unpacking the trial point, or
                # a non-finite feature matrix
                return math.inf, np.zeros_like(theta)
        return -last[1], -last[2]

    evaluate(pack(init).values)
    try:
        accept()
    except StopIteration:  # converged at the initial point
        pass
    else:
        if cfg.max_iters > 0:
            # scipy's own stopping tests are off; each line search is bounded,
            # so max_iters also bounds the evaluations
            minimize(negated, best[0], jac=True, method="L-BFGS-B", callback=accept,
                     options={"maxiter": cfg.max_iters, "maxfun": math.inf,
                              "ftol": 0.0, "gtol": 0.0})
    if trace[-1][2] <= cfg.grad_tol:
        status = "converged"
    elif len(trace) - 1 >= cfg.max_iters:
        status = "max_iters"
    else:
        status = "line_search_failed"
        warnings.warn(
            f"line search failed at iteration {len(trace)}; returning best point seen",
            NumericsWarning,
            stacklevel=2,
        )
    return FitResult(
        spec=unpack(best[0], init),
        packed=HyperParamVector(best[0], obj.labels),
        final_lml=best[1],
        trace=tuple(trace),
        seed=draws.seed,
        num_samples=draws.num_samples,
        iterations=len(trace) - 1,
        status=status,
    )
