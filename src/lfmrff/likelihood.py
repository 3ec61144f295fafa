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

``low_rank_log_marginal`` accumulates A over chunks of
``backends.CHUNK_ROWS`` rows of the Phi_c it is given, and
``weight_posterior`` over row chunks of Phi_c that are never held
together (the weight posterior that prediction reads), filled and
multiplied on two threads by ``features.run_chunks``.

The objective runs on the calling thread in one pass over each output's
rows, ``CHUNK_ROWS`` at a time.  It holds 1 + p Grams of R x R per output
(p the input dimension) and no array that grows with an output's rows,
so its memory is flat in N at a fixed number of outputs D but grows with
D; the Grams save work and memory only where an output has many more
rows than R (see README, Numerical notes).  It fills each chunk once, as
the output's one block of ``features._output_blocks`` (all Q forces,
unscaled by the sensitivities), and adds the chunk into that output's
Gram matrices (``_OutputSums``): G = psi^T psi and a = psi^T y for the
value, and for the gradient the same sums weighted by each input
coordinate and the rows' e^{s_p t} terms.  A, alpha and the data-fit
term follow from G and a; A is factored with LAPACK potrf, m = A^-1
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
from scipy.linalg.blas import dsyr, dsyrk
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from . import backends
from .features import (
    NumericsWarning,
    check_draws,
    _output_blocks,
    output_rows,
    phi_c_width,
    phi_fill,
    # not used here: kept for the benchmark's tracer, which wraps this name;
    # delete with ROADMAP item 1
    rfrf_general,
    run_chunks,
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


def _factor(chunks, r2):
    """Pass 1: A = I + Phi_c^T Sigma^-1 Phi_c, alpha = Phi_c^T Sigma^-1 y.

    ``chunks`` yields (w, z) per row chunk: its rows of Sigma^-1/2 Phi_c
    and of Sigma^-1/2 y.  Returns (alpha, lower Cholesky factor of A).
    Raises NumericalError when Phi is not finite or A is not positive
    definite.
    """
    a = np.zeros((r2, r2))
    alpha = np.zeros(r2)
    for w, z in chunks:
        a += w.T @ w  # numpy runs W^T W as a SYRK
        alpha += w.T @ z
    return alpha, _finish(a)


def _finish(a):
    """Lower Cholesky factor of A, upper triangle zero, from the chunks' sum of W^T W.

    See ``_factor``.  The factor has the bits of ``cho_factor``'s (the same
    LAPACK potrf on the same matrix).
    """
    a[np.diag_indices(a.shape[0])] += 1.0
    return _cholesky(0.5 * (a + a.T))


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
    step = backends.CHUNK_ROWS
    chunks = (
        (phi_c[lo : lo + step] * root[lo : lo + step, None],
         root[lo : lo + step] * y[lo : lo + step])
        for lo in range(0, n, step)
    )
    alpha, chol = _factor(chunks, phi_c.shape[1])
    beta = sinv * (y - phi_c @ cho_solve((chol, True), alpha))
    value = _lml(float(y @ beta), chol, float(np.sum(np.log(noise))), n)
    return value, WeightPosterior(alpha, np.tril(chol))


def weight_posterior(data: Dataset, spec, draws) -> WeightPosterior:
    """Posterior of the feature weights of ``spec`` given ``data``, without Phi_c.

    One pass over row chunks of Phi_c (``features.run_chunks``, caller and
    helper thread): each chunk's rows are filled, whitened in place and
    reduced to W^T W and W^T z, which the caller adds in chunk order.  So
    alpha and chol_a equal those of ``low_rank_log_marginal`` over the
    whole Phi_c bit for bit, but neither Phi_c nor beta is formed.
    Raises DataError for data that do not fit ``spec`` and NumericalError
    like ``low_rank_log_marginal``.
    """
    validate_dataset(data, spec)
    fill = phi_fill(data.inputs, data.output_ids, spec, draws)
    root = np.sqrt(1.0 / noise_vector(spec, data.output_ids))
    r2 = phi_c_width(spec.num_forces, draws.num_samples)
    a = np.zeros((r2, r2))
    alpha = np.zeros(r2)

    def work(sl, phi):
        w = np.multiply(phi, root[sl, None], out=phi)
        return w.T @ w, w.T @ (root[sl] * data.y[sl])

    def add(sums):
        np.add(a, sums[0], out=a)
        np.add(alpha, sums[1], out=alpha)

    run_chunks(len(data), r2, fill, work, add)
    return WeightPosterior(alpha, np.tril(_finish(a)))


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


class _OutputSums:
    """Sums over one output's rows of psi, the output's unscaled features.

    psi is the fill of the output's ``features._output_blocks`` block in
    Phi_c's real column layout, without the factors S_dq/sqrt(S): Phi_c's
    rows of output d are psi C_d.  The value reads the Gram G = psi^T psi,
    a = psi^T y, yy = y^T y and the row count n.  The gradient also reads,
    for each input dimension j, Gx_j = sum_i (x_ij - x0_j) psi_i^T psi_i
    (x0_j the output's least x_j, so each row's weight has a real square
    root) and ax_j = sum_i x_ij y_i psi_i, and, for a block with
    ``row_weights`` Omega, Omega^T psi and Omega^T y.  ``grams`` holds G
    and the Gx_j as its slices [:, :, 0], [:, :, 1], ...; dsyrk adds each
    chunk into a slice's lower triangle in place, and the upper triangle
    stays zero.
    """

    def __init__(self, x, y, r2):
        self.x = x  # as the block's fill takes it
        self.y = y
        self.x2 = x.reshape(y.size, -1)
        self.x0 = self.x2.min(axis=0)
        self.n = y.size
        self.yy = float(y @ y)
        self.a = self._grad_sums = None  # set by add
        self.grams = np.zeros((r2, r2, 1 + self.x0.size), order="F")

    def add(self, block, gradient, step, rows):
        """Sum over the rows for ``block``, ``step`` rows at a time.

        ``rows`` is a (step, R) work array for the rows of sqrt(x_j - x0_j) psi.
        """
        weights = getattr(block, "row_weights", None) if gradient else None
        for lo in range(0, self.n, step):
            sl = slice(lo, lo + step)
            y = self.y[sl]
            psi = block.fill(self.x[sl]).view(float)
            keep = float(lo > 0)  # dsyrk's beta: the first chunk overwrites the sums
            if gradient:
                x = self.x2[sl]
                w = rows[: y.size]
                for j in range(self.x0.size):
                    np.multiply(psi, np.sqrt(x[:, j] - self.x0[j])[:, None], out=w)
                    dsyrk(1.0, w.T, keep, self.grams[:, :, 1 + j], lower=1, overwrite_c=1)
                sums = [(x * y[:, None]).T @ psi]
                if weights is not None:
                    # the real view of Omega keeps psi real: (Re, Im) row pairs of Omega^T psi
                    omega = weights(self.x[sl]).view(float)
                    sums += [omega.T @ psi, omega.T @ y]
                if lo:
                    sums = [old + new for old, new in zip(self._grad_sums, sums)]
                self._grad_sums = sums
            # G last, so that it is still in cache when A is built from it
            dsyrk(1.0, psi.T, keep, self.grams[:, :, 0], lower=1, overwrite_c=1)
            a = psi.T @ y
            self.a = self.a + a if lo else a

    def column_sums(self, m, mat, c, sig2):
        """(hv, hvx, ht, z): column sums over these rows of h = conj(dL/dPhi).

        dL/dPhi_c = beta m^T - Sigma^-1 Phi_c A^-1 with beta = Sigma^-1 (y -
        Phi_c m), so on these rows it is (y m^T - psi C_d M) / sigma^2 for
        M = m m^T + A^-1, whose complex column view is ``mat``.  With v the
        complex view of psi, hv = colsum(h v), hvx[j] = colsum(h v x_j) and
        ht = Omega^T h (None for a block without row weights); each is
        linear in y and psi, so it is a column-wise dot of a Gram with C_d M
        and no row is read again.  z is the term of hv in G, times
        -sigma^2.  ``c`` holds S_dq/sqrt(S) per force.  Halves the Grams'
        diagonals (see ``_gram_dots``), so it runs once per ``add``.
        """
        m_conj = m.view(complex).conj()
        a_x, *omega_sums = self._grad_sums
        dots = _gram_dots(self.grams, mat, c)
        z = dots[0]
        hv = (m_conj * self.a.view(complex) - z) / sig2
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

    ``grams`` holds each Gram's lower triangle as in ``_OutputSums``; ``mat``
    is the complex column view of the symmetric M and ``c`` holds C's
    factor per force, so force q's rows take c[q-1].  Returns one row per
    Gram.

    No Gram is made symmetric.  With its diagonal halved (done here, in
    place), G = T + T^T for the triangle T = grams[:, :, i].T, so column
    pair (2k, 2k+1) of C M against G is a complex dot of T's columns with
    C M's, plus the 2 x 2 diagonal block of M C T^T, T's rows against M C's.
    """
    r2 = mat.shape[0]
    diagonals = grams.reshape(r2 * r2, -1, order="F")[:: r2 + 1]
    np.multiply(diagonals, 0.5, out=diagonals)
    tri = grams.T  # the triangles, C-ordered
    forces = (c.size, r2 // c.size, r2 // 2)
    cols = c @ np.vecdot(mat.reshape(forces), tri.view(complex).reshape(-1, *forces), axis=-2)
    # rows 2k, 2k+1 of M against the same rows of T over force q's
    # columns, times c_q: the 2 x 2 diagonal blocks of M C T^T
    m_rows = mat.view(float).reshape(r2 // 2, 2, *forces[:2])
    t_rows = tri.reshape(-1, r2 // 2, 2, *forces[:2])
    rows = sum(cq * np.matmul(m_rows[:, :, q], t_rows[..., q, :].transpose(0, 1, 3, 2))
               for q, cq in enumerate(c))
    return cols + (rows[..., 0, 0] + rows[..., 1, 1]) + 1j * (rows[..., 0, 1] - rows[..., 1, 0])


class LmlObjective:
    """Deterministic packed-parameter objective over fixed frequency draws.

    Frequencies are held fixed across evaluations (common random numbers),
    so the objective is smooth in the lengthscales through the
    reparameterization of the draws rather than stochastic.  Each
    evaluation is one pass over each output's rows, which adds the rows'
    features into that output's Gram matrices; value and gradient follow
    from those in O(D R^2) work (see the module docstring).  The sums and
    the work arrays are allocated at the first evaluation and reused, so
    one objective must not be evaluated from two threads at once.
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
        # each output's inputs and targets, in its blocks' row order
        self._x = {d: data.inputs[r] for d, r in self._rows.items()}
        self._y = {d: data.y[r] for d, r in self._rows.items()}
        self._sums = None  # {d: _OutputSums}, made at the first evaluation

    def _allocate(self):
        """The per-output sums and the R x R and chunk-sized work arrays.

        Fresh arrays of these sizes would page-fault again on every
        evaluation, a large share of one at a thousand rows.
        """
        r2 = phi_c_width(self.template.num_forces, self.draws.num_samples)
        self._sums = {d: _OutputSums(self._x[d], self._y[d], r2) for d in self._rows}
        self._step = min(backends.CHUNK_ROWS, max((s.n for s in self._sums.values()), default=0))
        self._rows_buf = np.empty((self._step, r2))
        self._a = np.empty((r2, r2), order="F")  # A, its factor, then M's lower triangle
        self._mat = np.empty((r2, r2), order="F")  # M = m m^T + A^-1
        self._sym = np.empty((r2, r2), order="F")  # a term of A

    # -- evaluations ----------------------------------------------------------

    def value(self, theta) -> float:
        return self._evaluate(theta, gradient=False)[0]

    def value_and_gradient(self, theta):
        return self._evaluate(theta, gradient=True)

    def _evaluate(self, theta, gradient):
        spec = unpack(theta, self.template)
        blocks = _output_blocks(self._rows, spec, self.draws)
        if self._sums is None:
            self._allocate()
        s_count, n_q = self.draws.num_samples, spec.num_forces
        r2 = self._a.shape[0]
        sig2 = {d: spec.noise_vars[d - 1] for d in self._sums}
        # C_d's factor S_dq/sqrt(S) per force, and per column of Phi_c
        scales = spec.sensitivities / math.sqrt(s_count)
        cols = {d: np.repeat(scales[d - 1], 2 * s_count) for d in self._sums}
        # A = I + sum_d C_d G_d C_d / sigma_d^2.  C_d takes one factor per
        # force, so A's blocks are the Grams' blocks times a Q x Q array:
        # with Fortran order, axes (column within force, force) twice.
        blocks4 = (2 * s_count, n_q) * 2
        a_mat = self._a
        alpha = np.zeros(r2)
        for i, (d, sums) in enumerate(self._sums.items()):
            sums.add(blocks[d], gradient, self._step, self._rows_buf)
            term = self._sym if i else a_mat  # the first output's term starts A
            np.multiply(sums.grams[:, :, 0].reshape(blocks4, order="F"),
                        np.multiply.outer(scales[d - 1], scales[d - 1] / sig2[d])[None, :, None, :],
                        out=term.reshape(blocks4, order="F"))
            if i:
                a_mat += term
            alpha += cols[d] * sums.a / sig2[d]
        a_mat[np.diag_indices(r2)] += 1.0
        chol = _cholesky(a_mat)
        m = dpotrs(chol, alpha, lower=1)[0]
        # yy - a^T C_d m = y^T (y - Phi_c m) on output d's rows
        fits = {d: sums.yy - float((cols[d] * sums.a) @ m) for d, sums in self._sums.items()}
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
