"""Log marginal likelihood, analytic gradients, and hyperparameter fitting.

The low-rank evaluation rewrites the usual GP objective through the matrix
inversion and determinant lemmas around A = I + Phi_c^T Sigma^-1 Phi_c,
so cost is linear in the number of observations at fixed feature count.
The data-fit term is y^T beta with beta = (K + Sigma)^-1 y, which avoids
the cancellation between y^T Sigma^-1 y and alpha^T A^-1 alpha.

Every objective evaluation streams over fixed chunks of
``backends.CHUNK_ROWS`` rows in two passes.  Pass 1 accumulates A and
alpha = Phi_c^T Sigma^-1 y and factors A once.  Pass 2 forms beta on each
chunk from m = A^-1 alpha and sums the data-fit term.
``low_rank_log_marginal`` accumulates A the same way over the Phi_c it is
given, and ``weight_posterior`` over row chunks of Phi_c that are never
held together (pass 1 alone: the weight posterior that prediction reads),
filled and multiplied on two threads by ``features.run_chunks``.  The
objective runs on the calling thread alone.
The objective keeps only the complex feature blocks of
``features.block_params``, filled once per evaluation, and rebuilds
each chunk's rows of Phi_c from them with ``features.write_phi_block``,
the writer ``feature_matrix`` and ``mogp_feature_matrix`` use; no N x R
array is formed besides those blocks.  In pass 2 the gradient takes
dL/dPhi_c = beta m^T - Sigma^-1 Phi_c A^-1 on each chunk (Phi_c^T beta
equals m), whose complex view is dL/dPhi as Phi_c is the real view of
Phi, and contracts it against the chunk's rows of each feature
block without forming derivatives, each block by its own ``grads``:
``backends.residue_grads`` reduces an LFM block of any operator order to
per-column sums through the characteristic roots, and the chain rules
through the frequency reparameterization lam = sqrt(2) z / ell, the
packed head slots (each operator's ``packed_gradient``, see ``model``, or
a MOGP's log inverse width), the log-transformed parameters and the
per-output noise variances act on those sums.  The sums are linear in
dL/dPhi_c, so they add over chunks.  A is factored
with LAPACK potrf; the objective solves for m with potrs and forms the
R x R A^-1 for the gradient with potri.

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
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from . import backends
from .features import (
    NumericsWarning,
    block_params,
    check_draws,
    force_columns,
    output_rows,
    phi_c_width,
    phi_fill,
    # not used here: kept for the benchmark's tracer, which wraps this name;
    # delete with ROADMAP item 1
    rfrf_general,
    run_chunks,
    write_phi_block,
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
    a = 0.5 * (a + a.T)
    # a non-finite entry of Phi makes its column's diagonal of A non-finite
    if not np.all(np.isfinite(np.diag(a))):
        raise NumericalError("feature matrix Phi is not finite")
    chol, info = dpotrf(a, lower=1, clean=1)
    if info != 0:
        raise NumericalError(
            f"A = I + Phi^T Sigma^-1 Phi not SPD: {info}-th leading minor of the array "
            "is not positive definite"
        )
    return chol


def _lml(data_fit, chol, noise):
    """Log marginal likelihood given y^T beta and chol(A)."""
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (data_fit + log_det + float(np.sum(np.log(noise))) + noise.size * LOG_2PI)


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
    value = _lml(float(y @ beta), chol, noise)
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


class LmlObjective:
    """Deterministic packed-parameter objective over fixed frequency draws.

    Frequencies are held fixed across evaluations (common random numbers),
    so the objective is smooth in the lengthscales through the
    reparameterization of the draws rather than stochastic.  Evaluations
    reuse the objective's chunk work arrays, so one objective must not be
    evaluated from two threads at once.
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
        # Chunk work arrays, reused by every evaluation: a chunk's rows of
        # Phi_c, of T = Sigma^-1 Phi_c A^-1, and of one block of dL/dPhi.
        # Fresh chunk-sized arrays would page-fault again on every chunk,
        # a large share of an evaluation at a few thousand rows.
        chunk = min(backends.CHUNK_ROWS, max((r.size for r in self._rows.values()), default=0))
        self._phi_buf = np.empty((chunk, phi_c_width(template.num_forces, draws.num_samples)))
        self._t_buf = np.empty_like(self._phi_buf)
        self._h_buf = np.empty((chunk, draws.num_samples), dtype=complex)

    def _chunks(self, spec, blocks):
        """Yield (d, rows, phi) for each chunk of each output's rows.

        ``rows`` slices output d's blocks, inputs and targets, and ``phi``
        holds those rows of Phi_c.  Every chunk is written into the same
        work array, so ``phi`` is valid until the next chunk.
        """
        s_count = self.draws.num_samples
        step = self._phi_buf.shape[0]
        for d, rows in self._rows.items():
            for lo in range(0, rows.size, step):
                sl = slice(lo, lo + step)
                phi = self._phi_buf[: min(step, rows.size - lo)]
                for q in range(1, spec.num_forces + 1):
                    v = blocks[(d, q)][1][sl]
                    write_phi_block(phi, slice(None), spec, s_count, d, q, v)
                yield d, sl, phi

    # -- evaluations ----------------------------------------------------------

    def value(self, theta) -> float:
        return self._evaluate(theta, gradient=False)[0]

    def value_and_gradient(self, theta):
        return self._evaluate(theta, gradient=True)

    def _evaluate(self, theta, gradient):
        spec = unpack(theta, self.template)
        blocks = {(d, q): (block, block.fill(self._x[d]))
                  for (d, q), block in block_params(self._rows, spec, self.draws).items()}
        r2 = self._phi_buf.shape[1]
        sinvs = 1.0 / spec.noise_vars
        roots = np.sqrt(sinvs)
        # pass 1 whitens each chunk in place; pass 2 writes it again
        alpha, chol = _factor(
            ((np.multiply(phi, roots[d - 1], out=phi), roots[d - 1] * self._y[d][sl])
             for d, sl, phi in self._chunks(spec, blocks)),
            r2,
        )
        m = dpotrs(chol, alpha, lower=1)[0]
        if gradient:
            # A^-1 is formed once (R x R), so T is one GEMM per chunk; potri
            # writes its lower triangle, and chol's upper triangle is zero
            a_inv = dpotri(chol, lower=1)[0]
            a_inv += np.tril(a_inv, -1).T
            grad = np.zeros(len(self.labels))
        data_fit = 0.0
        for d, sl, phi in self._chunks(spec, blocks):
            y = self._y[d][sl]
            beta = sinvs[d - 1] * (y - phi @ m)
            data_fit += float(y @ beta)
            if gradient:
                grad += self._chunk_gradient(spec, blocks, d, sl, phi, beta, m, a_inv)
        value = _lml(data_fit, chol, noise_vector(spec, self.data.output_ids))
        if not gradient:
            return value, None
        if not np.all(np.isfinite(grad)):
            i = int(np.argmax(~np.isfinite(grad)))
            raise NumericalError(
                f"non-finite gradient at packed slot {i} ({self.labels[i]})"
            )
        return value, grad

    def _chunk_gradient(self, spec, blocks, d, sl, phi, beta, m, a_inv):
        """Packed-gradient terms of output d's rows ``sl``.

        ``phi`` holds those rows of Phi_c, ``beta`` their entries of
        (K + Sigma)^-1 y, and m = A^-1 alpha = Phi_c^T beta.
        """
        s_count, n_q = self.draws.num_samples, spec.num_forces
        root_s = 1.0 / math.sqrt(s_count)
        head_grad = [np.zeros(k) for k in self._head_sizes]
        ell_grad = np.zeros(n_q)
        noise_grad = np.zeros(spec.num_outputs)
        sens_grad = np.zeros((spec.num_outputs, n_q))

        # T = Sigma^-1 Phi_c A^-1 on these rows
        sig2 = spec.noise_vars[d - 1]
        t_mat = np.matmul(phi, a_inv, out=self._t_buf[: phi.shape[0]])
        t_mat /= sig2
        # noise: dL/dSigma_ii = (beta_i^2 - (K+Sigma)^-1_ii) / 2, then the
        # log chain; floored variances have zero derivative through max().
        if sig2 > NOISE_FLOOR:
            minv_diag = (1.0 - np.einsum("ij,ij->i", phi, t_mat)) / sig2
            noise_grad[d - 1] = sig2 * float(np.sum(0.5 * (beta**2 - minv_diag)))

        # dL/dPhi_c = beta beta^T Phi_c - T = beta m^T - T, written over T;
        # its complex view is dL/dRe Phi + j dL/dIm Phi
        g = np.subtract(np.multiply.outer(beta, m), t_mat, out=t_mat).view(complex)
        h = self._h_buf[: phi.shape[0]]
        for q in range(1, n_q + 1):
            # h = conj(dL/dPhi) on block (d, q)
            np.conjugate(g[:, force_columns(q, s_count)], out=h)
            block, v = blocks[(d, q)]
            hv, dheads, dlogell = block.grads(self._x[d][sl], h, v[sl])
            scale = spec.sensitivities[d - 1, q - 1] * root_s
            head_grad[d - 1] += scale * dheads
            ell_grad[q - 1] += scale * dlogell
            sens_grad[d - 1, q - 1] = root_s * hv
        return np.concatenate([*head_grad, ell_grad, noise_grad, sens_grad.ravel()])


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
