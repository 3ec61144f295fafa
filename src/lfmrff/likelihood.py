"""Log marginal likelihood, analytic gradients, and hyperparameter fitting.

The low-rank evaluation rewrites the usual GP objective through the matrix
inversion and determinant lemmas around A = I + Phi_c^T Sigma^-1 Phi_c,
so cost is linear in the number of observations at fixed feature count.
The objective assembles Phi_c from ``features.feature_blocks`` and
``features.write_phi_c``, the same provider and writer ``feature_matrix``
and ``mogp_feature_matrix`` use, and keeps the blocks for the gradient.
The gradient contracts dL/dPhi against each feature block's analytic
derivatives without forming them: ``backends.residue_grads`` reduces an
LFM block of any operator order to per-column sums through the
characteristic roots, and the chain rules through the frequency
reparameterization lam = sqrt(2) z / ell, the log-transformed parameters
and the per-output noise variances act on those sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import backends
from .features import (
    FrequencyDraws,
    NumericsWarning,
    feature_blocks,
    output_rows,
    rfrf_general,  # not used here; the benchmark's tracer wraps this name
    write_phi_c,
)
from .model import (
    DataError,
    Dataset,
    LfmSpec,
    MogpSpec,
    NumericalError,
    Ode1Params,
    Ode2Params,
    HyperParamVector,
    NOISE_FLOOR,
    pack,
    unpack,
    validate_dataset,
)
from .mogp import SpectralDraws

__all__ = [
    "LowRankState",
    "FitResult",
    "OptimizerConfig",
    "LmlObjective",
    "noise_vector",
    "full_log_marginal",
    "low_rank_log_marginal",
    "lml_gradient",
    "optimize",
]

LOG_2PI = math.log(2.0 * math.pi)


def noise_vector(spec, output_ids) -> np.ndarray:
    """Per-row noise variances sigma_d^2 picked by each row's output id."""
    return spec.noise_vars[np.asarray(output_ids, dtype=int) - 1]


# ---------------------------------------------------------------------------
# likelihood evaluations


@dataclass(frozen=True, eq=False)
class LowRankState:
    """Factorized quantities of one low-rank likelihood evaluation.

    a_mat is A = I + Phi_c^T Sigma^-1 Phi_c (symmetric positive definite),
    alpha = Phi_c^T Sigma^-1 y, chol_a its lower Cholesky factor.  beta is
    (K + Sigma)^-1 y computed without forming K, and u_mat = Sigma^-1 Phi_c;
    both are reused by gradients and posterior prediction.
    """

    a_mat: np.ndarray
    alpha: np.ndarray
    chol_a: np.ndarray
    data_fit: float
    log_det: float
    value: float
    beta: np.ndarray
    u_mat: np.ndarray
    noise_rows: np.ndarray

    def solve_a(self, b):
        return cho_solve((self.chol_a, True), b)


def _phi_c_of(phi):
    return phi.phi_c if hasattr(phi, "phi_c") else np.asarray(phi, dtype=float)


def low_rank_log_marginal(phi, noise, y):
    """Log marginal likelihood of y under N(0, Phi_c Phi_c^T + Sigma).

    Returns (value, LowRankState).  Cost is O(N R^2) for R = 2QS feature
    columns; no N x N matrix is formed.  Raises NumericalError when Phi is
    not finite or A is not positive definite.
    """
    phi_c = _phi_c_of(phi)
    y = np.asarray(y, dtype=float)
    noise = np.asarray(noise, dtype=float)
    n = y.size
    if phi_c.shape[0] != n or noise.shape != (n,):
        raise ValueError("phi, noise and y must agree on the number of rows")
    if np.any(noise <= 0):
        raise ValueError("noise variances must be positive")
    r = phi_c.shape[1]
    sinv = 1.0 / noise
    u = phi_c * sinv[:, None]
    a = phi_c.T @ u
    a[np.diag_indices(r)] += 1.0
    a = 0.5 * (a + a.T)
    # a non-finite entry of Phi makes its column's diagonal of A non-finite
    if not np.all(np.isfinite(np.diag(a))):
        raise NumericalError("feature matrix Phi is not finite")
    try:
        chol, _ = cho_factor(a, lower=True)
    except LinAlgError as exc:
        raise NumericalError(f"A = I + Phi^T Sigma^-1 Phi not SPD: {exc}") from None
    alpha = u.T @ y
    ainv_alpha = cho_solve((chol, True), alpha)
    data_fit = float(y @ (sinv * y) - alpha @ ainv_alpha)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    value = -0.5 * (
        data_fit + log_det + float(np.sum(np.log(noise))) + n * LOG_2PI
    )
    beta = sinv * (y - phi_c @ ainv_alpha)
    state = LowRankState(
        a_mat=a,
        alpha=alpha,
        chol_a=np.tril(chol),
        data_fit=data_fit,
        log_det=log_det,
        value=value,
        beta=beta,
        u_mat=u,
        noise_rows=noise,
    )
    return value, state


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


def _op_size(op) -> int:
    """Packed slots of one output's operator parameters."""
    if isinstance(op, Ode1Params):
        return 1
    if isinstance(op, Ode2Params):
        return 3
    return len(op.coeffs)


class LmlObjective:
    """Deterministic packed-parameter objective over fixed frequency draws.

    Frequencies are held fixed across evaluations (common random numbers),
    so the objective is smooth in the lengthscales through the
    reparameterization of the draws rather than stochastic.
    """

    def __init__(self, data: Dataset, template, draws):
        validate_dataset(data, template)
        if isinstance(template, LfmSpec):
            if not isinstance(draws, FrequencyDraws):
                raise TypeError("LFM objective needs FrequencyDraws")
        else:
            if not isinstance(draws, SpectralDraws):
                raise TypeError("MOGP objective needs SpectralDraws")
            if draws.input_dim != template.input_dim:
                raise ValueError("draws/spec input_dim mismatch")
        if draws.num_forces != template.num_forces:
            raise ValueError("draws/spec num_forces mismatch")
        self.data = data
        self.template = template
        self.draws = draws
        self.labels = pack(template).labels
        self._rows = output_rows(data.output_ids)

    def _blocks(self, spec):
        return feature_blocks(self.data.inputs, self._rows, spec, self.draws)

    def _phi_c(self, spec, blocks):
        return write_phi_c(len(self.data), self._rows, spec, self.draws.num_samples, blocks)

    def _mogp_inputs(self):
        x = self.data.inputs
        return x[:, None] if x.ndim == 1 else x

    # -- block gradients ------------------------------------------------------
    #
    # Each returns (Re sum h v, contractions with dv/d(packed operator
    # slots), contraction with dv/dlog ell) for h = conj(dL/dPhi) on the
    # block, all unscaled by the block's sensitivity.

    def _lfm_block_grads(self, op, d, entry, h):
        t_d = self.data.inputs[self._rows[d]]
        lam = entry["lam"]
        hv, dcoeffs, dl = backends.residue_grads(
            t_d, lam, entry["roots"], entry["leading"], h, entry["v"]
        )
        # packed slots: log gamma (a_0 = 1 is fixed), log (m, c, b), or the
        # raw coefficients of a general operator
        if isinstance(op, Ode1Params):
            dops = op.gamma * dcoeffs[1:]
        elif isinstance(op, Ode2Params):
            dops = np.array([[op.mass], [op.damper], [op.spring]]) * dcoeffs
        else:
            dops = dcoeffs
        # lam = sqrt(2) z / ell, so dlam/dlog ell = -lam
        return float(np.sum(hv)), np.sum(dops, axis=1), -float(dl @ lam)

    def _mogp_block_grads(self, spec, d, entry, h):
        # v = amp(|lam|^2, P_d) exp(j x.lam): dv/dlog P_d = v (b/(2 P_d) - p/2)
        # and dv/dlog ell = v (b/P_d - j x.lam), so colsum(h v) and
        # colsum(h v x_j) are all the data-sized work.
        x_d = self._mogp_inputs()[self._rows[d]]
        v, lam, b = entry["v"], entry["lam"], entry["b"]
        prec = spec.inv_widths[d - 1]
        weights = np.concatenate([np.ones((x_d.shape[0], 1)), x_d], axis=1)
        stats = weights.T @ (h * v)
        hv = stats[0].real
        d_width = float(hv @ (b / (2.0 * prec) - 0.5 * spec.input_dim))
        dlogell = float(hv @ (b / prec) + np.sum(lam.T * stats[1:].imag))
        return float(np.sum(hv)), np.array([d_width]), dlogell

    # -- evaluations ----------------------------------------------------------

    def _spec_of(self, theta):
        return unpack(theta, self.template)

    def value(self, theta) -> float:
        spec = self._spec_of(theta)
        phi_c = self._phi_c(spec, self._blocks(spec))
        noise = noise_vector(spec, self.data.output_ids)
        val, _ = low_rank_log_marginal(phi_c, noise, self.data.y)
        return val

    def value_and_gradient(self, theta):
        spec = self._spec_of(theta)
        blocks = dict(self._blocks(spec))
        phi_c = self._phi_c(spec, blocks.items())
        noise = noise_vector(spec, self.data.output_ids)
        value, state = low_rank_log_marginal(phi_c, noise, self.data.y)

        # dL/dPhi_c = beta beta^T Phi_c - T with T = Sigma^-1 Phi_c A^-1;
        # A^-1 is formed once (R x R), so T is a single GEMM.
        r2 = phi_c.shape[1]
        t_mat = state.u_mat @ state.solve_a(np.eye(r2))
        # noise: dL/dSigma_ii = (beta_i^2 - (K+Sigma)^-1_ii) / 2, then the
        # log chain; floored variances have zero derivative through max().
        minv_diag = 1.0 / noise - np.einsum("ij,ij->i", state.u_mat, t_mat)
        row_grad = 0.5 * (state.beta**2 - minv_diag)
        g_real = np.outer(state.beta, state.beta @ phi_c)
        g_real -= t_mat
        del t_mat

        n_out, n_q = spec.num_outputs, spec.num_forces
        s_count = self.draws.num_samples
        root_s = 1.0 / math.sqrt(s_count)
        r = r2 // 2
        lfm = isinstance(spec, LfmSpec)
        op_sizes = [_op_size(op) for op in spec.outputs] if lfm else [1] * n_out
        op_grad = [np.zeros(k) for k in op_sizes]
        ell_grad = np.zeros(n_q)
        noise_grad = np.zeros(n_out)
        sens_grad = np.zeros((n_out, n_q))
        for d, rows in self._rows.items():
            # conj(dL/dPhi) on output d's rows, all forces' columns
            g_d = g_real[rows]
            h_d = np.empty((rows.size, r), dtype=complex)
            h_d.real = g_d[:, :r]
            np.negative(g_d[:, r:], out=h_d.imag)
            for q in range(1, n_q + 1):
                entry = blocks[(d, q)]
                h = h_d[:, (q - 1) * s_count : q * s_count]
                if lfm:
                    hv, dops, dlogell = self._lfm_block_grads(spec.outputs[d - 1], d, entry, h)
                else:
                    hv, dops, dlogell = self._mogp_block_grads(spec, d, entry, h)
                scale = spec.sensitivities[d - 1, q - 1] * root_s
                op_grad[d - 1] += scale * dops
                ell_grad[q - 1] += scale * dlogell
                sens_grad[d - 1, q - 1] = root_s * hv
            sig2 = spec.noise_vars[d - 1]
            if sig2 > NOISE_FLOOR:
                noise_grad[d - 1] = sig2 * float(np.sum(row_grad[rows]))

        grad = np.concatenate([*op_grad, ell_grad, noise_grad, sens_grad.ravel()])
        if not np.all(np.isfinite(grad)):
            i = int(np.argmax(~np.isfinite(grad)))
            raise NumericalError(
                f"non-finite gradient at packed slot {i} ({self.labels[i]})"
            )
        return value, grad

    def gradient(self, theta):
        return self.value_and_gradient(theta)[1]


def lml_gradient(theta, data: Dataset, draws, template):
    """Gradient of the log marginal likelihood at a packed point.

    ``template`` fixes the spec structure the packed vector refers to.
    """
    vals = theta.values if isinstance(theta, HyperParamVector) else theta
    return LmlObjective(data, template, draws).gradient(vals)


# ---------------------------------------------------------------------------
# optimizer


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-5
    initial_step: float = 1.0
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 30


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a hyperparameter fit.

    ``trace`` rows are (iteration, lml, grad_norm, elapsed_s); the lml
    column is non-decreasing because every accepted step passes an Armijo
    test.  ``status`` is one of converged, max_iters, line_search_failed;
    the returned spec is always the best point seen, never worse than init.
    """

    spec: object
    packed: HyperParamVector
    final_lml: float
    trace: tuple
    seed: int
    num_samples: int
    iterations: int
    status: str


def optimize(init, data: Dataset, draws, config: OptimizerConfig | None = None, callback=None) -> FitResult:
    """Maximize the log marginal likelihood by BFGS ascent in packed space.

    Quasi-Newton direction on the negated objective with backtracking
    Armijo line search; inverse-Hessian updates are skipped when curvature
    is not positive.  Steps that raise numerical errors or produce
    non-finite values are treated as failed trials and backtracked.
    """
    cfg = config or OptimizerConfig()
    obj = LmlObjective(data, init, draws)
    theta = pack(init).values.copy()
    n_par = theta.size
    started = perf_counter()

    f, g = obj.value_and_gradient(theta)
    trace = [(0, f, float(np.linalg.norm(g)), perf_counter() - started)]
    best_f, best_theta = f, theta.copy()
    h_inv = np.eye(n_par)
    gmin = -g
    status = "max_iters"
    iterations = 0

    for it in range(1, cfg.max_iters + 1):
        if np.linalg.norm(g) <= cfg.grad_tol:
            status = "converged"
            break
        direction = -(h_inv @ gmin)
        slope = float(direction @ gmin)
        if slope >= 0.0:
            h_inv = np.eye(n_par)
            direction = -gmin
            slope = -float(gmin @ gmin)
        step = cfg.initial_step
        accepted = False
        for _ in range(cfg.max_backtracks):
            trial = theta + step * direction
            try:
                # Overflow in a rejected trial point is routine; the
                # non-finite checks below turn it into a shorter step.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    f_new, g_new = obj.value_and_gradient(trial)
            except (NumericalError, DataError, OverflowError):
                # exp over- or underflow while unpacking the trial point, or
                # a non-finite feature matrix
                f_new = -np.inf
            if np.isfinite(f_new) and -f_new <= -f + cfg.armijo_c * step * slope:
                accepted = True
                break
            step *= cfg.backtrack
        if not accepted:
            status = "line_search_failed"
            warnings.warn(
                f"line search failed at iteration {it}; returning best point seen",
                NumericsWarning,
                stacklevel=2,
            )
            break
        s_vec = step * direction
        y_vec = -g_new - gmin
        sy = float(y_vec @ s_vec)
        if sy > 1e-10 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            rho = 1.0 / sy
            outer = np.outer(s_vec, y_vec)
            h_inv = (
                h_inv
                - rho * (outer @ h_inv + h_inv @ outer.T)
                + rho * rho * (y_vec @ (h_inv @ y_vec)) * np.outer(s_vec, s_vec)
                + rho * np.outer(s_vec, s_vec)
            )
        theta = theta + s_vec
        f, g = f_new, g_new
        gmin = -g
        iterations = it
        if f > best_f:
            best_f, best_theta = f, theta.copy()
        trace.append((it, f, float(np.linalg.norm(g)), perf_counter() - started))
        if callback is not None:
            callback(it, f, float(np.linalg.norm(g)))
    else:
        if np.linalg.norm(g) <= cfg.grad_tol:
            status = "converged"

    spec = unpack(best_theta, init)
    return FitResult(
        spec=spec,
        packed=HyperParamVector(best_theta, obj.labels),
        final_lml=best_f,
        trace=tuple(trace),
        seed=draws.seed,
        num_samples=draws.num_samples,
        iterations=iterations,
        status=status,
    )
