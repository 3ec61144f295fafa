"""Hot inner loops: feature fills and gradient contractions.

Each value fill exists twice, a ``@njit`` version and a pure-numpy
broadcasting version computing identical formulas.  Selection is
process-wide via the ``LFMRFF_BACKEND`` environment variable (``numba`` or
``numpy``); the default is numba when importable.

The gradient contractions exist once, in numpy.  They never form a
derivative block: each reduces a block to a few per-column statistics with
matrix products and then works on vectors of length S, so there is no
elementwise loop for a compiler to speed up.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


def _select_backend():
    env = os.environ.get("LFMRFF_BACKEND", "").strip().lower()
    if env in ("numpy", "python"):
        return "numpy"
    if env == "numba":
        if not HAVE_NUMBA:
            raise ImportError("LFMRFF_BACKEND=numba but numba is not importable")
        return "numba"
    if env:
        raise ValueError(f"unknown LFMRFF_BACKEND value: {env!r}")
    return "numba" if HAVE_NUMBA else "numpy"


_BACKEND = _select_backend()


def backend_name() -> str:
    """Active backend, ``numba`` or ``numpy``."""
    return _BACKEND


# ---------------------------------------------------------------------------
# ODE1: v = (exp(j*lam*t) - exp(-gamma*t)) / (gamma + j*lam)


def _ode1_fill_np(t, lam, gamma):
    den = gamma + 1j * lam[None, :]
    return (np.exp(1j * np.outer(t, lam)) - np.exp(-gamma * t)[:, None]) / den


@njit(cache=True)
def _ode1_fill_nb(t, lam, gamma):  # pragma: no cover - exercised via dispatch
    out = np.empty((t.size, lam.size), dtype=np.complex128)
    for i in range(t.size):
        e_gam = np.exp(-gamma * t[i])
        for k in range(lam.size):
            den = gamma + 1j * lam[k]
            out[i, k] = (np.exp(1j * lam[k] * t[i]) - e_gam) / den
    return out


# ---------------------------------------------------------------------------
# ODE2: v = (A1 e^{s1 t} + A2 e^{s2 t} + A3 e^{s3 t}) / m,  s3 = j*lam.
# Partial-fraction coefficients over the three pairwise-distinct roots.


def _ode2_fill_np(t, lam, mass, s1, s2):
    s3 = 1j * lam[None, :]
    d12 = s1 - s2
    d13 = s1 - s3
    d23 = s2 - s3
    a1 = 1.0 / (d12 * d13)
    a2 = -1.0 / (d12 * d23)
    a3 = 1.0 / (d13 * d23)
    tc = t[:, None]
    return (a1 * np.exp(s1 * tc) + a2 * np.exp(s2 * tc) + a3 * np.exp(s3 * tc)) / mass


@njit(cache=True)
def _ode2_fill_nb(t, lam, mass, s1, s2):  # pragma: no cover
    n, m = t.size, lam.size
    out = np.empty((n, m), dtype=np.complex128)
    d12 = s1 - s2
    for i in range(n):
        ti = t[i]
        e1 = np.exp(s1 * ti)
        e2 = np.exp(s2 * ti)
        for k in range(m):
            s3 = 1j * lam[k]
            d13 = s1 - s3
            d23 = s2 - s3
            a1 = 1.0 / (d12 * d13)
            a2 = -1.0 / (d12 * d23)
            a3 = 1.0 / (d13 * d23)
            out[i, k] = (a1 * e1 + a2 * e2 + a3 * np.exp(s3 * ti)) / mass
    return out


# ---------------------------------------------------------------------------
# dispatch


def ode1_fill(t, lam, gamma):
    """Feature values for a first-order operator, shape (len(t), len(lam))."""
    t = np.ascontiguousarray(t, dtype=float)
    lam = np.ascontiguousarray(lam, dtype=float)
    if _BACKEND == "numba":
        return _ode1_fill_nb(t, lam, float(gamma))
    return _ode1_fill_np(t, lam, float(gamma))


def ode2_fill(t, lam, mass, s1, s2):
    """Feature values for a second-order operator with roots s1, s2."""
    t = np.ascontiguousarray(t, dtype=float)
    lam = np.ascontiguousarray(lam, dtype=float)
    if _BACKEND == "numba":
        return _ode2_fill_nb(t, lam, float(mass), complex(s1), complex(s2))
    return _ode2_fill_np(t, lam, float(mass), complex(s1), complex(s2))


# ---------------------------------------------------------------------------
# gradient contractions
#
# Every response block is a residue sum over the system roots s_1..s_P and
# the excitation root x = j*lam,
#     v = (1/a_0) [sum_p A_p e^{s_p t} + A_x e^{x t}],
#     A_p = R_p / (s_p - x),  R_p = 1 / prod_{n != p} (s_p - s_n),
#     A_x = 1 / prod_p (x - s_p).
# Differentiating a residue sum in one of its roots r_m gives
#     (t - D_m) A_m e^{r_m t} + sum_{n != m} A_n / (r_n - r_m) e^{r_n t},
# D_m = sum_{n != m} 1 / (r_m - r_n), so its contraction with a block h
# needs only F_p = h^T e_p and Ft_p = h^T (t e_p), which are small matrix
# products, and the e^{x t} sums X = colsum(h * E), Xt = colsum(h * t E).
# A_x X and A_x Xt are read off a_0 colsum(h * v) and a_0 colsum(h * t v)
# less the system terms, so the only full-size pass is h * v.  Operator
# coefficients follow by the implicit function theorem on the
# characteristic polynomial a(s) = sum_i a_i s^(P-i):
#     ds_p/da_i = -s_p^(P-i) / a'(s_p),  a'(s_p) = a_0 / R_p,
# plus -v/a_0 for a_0, which also divides the sum.


def residue_grads(t, lam, roots, leading, h, v):
    """Per-column contractions of ``h`` against a response block's derivatives.

    ``v`` is the (len(t), len(lam)) response of an operator with distinct
    characteristic ``roots`` and leading coefficient a_0 = ``leading`` to
    exp(j*lam*t), the block a fill returned; ``h`` has its shape.  Returns
    (hv, dcoeffs, dlam), where for column k

        hv[k]         = Re sum_i h[i, k] v[i, k],
        dcoeffs[i, k] = Re sum_i h[i, k] dv[i, k]/da_i   (i = 0..P),
        dlam[k]       = Re sum_i h[i, k] dv[i, k]/dlam_k.
    """
    t = np.ascontiguousarray(t, dtype=float)
    s = np.asarray(roots, dtype=complex)
    x = 1j * np.asarray(lam, dtype=float)
    p_count = s.size
    diff = s[:, None] - s[None, :]
    np.fill_diagonal(diff, 1.0)
    res = 1.0 / np.prod(diff, axis=1)  # R_p
    inv_diff = 1.0 / diff
    np.fill_diagonal(inv_diff, 0.0)
    inv_sx = 1.0 / (s[:, None] - x[None, :])  # (P, S)
    a_sys = res[:, None] * inv_sx  # A_p

    e = np.exp(np.outer(t, s))
    f_all = np.concatenate([e, t[:, None] * e], axis=1).T @ h  # (2P, S)
    f, ft = f_all[:p_count], f_all[p_count:]
    hv_all = np.stack([np.ones_like(t), t]) @ (h * v)  # colsum(h v), colsum(h t v)
    hv, hvt = hv_all[0], hv_all[1]
    af = a_sys * f
    y = leading * hv - af.sum(axis=0)  # A_x X
    yt = leading * hvt - (a_sys * ft).sum(axis=0)  # A_x Xt

    # contractions with df/ds_p (holomorphic in each root) and df/dx
    d_sys = inv_diff.sum(axis=1)[:, None] + inv_sx
    c_sys = a_sys * (ft - d_sys * f) - inv_diff @ af - inv_sx * y[None, :]
    c_exc = yt + inv_sx.sum(axis=0) * y + (inv_sx * af).sum(axis=0)

    powers = s[:, None] ** np.arange(p_count, -1, -1)[None, :]  # s_p^(P-i)
    ds_da = -powers * (res / leading)[:, None]  # (P, P+1)
    dcoeffs = (ds_da.T @ c_sys).real / leading
    dcoeffs[0] -= hv.real / leading
    dlam = -c_exc.imag / leading  # Re(j c_exc) / a_0
    return hv.real, dcoeffs, dlam


def ode1_grads(t, lam, gamma, h, v):
    """(hv, h.dv/dgamma, h.dv/dlam): per-column contractions, see residue_grads.

    ``v`` is ``ode1_fill(t, lam, gamma)``.
    """
    hv, dcoeffs, dlam = residue_grads(t, lam, [-float(gamma)], 1.0, h, v)
    return hv, dcoeffs[1], dlam


def ode2_grads(t, lam, mass, s1, s2, h, v):
    """(hv, h.dv/dm, h.dv/dc, h.dv/db, h.dv/dlam) per column, see residue_grads.

    ``v`` is ``ode2_fill(t, lam, mass, s1, s2)``.
    """
    hv, dcoeffs, dlam = residue_grads(
        t, lam, [complex(s1), complex(s2)], float(mass), h, v
    )
    return hv, dcoeffs[0], dcoeffs[1], dcoeffs[2], dlam
