"""Hot inner loops: the response-feature fill and its gradient contraction.

Every response block is a residue sum over the operator's characteristic
roots s_1..s_P and the excitation root x = j*lam,

    v = (1/a_0) [sum_p A_p e^{s_p t} + A_x e^{x t}],
    A_p = R_p / (s_p - x),  R_p = 1 / prod_{n != p} (s_p - s_n),
    A_x = 1 / prod_p (x - s_p),

so one fill, ``residue_fill``, serves operators of every order, and one
contraction, ``residue_grads``, reduces a block's derivatives against
dL/dPhi to per-column sums without forming them.  It is two steps: the
row sums of ``residue_sums`` and the O(P^2 S) ``residue_algebra`` on
them.  The objective reads the same row sums off its Gram matrices
instead of rows (see ``likelihood``) and calls ``residue_algebra``
alone.  ``mogp_fill`` is the convolved MOGP's fill.  Nothing in the
library calls ``ode1_fill``, ``ode2_fill``, ``ode1_grads``,
``ode2_grads`` or ``backend_name``: they are kept for the benchmark,
whose tracer wraps the first four and whose report names the backend,
and go with ROADMAP item 1.
Everything is numpy: the work is exponentials and matrix products, with no
elementwise loop for a compiler to speed up.

Both fills keep their temporaries to ``CHUNK_ROWS`` rows, and every row of
a fill has the same bits whatever other rows it is filled with, so a block
filled in row chunks equals the block filled at once.
"""

from __future__ import annotations

import numpy as np

# Rows per chunk of every streamed pass: the fills here, the feature-matrix
# assembly and prediction in ``features`` and ``predict``, and the
# objective's one pass in ``likelihood``.  It bounds each pass's
# temporaries to a few CHUNK_ROWS x R arrays, 1.6 MB each at R = 200,
# small enough to stay in cache (512 to 2048 rows ran equally fast, 4096
# slower); being fixed, it also fixes the summation order, so results
# repeat bit for bit.  A multiple of 4 keeps
# chunked matrix-vector products equal to unchunked ones: OpenBLAS's GEMV
# rounds rows in groups of 4 from the first row.
CHUNK_ROWS = 1024
# Rows of a chunk that one fill call or one prediction product takes at
# once: half a chunk, so the two chunks in flight of a two-thread pass
# hold no more temporaries than one whole chunk did.  Fills of half a
# chunk also ran about 20% faster than whole-chunk ones, their arrays
# fitting in cache; every row keeps its bits (see ``matmul_rows``).
PIECE_ROWS = CHUNK_ROWS // 2


def backend_name() -> str:
    """Array backend of the fills and contractions; always ``numpy``."""
    # kept for the benchmark, which reports it; delete with ROADMAP item 1
    return "numpy"


def _residues(s, x):
    """(R_p, 1/(s_p - s_n) with a zero diagonal, 1/(s_p - x), A_p) for roots s."""
    diff = s[:, None] - s[None, :]
    np.fill_diagonal(diff, 1.0)
    res = 1.0 / np.prod(diff, axis=1)
    inv_diff = 1.0 / diff
    np.fill_diagonal(inv_diff, 0.0)
    inv_sx = 1.0 / (s[:, None] - x[None, :])  # (P, S)
    return res, inv_diff, inv_sx, res[:, None] * inv_sx


def matmul_rows(a, b):
    """a @ b for a 2-D ``a``, each row with the bits it has in a taller ``a``.

    numpy sends a one-row product to a dot or GEMV call, which rounds
    differently from GEMM, and OpenBLAS's GEMV rounds the last n mod 4
    rows apart from the rest; so a single row is multiplied as the last of
    five, where GEMM and GEMV give it the bits of a last row left over.
    """
    if a.shape[0] != 1:
        return a @ b
    return (np.repeat(a, 5, axis=0) @ b)[-1:]


def residue_fill(t, lam, roots, leading):
    """Response to exp(j*lam*t) from rest, shape (len(t), len(lam)).

    ``roots`` are the operator's distinct characteristic roots and
    ``leading`` its leading coefficient a_0.
    """
    t = np.ascontiguousarray(t, dtype=float)
    s = np.asarray(roots, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    x = 1j * lam
    a_sys = _residues(s, x)[3]
    a_exc = 1.0 / np.prod(x[None, :] - s[:, None], axis=0) / leading
    v = matmul_rows(np.exp(np.outer(t, s)), a_sys / leading)
    # add A_x e^{j lam t}, with e^{j lam t} = cos + j sin, a chunk at a time
    scratch = np.empty((min(t.size, CHUNK_ROWS), lam.size), dtype=complex)
    for lo in range(0, t.size, CHUNK_ROWS):
        e = scratch[: min(CHUNK_ROWS, t.size - lo)]
        np.multiply.outer(t[lo : lo + CHUNK_ROWS], lam, out=e.imag)
        np.cos(e.imag, out=e.real)
        np.sin(e.imag, out=e.imag)
        e *= a_exc
        v[lo : lo + CHUNK_ROWS] += e
    return v


def mogp_fill(x, lam, amp):
    """Convolved-MOGP feature amp * exp(j lam.x), shape (len(x), len(lam)).

    ``x`` is (n, p), ``lam`` the (S, p) frequencies and ``amp`` the (S,)
    Gaussian amplitudes.
    """
    v = np.empty((x.shape[0], lam.shape[0]), dtype=complex)
    for lo in range(0, x.shape[0], CHUNK_ROWS):
        arg = matmul_rows(x[lo : lo + CHUNK_ROWS], lam.T)
        np.cos(arg, out=v.real[lo : lo + CHUNK_ROWS])
        np.sin(arg, out=v.imag[lo : lo + CHUNK_ROWS])
    v *= amp
    return v


# kept for the benchmark's tracer, which wraps it; delete with ROADMAP item 1
def ode1_fill(t, lam, gamma):
    """Response of a first-order operator, (e^{j lam t} - e^{-gamma t}) / (gamma + j lam)."""
    return residue_fill(t, lam, [-float(gamma)], 1.0)


# kept for the benchmark's tracer, which wraps it; delete with ROADMAP item 1
def ode2_fill(t, lam, mass, s1, s2):
    """Response of a second-order operator with mass ``mass`` and roots s1, s2."""
    return residue_fill(t, lam, [complex(s1), complex(s2)], float(mass))


# ---------------------------------------------------------------------------
# gradient contractions
#
# Differentiating a residue sum in one of its roots r_m gives
#     (t - D_m) A_m e^{r_m t} + sum_{n != m} A_n / (r_n - r_m) e^{r_n t},
# D_m = sum_{n != m} 1 / (r_m - r_n), so its contraction with a block h
# needs only F_p = h^T e_p and Ft_p = h^T (t e_p), which are small matrix
# products, and the e^{x t} sums X = colsum(h * E), Xt = colsum(h * t E).
# A_x X and A_x Xt are read off a_0 colsum(h * v) and a_0 colsum(h * t v)
# less the system terms, so these four row sums are all the data-sized
# work (``residue_sums``) and the rest is per column.  Operator
# coefficients follow by the implicit function theorem on the
# characteristic polynomial a(s) = sum_i a_i s^(P-i):
#     ds_p/da_i = -s_p^(P-i) / a'(s_p),  a'(s_p) = a_0 / R_p,
# plus -v/a_0 for a_0, which also divides the sum.


def root_exponentials(t, roots):
    """[E | tE] for E = e^{s_p t}, one column per root: shape (len(t), 2P)."""
    t = np.ascontiguousarray(t, dtype=float)
    e = np.exp(np.outer(t, np.asarray(roots, dtype=complex)))
    return np.concatenate([e, t[:, None] * e], axis=1)


def residue_sums(t, roots, h, v):
    """The row sums of ``h`` that ``residue_algebra`` reads, one column each.

    Returns (f, ft, hv, hvt): f = E^T h and ft = (tE)^T h, both (P, S),
    for E = e^{s_p t}, and hv = colsum(h v), hvt = colsum(h t v).
    """
    t = np.ascontiguousarray(t, dtype=float)
    p_count = np.size(roots)
    f_all = root_exponentials(t, roots).T @ h  # (2P, S)
    hv_all = np.stack([np.ones_like(t), t]) @ (h * v)  # colsum(h v), colsum(h t v)
    return f_all[:p_count], f_all[p_count:], hv_all[0], hv_all[1]


def residue_algebra(lam, roots, leading, f, ft, hv, hvt):
    """``residue_grads`` from the row sums of ``residue_sums``: O(P^2 S) work.

    The sums are linear in ``h``, so they may come from anywhere that adds
    them up, such as chunks of rows or the objective's Gram matrices.
    """
    s = np.asarray(roots, dtype=complex)
    x = 1j * np.asarray(lam, dtype=float)
    p_count = s.size
    res, inv_diff, inv_sx, a_sys = _residues(s, x)
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


def residue_grads(t, lam, roots, leading, h, v):
    """Per-column contractions of ``h`` against a response block's derivatives.

    ``v`` is the (len(t), len(lam)) response of an operator with distinct
    characteristic ``roots`` and leading coefficient a_0 = ``leading`` to
    exp(j*lam*t), the block a fill returned; ``h`` has its shape.  Returns
    (hv, dcoeffs, dlam), where for column k

        hv[k]         = Re sum_i h[i, k] v[i, k],
        dcoeffs[i, k] = Re sum_i h[i, k] dv[i, k]/da_i   (i = 0..P),
        dlam[k]       = Re sum_i h[i, k] dv[i, k]/dlam_k.

    It is the row sums of ``residue_sums`` followed by ``residue_algebra``.
    """
    return residue_algebra(lam, roots, leading, *residue_sums(t, roots, h, v))


# kept for the benchmark's tracer, which wraps it; delete with ROADMAP item 1
def ode1_grads(t, lam, gamma, h, v):
    """(hv, h.dv/dgamma, h.dv/dlam): per-column contractions, see residue_grads.

    ``v`` is ``ode1_fill(t, lam, gamma)``.
    """
    hv, dcoeffs, dlam = residue_grads(t, lam, [-float(gamma)], 1.0, h, v)
    return hv, dcoeffs[1], dlam


# kept for the benchmark's tracer, which wraps it; delete with ROADMAP item 1
def ode2_grads(t, lam, mass, s1, s2, h, v):
    """(hv, h.dv/dm, h.dv/dc, h.dv/db, h.dv/dlam) per column, see residue_grads.

    ``v`` is ``ode2_fill(t, lam, mass, s1, s2)``.
    """
    hv, dcoeffs, dlam = residue_grads(
        t, lam, [complex(s1), complex(s2)], float(mass), h, v
    )
    return hv, dcoeffs[0], dcoeffs[1], dcoeffs[2], dlam
