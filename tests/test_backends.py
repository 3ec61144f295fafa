import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lfmrff import backends
from lfmrff.kernels import latent_block

RNG = np.random.default_rng(8)
T = np.sort(RNG.uniform(0.0, 3.0, 37))
LAM = RNG.normal(scale=2.0, size=23)


def test_dispatchers_return_expected_shapes():
    v = backends.ode1_fill(T, LAM, 1.0)
    assert v.shape == (T.size, LAM.size) and v.dtype == np.complex128
    h = np.ones_like(v)
    for col in backends.ode1_grads(T, LAM, 1.0, h, v):
        assert col.shape == LAM.shape and col.dtype == np.float64
    v = backends.ode2_fill(T, LAM, 1.0, -1.0, -2.0)
    out = backends.ode2_grads(T, LAM, 1.0, -1.0, -2.0, h, v)
    assert len(out) == 5
    assert all(col.shape == LAM.shape for col in out)
    hv, dcoeffs, dlam = backends.residue_grads(T, LAM, [-1.0, -2.0], 1.0, h, v)
    assert dcoeffs.shape == (3, LAM.size) and dlam.shape == hv.shape == LAM.shape


# ---------------------------------------------------------------------------
# gradient contractions against materialized derivative blocks
#
# The reference blocks are the closed forms the contractions replaced; each
# contraction must equal Re sum_i H * block column by column.


def ode1_blocks(t, lam, gamma):
    """(v, dv/dgamma, dv/dlam) for a first-order operator."""
    den = gamma + 1j * lam[None, :]
    e_lam = np.exp(1j * np.outer(t, lam))
    e_gam = np.exp(-gamma * t)[:, None]
    v = (e_lam - e_gam) / den
    dv_dgamma = (t[:, None] * e_gam - v) / den
    dv_dlam = 1j * (t[:, None] * e_lam - v) / den
    return v, dv_dgamma, dv_dlam


def ode2_blocks(t, lam, mass, s1, s2):
    """(v, dv/dm, dv/dc, dv/db, dv/dlam) for a second-order operator."""
    s3 = 1j * lam[None, :]
    d12 = s1 - s2
    d13 = s1 - s3
    d23 = s2 - s3
    a1 = 1.0 / (d12 * d13)
    a2 = -1.0 / (d12 * d23)
    a3 = 1.0 / (d13 * d23)
    tc = t[:, None]
    e1 = np.exp(s1 * tc)
    e2 = np.exp(s2 * tc)
    e3 = np.exp(s3 * tc)
    f = a1 * e1 + a2 * e2 + a3 * e3
    df_ds1 = (-a1 * (1.0 / d12 + 1.0 / d13) + a1 * tc) * e1 - (a2 / d12) * e2 - (a3 / d13) * e3
    df_ds2 = (a1 / d12) * e1 + (a2 * (1.0 / d12 - 1.0 / d23) + a2 * tc) * e2 - (a3 / d23) * e3
    df_ds3 = (a1 / d13) * e1 + (a2 / d23) * e2 + (a3 * (1.0 / d13 + 1.0 / d23) + a3 * tc) * e3
    md12 = mass * d12
    ds1_dm = -s1 * s1 / md12
    ds2_dm = s2 * s2 / md12
    ds1_dc = -s1 / md12
    ds2_dc = s2 / md12
    ds1_db = -1.0 / md12
    ds2_db = 1.0 / md12
    v = f / mass
    dv_dm = (df_ds1 * ds1_dm + df_ds2 * ds2_dm - v) / mass
    dv_dc = (df_ds1 * ds1_dc + df_ds2 * ds2_dc) / mass
    dv_db = (df_ds1 * ds1_db + df_ds2 * ds2_db) / mass
    dv_dlam = 1j * df_ds3 / mass
    return v, dv_dm, dv_dc, dv_db, dv_dlam


def residue_blocks(t, lam, coeffs):
    """(v, [dv/da_0..dv/da_P], dv/dlam) for a general operator, term by term.

    Roots are r_0..r_{P-1} = the system roots and r_P = j*lam per column;
    v = (1/a_0) sum_m c_m e^{r_m t} with c_m = 1/prod_{n != m}(r_m - r_n).
    """
    a0, p_count = coeffs[0], len(coeffs) - 1
    roots = np.roots(coeffs)
    tc = t[:, None]
    all_roots = [np.full(lam.size, r, dtype=complex) for r in roots] + [1j * lam]
    c = []
    for m, r_m in enumerate(all_roots):
        prod = np.ones(lam.size, dtype=complex)
        for n, r_n in enumerate(all_roots):
            if n != m:
                prod = prod * (r_m - r_n)
        c.append(1.0 / prod)
    e = [np.exp(tc * r[None, :]) for r in all_roots]
    v = sum(c_m * e_m for c_m, e_m in zip(c, e)) / a0
    df = []
    for m, r_m in enumerate(all_roots):
        block = c[m] * tc * e[m]
        for n, r_n in enumerate(all_roots):
            if n != m:
                block = block - c[m] / (r_m - r_n) * e[m] + c[n] / (r_n - r_m) * e[n]
        df.append(block)
    dv = []
    for i in range(p_count + 1):
        block = np.zeros_like(v)
        for p, s_p in enumerate(roots):
            slope = np.polyval(np.polyder(coeffs), s_p)
            block = block - df[p] * s_p ** (p_count - i) / slope
        dv.append(block / a0 - (v / a0 if i == 0 else 0.0))
    return v, dv, 1j * df[p_count] / a0


# ---------------------------------------------------------------------------
# value fills against the closed forms


def ode2_test_roots(mass, damper, spring):
    root = np.sqrt(complex(damper * damper / (4 * mass * mass) - spring / mass))
    return -damper / (2 * mass) + root, -damper / (2 * mass) - root


def assert_fill_matches(got, ref):
    assert got.shape == ref.shape and got.dtype == np.complex128
    assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_ode1_fill_matches_closed_form():
    assert_fill_matches(backends.ode1_fill(T, LAM, 0.6), ode1_blocks(T, LAM, 0.6)[0])


@pytest.mark.parametrize(
    "mass,damper,spring",
    [(1.0, 3.0, 2.0), (0.7, 1.1, 0.4), (1.0, 2.0, 5.0), (1.4, 0.5, 3.0)],
    ids=["overdamped", "overdamped-m", "underdamped", "underdamped-m"],
)
def test_ode2_fill_matches_closed_form(mass, damper, spring):
    s1, s2 = ode2_test_roots(mass, damper, spring)
    got = backends.ode2_fill(T, LAM, mass, s1, s2)
    assert_fill_matches(got, ode2_blocks(T, LAM, mass, s1, s2)[0])


def test_third_order_fill_matches_term_by_term_sum():
    coeffs = np.polymul([2.0, 1.0], [1.0, 1.0, 4.0])
    got = backends.residue_fill(T, LAM, np.roots(coeffs), coeffs[0])
    assert_fill_matches(got, residue_blocks(T, LAM, coeffs)[0])


def contract(h, block):
    return np.sum((h * block).real, axis=0)


def assert_columns_match(got, blocks, h):
    assert len(got) == len(blocks)
    for col, block in zip(got, blocks):
        ref = contract(h, block)
        assert_allclose(col, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


H = RNG.normal(size=(T.size, LAM.size)) + 1j * RNG.normal(size=(T.size, LAM.size))


def test_ode1_contractions_match_blocks():
    v = backends.ode1_fill(T, LAM, 0.6)
    assert_columns_match(backends.ode1_grads(T, LAM, 0.6, H, v), ode1_blocks(T, LAM, 0.6), H)


@pytest.mark.parametrize(
    "mass,damper,spring",
    [(1.0, 3.0, 2.0), (0.7, 1.1, 0.4), (1.0, 2.0, 5.0), (1.4, 0.5, 3.0)],
    ids=["overdamped", "overdamped-m", "underdamped", "underdamped-m"],
)
def test_ode2_contractions_match_blocks(mass, damper, spring):
    s1, s2 = ode2_test_roots(mass, damper, spring)
    v = backends.ode2_fill(T, LAM, mass, s1, s2)
    got = backends.ode2_grads(T, LAM, mass, s1, s2, H, v)
    assert_columns_match(got, ode2_blocks(T, LAM, mass, s1, s2), H)


def test_third_order_contractions_match_blocks():
    # (2s + 1)(s^2 + s + 4): a_0 = 2, one real root and a complex pair
    coeffs = np.polymul([2.0, 1.0], [1.0, 1.0, 4.0])
    v, dv, dv_dlam = residue_blocks(T, LAM, coeffs)
    # the term-by-term reference agrees with differences of the fill
    step = 1e-6
    for i in range(coeffs.size):
        hi, lo = coeffs.copy(), coeffs.copy()
        hi[i] += step
        lo[i] -= step
        fd = (residue_blocks(T, LAM, hi)[0] - residue_blocks(T, LAM, lo)[0]) / (2 * step)
        assert_allclose(dv[i], fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))
    hv, dcoeffs, dlam = backends.residue_grads(T, LAM, np.roots(coeffs), coeffs[0], H, v)
    assert_columns_match([hv, *dcoeffs, dlam], [v, *dv, dv_dlam], H)


# ---------------------------------------------------------------------------
# the chunked cos/sin fills against the one-shot exponential forms


def exp_form_residue_fill(t, lam, roots, leading):
    """The fill as one complex exponential of the whole block plus the system terms."""
    s = np.asarray(roots, dtype=complex)
    x = 1j * lam
    a_sys = backends._residues(s, x)[3]
    a_exc = 1.0 / np.prod(x[None, :] - s[:, None], axis=0)
    v = np.exp(np.outer(t, x))
    v *= a_exc / leading
    v += np.exp(np.outer(t, s)) @ (a_sys / leading)
    return v


@pytest.mark.parametrize(
    "roots,leading",
    [([-0.6], 1.0), ([-1.0, -2.0], 1.0), ([-1.0 + 2.0j, -1.0 - 2.0j], 1.4),
     (np.roots([2.0, 3.0, 9.0, 4.0]), 2.0)],
    ids=["ode1", "ode2-overdamped", "ode2-underdamped", "order3"],
)
def test_chunked_residue_fill_is_bitwise_the_exponential_form(roots, leading):
    t = np.concatenate([[0.0], RNG.uniform(0.0, 5.0, 2 * backends.CHUNK_ROWS + 2)])
    got = backends.residue_fill(t, LAM, roots, leading)
    assert_array_equal(got, exp_form_residue_fill(t, LAM, roots, leading))
    # any one row alone, including the only row of a fill, keeps its bits
    for i in (0, 5, t.size - 1):
        one = backends.residue_fill(t[i : i + 1], LAM, roots, leading)
        assert_array_equal(one, got[i : i + 1])


def test_chunked_mogp_fill_is_bitwise_the_exponential_form():
    x = RNG.uniform(-1.0, 1.0, size=(2 * backends.CHUNK_ROWS + 3, 2))
    lam = RNG.normal(size=(LAM.size, 2))
    amp = RNG.uniform(0.1, 2.0, LAM.size)
    got = backends.mogp_fill(x, lam, amp)
    assert_array_equal(got, amp[None, :] * np.exp(1j * (x @ lam.T)))
    assert_array_equal(backends.mogp_fill(x[7:8], lam, amp), got[7:8])


@pytest.mark.parametrize("times", [
    np.array([0.0]),
    np.array([2.7]),
    np.concatenate([np.linspace(0.0, 5.0, 40), 1e3 / np.abs(LAM[:3])]),
], ids=["t0", "one-row", "grid-to-1e3"])
def test_latent_block_is_bitwise_the_exponential_form(times):
    # the last rows put |lam t| at 1e3 in some column
    want = np.exp(1j * np.outer(times, LAM)) / np.sqrt(LAM.size)
    assert_array_equal(latent_block(times, LAM), want)
