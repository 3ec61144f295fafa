import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfmrff import backends

needs_numba = pytest.mark.skipif(not backends.HAVE_NUMBA, reason="numba unavailable")

RNG = np.random.default_rng(8)
T = np.sort(RNG.uniform(0.0, 3.0, 37))
LAM = RNG.normal(scale=2.0, size=23)


@needs_numba
def test_ode1_fill_backends_agree():
    a = backends._ode1_fill_np(T, LAM, 1.3)
    b = backends._ode1_fill_nb(T, LAM, 1.3)
    assert_allclose(a, b, rtol=1e-13, atol=1e-15)


@needs_numba
@pytest.mark.parametrize(
    "mass,damper,spring",
    [(1.0, 3.0, 2.0), (1.0, 2.0, 5.0), (0.7, 1.1, 0.4)],
)
def test_ode2_backends_agree(mass, damper, spring):
    disc = complex(damper * damper / (4 * mass * mass) - spring / mass)
    root = np.sqrt(disc)
    s1 = -damper / (2 * mass) + root
    s2 = -damper / (2 * mass) - root
    assert_allclose(
        backends._ode2_fill_np(T, LAM, mass, s1, s2),
        backends._ode2_fill_nb(T, LAM, mass, s1, s2),
        rtol=1e-13,
        atol=1e-15,
    )


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
    root = np.sqrt(complex(damper * damper / (4 * mass * mass) - spring / mass))
    s1 = -damper / (2 * mass) + root
    s2 = -damper / (2 * mass) - root
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


def _run_with_backend(value):
    code = (
        "from lfmrff import backends\n"
        "print(backends.backend_name())\n"
    )
    env = {"LFMRFF_BACKEND": value} if value else {}
    import os

    full_env = dict(os.environ)
    full_env.pop("LFMRFF_BACKEND", None)
    full_env.update(env)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=full_env
    )


def test_env_flag_selects_numpy():
    result = _run_with_backend("numpy")
    assert result.returncode == 0
    assert result.stdout.strip() == "numpy"


@needs_numba
def test_env_flag_selects_numba():
    result = _run_with_backend("numba")
    assert result.returncode == 0
    assert result.stdout.strip() == "numba"


def test_env_flag_rejects_unknown():
    result = _run_with_backend("cuda")
    assert result.returncode != 0
    assert "LFMRFF_BACKEND" in result.stderr


def test_numpy_backend_full_pipeline():
    """The pure-numpy path must run the whole fit, not just the fills."""
    code = (
        "import numpy as np\n"
        "from lfmrff import backends\n"
        "assert backends.backend_name() == 'numpy'\n"
        "from lfmrff.model import LfmSpec, Ode2Params, Dataset\n"
        "from lfmrff.features import sample_frequencies\n"
        "from lfmrff.likelihood import optimize, OptimizerConfig\n"
        "spec = LfmSpec((Ode2Params(1.0, 3.0, 2.0),), 1, [1.0], [[1.0]], [0.1])\n"
        "t = np.linspace(0, 3, 12)\n"
        "data = Dataset(np.ones(12, int), t, np.sin(t))\n"
        "fit = optimize(spec, data, sample_frequencies(8, 1, 0),"
        " OptimizerConfig(max_iters=3))\n"
        "assert fit.final_lml >= fit.trace[0][1]\n"
        "print('ok')\n"
    )
    result = _run_with_backend("numpy")
    import os

    env = dict(os.environ)
    env["LFMRFF_BACKEND"] = "numpy"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
