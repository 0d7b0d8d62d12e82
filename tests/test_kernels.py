"""The numpy kernels: banded assembly, the band product and cumulative quadrature."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracosc import kernels
from diracosc.numerics import _dirac_minus_e


def reference_dirac(f, m, v, h, r):
    """The physical-gauge complex stencil, assembled entry by entry."""
    n = f.shape[0]
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    up = 2 * np.arange(n)
    lo = up + 1
    c = 1.0 / (2.0 * h)
    # sigma_x p
    H[up[:-1], lo[1:]] += -1j * c
    H[up[1:], lo[:-1]] += 1j * c
    H[lo[:-1], up[1:]] += -1j * c
    H[lo[1:], up[:-1]] += 1j * c
    # -sigma_y f
    H[up, lo] += 1j * f
    H[lo, up] += -1j * f
    # sigma_z m + v
    H[up, up] += m + v
    H[lo, lo] += -m + v
    if r != 0.0:
        w = r / h
        H[up, up] += w
        H[lo, lo] += -w
        H[up[:-1], up[1:]] += -w / 2.0
        H[up[1:], up[:-1]] += -w / 2.0
        H[lo[:-1], lo[1:]] += w / 2.0
        H[lo[1:], lo[:-1]] += w / 2.0
    return H


def gauge(n):
    """Diagonal of U = diag(1, i, 1, i, ...) on n interleaved nodes."""
    u = np.ones(2 * n, dtype=complex)
    u[1::2] = 1j
    return u


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    r=st.floats(0.0, 2.0),
    energy=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_matches_assembled_matrix(n, r, energy, seed):
    # random profiles and spinor on a small grid: the gauged band is the
    # complex stencil entry for entry, the band product is the dense product,
    # and the matrix-free (H - E) psi agrees with it, end stencils included
    rng = np.random.default_rng(seed)
    h = 20.0 / (n - 1)
    f, m, v = rng.uniform(-5.0, 5.0, size=(3, n))
    u = gauge(n)
    band = kernels.assemble_dirac(f, m, v, h, r)
    dense = kernels.band_dense(band)
    assert np.array_equal(u[:, None] * dense * u.conj(), reference_dirac(f, m, v, h, r))

    schrodinger = kernels.assemble_schrodinger(f, h)
    for b in (band, schrodinger):
        dim = b.shape[1]
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        ref = kernels.band_dense(b) @ block
        assert np.allclose(kernels.band_matvec(b, block), ref, atol=1e-12, rtol=0)
        assert np.allclose(kernels.band_matvec(b, block[:, 0]), ref[:, 0],
                           atol=1e-12, rtol=0)

    p1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    p2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec = np.empty(2 * n, dtype=complex)
    vec[0::2] = p1
    vec[1::2] = p2
    ref = reference_dirac(f, m, v, h, 0.0) @ vec - energy * vec
    o1, o2 = _dirac_minus_e(f, m, v, h, p1, p2, energy)
    assert np.allclose(o1, ref[0::2], atol=1e-12, rtol=0)
    assert np.allclose(o2, ref[1::2], atol=1e-12, rtol=0)


def test_cumulative_simpson_against_closed_forms():
    x = np.linspace(-8, 8, 4001)
    h = x[1] - x[0]
    c = len(x) // 2
    got = kernels.cumulative_simpson_center(np.tanh(x), h, c)
    assert np.max(np.abs(got - np.log(np.cosh(x)))) < 1e-10
    got = kernels.cumulative_simpson_center(np.cos(x), h, c)
    assert np.max(np.abs(got - np.sin(x))) < 1e-10


def test_cumulative_simpson_fourth_order():
    errs = []
    for n in (1001, 2001):
        x = np.linspace(-4, 4, n)
        h = x[1] - x[0]
        got = kernels.cumulative_simpson_center(np.exp(x), h, n // 2)
        errs.append(np.max(np.abs(got - (np.exp(x) - 1.0))))
    assert errs[0] / errs[1] > 12  # fourth order: ~16x per halving
