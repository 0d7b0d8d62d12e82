"""The numpy kernels: banded assembly in the sigma_y basis (staggered chain
and per-node Wilson band), the band product and cumulative quadrature."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracosc import kernels
from diracosc.numerics import _dirac_minus_e


def five_point_derivative(n, h):
    """The derivative the residual stencil takes, row by row: (1, -8, 0, 8,
    -1)/12h on nodes 2..n-3 and (-1, 0, 1)/2h on the two nodes at each end,
    with zero outside the box."""
    D = np.zeros((n, n))
    for i in range(n):
        if 2 <= i <= n - 3:
            D[i, i - 2:i + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
        else:
            for col, c in ((i - 1, -0.5), (i + 1, 0.5)):
                if 0 <= col < n:
                    D[i, col] = c / h
    return D


def reference_dirac(f, m, v, h, r, derivative=None):
    """The physical-gauge complex stencil, assembled entry by entry; sigma_x p
    is -i times `derivative` (a dense matrix) when one is given, else the
    central difference."""
    n = f.shape[0]
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    up = 2 * np.arange(n)
    lo = up + 1
    c = 1.0 / (2.0 * h)
    # sigma_x p
    if derivative is not None:
        H[np.ix_(up, lo)] += -1j * derivative
        H[np.ix_(lo, up)] += -1j * derivative
    else:
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


def sigma_y_map(n):
    """P = I (x) [[1, 1], [-i, i]]/sqrt2: sigma_y-basis (w, u) to physical (psi1, psi2)."""
    return np.kron(np.eye(n), np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2.0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    r=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_matches_assembled_matrix(n, r, seed):
    # random profiles on a small grid: the sigma_y band mapped to physical
    # components is the complex stencil, its entries are the closed forms,
    # and the band product is the dense product
    rng = np.random.default_rng(seed)
    h = 20.0 / (n - 1)
    f, m, v = rng.uniform(-5.0, 5.0, size=(3, n))
    p = sigma_y_map(n)
    band = kernels.assemble_wilson(f, m, v, h, r)
    dense = kernels.band_dense(band)
    assert np.allclose(p @ dense @ p.conj().T, reference_dirac(f, m, v, h, r),
                       atol=1e-12, rtol=0)

    diag = np.empty(2 * n)
    diag[0::2], diag[1::2] = v + f, v - f
    assert np.array_equal(band[0], diag)
    assert not band[2].any()
    assert not kernels.assemble_wilson(f, m, v, h, 1.0)[2:].any()

    schrodinger = kernels.assemble_schrodinger(f, h)
    for b in (band, schrodinger):
        dim = b.shape[1]
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        ref = kernels.band_dense(b) @ block
        assert np.allclose(kernels.band_matvec(b, block), ref, atol=1e-12, rtol=0)
        assert np.allclose(kernels.band_matvec(b, block[:, 0]), ref[:, 0],
                           atol=1e-12, rtol=0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    h=st.floats(0.05, 2.0),
    energy=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dirac_minus_e_is_the_dense_stencil(n, h, energy, seed):
    # the residual stencil on (psi1, psi2) against the dense r = 0 matrix
    # with the five-point derivative, end stencils included, for random
    # profiles and a complex spinor
    rng = np.random.default_rng(seed)
    f, m, v = rng.uniform(-5.0, 5.0, size=(3, n))
    p1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    p2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec = np.empty(2 * n, dtype=complex)
    vec[0::2] = p1
    vec[1::2] = p2
    ref = (reference_dirac(f, m, v, h, 0.0, five_point_derivative(n, h)) @ vec
           - energy * vec)
    o1, o2 = _dirac_minus_e(f, m, v, h, p1, p2, energy)
    assert np.allclose(o1, ref[0::2], atol=1e-12, rtol=0)
    assert np.allclose(o2, ref[1::2], atol=1e-12, rtol=0)


def reference_staggered(f, m, v, h):
    """The staggered chain row by row: (v + f) w + (m + d/dx) u at a node,
    (m - d/dx) w + (v - f) u at a midpoint, m taken on the bond between the
    two points a central difference joins."""
    dim = f.shape[0]
    H = np.zeros((dim, dim))
    for k in range(dim):
        sign = 1.0 if k % 2 == 0 else -1.0
        H[k, k] = v[k] + sign * f[k]
        if k + 1 < dim:
            H[k, k + 1] = m[k] / 2.0 + sign / h
        if k > 0:
            H[k, k - 1] = m[k - 1] / 2.0 - sign / h
    return H


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), h=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
def test_staggered_chain_matches_its_stencil(n, h, seed):
    # the band is tridiagonal, symmetric and holds the stencil's entries
    rng = np.random.default_rng(seed)
    f, v = rng.uniform(-5.0, 5.0, size=(2, 2 * n - 1))
    m = rng.uniform(-5.0, 5.0, size=2 * n - 2)
    band = kernels.assemble_dirac(f, m, v, h)
    assert band.shape == (2, 2 * n - 1) and band[1, -1] == 0.0
    assert np.allclose(kernels.band_dense(band), reference_staggered(f, m, v, h),
                       atol=1e-12, rtol=0)


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
