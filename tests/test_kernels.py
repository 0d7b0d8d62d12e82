"""The numpy kernels: matrix-free application and cumulative quadrature."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracosc import kernels


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    r=st.floats(0.0, 2.0),
    energy=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_matches_assembled_matrix(n, r, energy, seed):
    # random profiles and spinor on a small grid: the matrix-free (H - E) psi
    # must agree with the assembled operator, end stencils included
    rng = np.random.default_rng(seed)
    h = 20.0 / (n - 1)
    f, m, v = rng.uniform(-5.0, 5.0, size=(3, n))
    p1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    p2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    H = kernels.assemble_dirac(f, m, v, h, r)
    vec = np.empty(2 * n, dtype=complex)
    vec[0::2] = p1
    vec[1::2] = p2
    ref = H @ vec - energy * vec
    o1, o2 = kernels.dirac_apply(f, m, v, h, r, p1, p2, energy)
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
