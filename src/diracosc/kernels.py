"""Hot numeric kernels: banded Hamiltonian assembly, band product, quadrature.

Both operators are stored as the lower band of a real symmetric matrix,
band[d, j] = H[j + d, j], unused row tails zero. The first-order operator
lives on interleaved nodes (index 2j is the upper component at node j, 2j+1
the lower one) in the real gauge: the physical Hermitian matrix is
U H U^dagger with U = diag(1, i, 1, i, ...).
"""

import numpy as np


def assemble_dirac(f, m, v, h, r):
    """Lower band (4, 2n) of the first-order operator in the real gauge.

    In the physical gauge momentum enters through antisymmetric central
    differences (-i/2h on the off-diagonal spinor-swapped neighbors), the
    oscillator profile f through +/- i f on the same-node spinor swap, the
    mass m with opposite signs on the two components, and v on both. A
    second-difference regulator of strength r (opposite sign on the two
    components) lifts the lattice doubler branch by 2r/h; r = 0 disables it.
    End stencils are truncated, which pins the wavefunction to zero one
    spacing outside the last node.
    """
    n = f.shape[0]
    c = 1.0 / (2.0 * h)
    w = r / h
    band = np.zeros((4, 2 * n))
    # sigma_z m + v, regulator diagonal
    band[0, 0::2] = m + v + w
    band[0, 1::2] = -m + v - w
    # -sigma_y f on the node, sigma_x p from the lower component to the next upper
    band[1, 0::2] = -f
    band[1, 1:-1:2] = -c
    # regulator between neighboring nodes of the same component
    band[2, 0:-2:2] = -w / 2.0
    band[2, 1:-2:2] = w / 2.0
    # sigma_x p from the upper component to the next lower
    band[3, 0:-2:2] = c
    return band


def assemble_schrodinger(pot, h):
    """Lower band (2, n) of -d2/dx2 + pot with truncated end stencils."""
    n = pot.shape[0]
    band = np.zeros((2, n))
    band[0] = 2.0 / h**2 + pot
    band[1, :-1] = -1.0 / h**2
    return band


def band_matvec(band, x):
    """H @ x for the symmetric matrix with lower band `band`.

    x is a vector or a block of columns (first axis along the band).
    """
    col = (slice(None),) + (None,) * (x.ndim - 1)
    y = band[0][col] * x
    for d in range(1, band.shape[0]):
        y[d:] += band[d, :-d][col] * x[:-d]
        y[:-d] += band[d, :-d][col] * x[d:]
    return y


def band_dense(band):
    """Full symmetric matrix with lower band `band`.

    Fortran order, so LAPACK can overwrite it in place instead of copying.
    """
    n = band.shape[1]
    H = np.zeros((n, n), order="F")
    j = np.arange(n)
    for d in range(band.shape[0]):
        H[j[d:], j[:n - d]] = band[d, :n - d]
        H[j[:n - d], j[d:]] = band[d, :n - d]
    return H


def _interval_integral(w, h):
    """Integral of w over each interval [x_j, x_{j+1}], fourth order.

    Interior intervals average the two bracketing quadratic fits, which
    cancels their leading error: h/24 * (-w[j-1] + 13 w[j] + 13 w[j+1]
    - w[j+2]). The first and last interval fall back to the one-sided
    quadratic; they occur once per side so the cumulative order is kept.
    """
    n = w.shape[0]
    inc = np.empty(n - 1)
    inc[0] = h / 12.0 * (5.0 * w[0] + 8.0 * w[1] - w[2])
    inc[-1] = h / 12.0 * (-w[-3] + 8.0 * w[-2] + 5.0 * w[-1])
    if n > 3:
        inc[1:-1] = h / 24.0 * (-w[:-3] + 13.0 * w[1:-2] + 13.0 * w[2:-1] - w[3:])
    return inc


def cumulative_simpson_center(w, h, center):
    """Cumulative integral of sampled w from the center node outward.

    I[j] approximates the integral from x[center] to x[j]; fourth-order
    accurate (see _interval_integral). Needs at least 2 nodes on each
    side of the center.
    """
    n = w.shape[0]
    inc = _interval_integral(w, h)
    out = np.zeros(n)
    out[center + 1:] = np.cumsum(inc[center:])
    out[center - 1::-1] = -np.cumsum(inc[center - 1::-1])
    return out
