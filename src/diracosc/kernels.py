"""Hot numeric kernels: banded Hamiltonian assembly, band product, quadrature.

Every operator is stored as the lower band of a real symmetric matrix,
band[d, j] = H[j + d, j], unused row tails zero. The first-order operator
lives in the sigma_y basis w = (psi1 + i psi2)/sqrt2, u = (psi1 - i psi2)/sqrt2,
where it is real symmetric with the physical spectrum. `assemble_dirac`
builds the staggered chain the census workflows solve: w on the nodes, u on
the midpoints, interleaved, so it is tridiagonal and needs no regulator.
`assemble_wilson` builds the per-node Wilson band the library tests use,
index 2j holding w_j and 2j + 1 holding u_j; it is tridiagonal at r = 1, and
`band_dense` expands it for the dense solve that other r need. `band_matvec`
is the product the eigensolver takes its residuals with; the residual
diagnostics of numerics need no band.
"""

import numpy as np


def assemble_dirac(f, m, v, h):
    """Lower band (2, 2n - 1) of the staggered first-order operator.

    f and v are sampled at the 2n - 1 half-step points x_0, x_0 + h/2, ...,
    x_{n-1}, and m at the 2n - 2 points a quarter step to the right of each
    but the last. The chain interleaves w on the nodes with u on the
    midpoints: the diagonal holds v + f at a node and v - f at a midpoint,
    and the bond from a node to the midpoint on its right holds m/2 + 1/h,
    the bond from a midpoint to the next node m/2 - 1/h. Both ends are w
    nodes, which pins u to zero half a spacing outside the box.
    """
    band = np.zeros((2, f.shape[0]))
    band[0, 0::2] = v[0::2] + f[0::2]
    band[0, 1::2] = v[1::2] - f[1::2]
    band[1, :-1] = 0.5 * m
    band[1, 0:-1:2] += 1.0 / h
    band[1, 1:-1:2] -= 1.0 / h
    return band


def assemble_wilson(f, m, v, h, r):
    """Lower band (4, 2n) of the per-node Wilson operator in the sigma_y basis.

    The physical operator sigma_x p - sigma_y f + sigma_z m + v uses
    antisymmetric central differences for p, plus a second-difference
    regulator of strength r (sigma_z, opposite sign on the two components)
    that lifts the lattice doubler branch by 2r/h; r = 0 disables it. In the
    (w, u) basis the diagonal is v + f on w_j and v - f on u_j, row 1 holds
    m + r/h (w_j to u_j) and -(1 + r)/2h (u_j to w_{j+1}), row 2 is zero and
    row 3 holds (1 - r)/2h (w_j to u_{j+1}), exactly 0.0 at r = 1. End
    stencils are truncated, which pins the wavefunction to zero one spacing
    outside the last node.
    """
    n = f.shape[0]
    band = np.zeros((4, 2 * n))
    band[0, 0::2] = v + f
    band[0, 1::2] = v - f
    band[1, 0::2] = m + r / h
    band[1, 1:-1:2] = -(1.0 + r) / (2.0 * h)
    band[3, 0:-2:2] = (1.0 - r) / (2.0 * h)
    return band


def assemble_schrodinger(pot, h):
    """Lower band (2, n) of -d2/dx2 + pot with truncated end stencils.

    h is squared as a numpy float, which rounds as Python's h**2 does but
    overflows to inf rather than raising: an h whose square underflows to 0
    gives infinite entries, which numerics.eigensolve refuses, and one whose
    square overflows gives a zero stencil.
    """
    with np.errstate(over="ignore", divide="ignore"):
        inv_h2 = 1.0 / np.float64(h) ** 2
    band = np.zeros((2, pot.shape[0]))
    band[0] = 2.0 * inv_h2 + pot
    band[1, :-1] = -inv_h2
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
