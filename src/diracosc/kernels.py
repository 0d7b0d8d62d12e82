"""Hot numeric kernels: Hamiltonian assembly, matrix-free application, quadrature.

Vectorized numpy implementations on the interleaved two-component layout
used by ``numerics``. The matrix-free application reproduces the assembled
operator exactly, boundary stencils included, so residuals measured without
a matrix agree with it.
"""

import numpy as np


def assemble_dirac(f, m, v, h, r):
    """Dense Hermitian matrix of the first-order operator on interleaved nodes.

    Layout: index 2j is the upper component at node j, 2j+1 the lower one.
    Momentum enters through antisymmetric central differences (-i/2h on the
    off-diagonal spinor-swapped neighbors), the oscillator profile f through
    +/- i f on the same-node spinor swap, the mass m with opposite signs on
    the two components, and v on both. A second-difference regulator of
    strength r (opposite sign on the two components) lifts the lattice
    doubler branch by 2r/h; r = 0 disables it. End stencils are truncated,
    which pins the wavefunction to zero one spacing outside the last node.
    """
    n = f.shape[0]
    H = np.zeros((2 * n, 2 * n), dtype=np.complex128)
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


def assemble_schrodinger(pot, h):
    """Dense symmetric matrix of -d2/dx2 + pot with truncated end stencils."""
    n = pot.shape[0]
    H = np.zeros((n, n))
    idx = np.arange(n)
    H[idx, idx] = 2.0 / h**2 + pot
    H[idx[:-1], idx[:-1] + 1] = -1.0 / h**2
    H[idx[:-1] + 1, idx[:-1]] = -1.0 / h**2
    return H


def dirac_apply(f, m, v, h, r, psi1, psi2, energy):
    """Matrix-free (H - E) psi for the interleaved operator above.

    Matches assemble_dirac exactly, including the truncated boundary
    stencils, so residuals measured here agree with the assembled matrix.
    """
    c = 1.0 / (2.0 * h)
    d1 = np.zeros_like(psi1)
    d2 = np.zeros_like(psi2)
    d1[0] = psi1[1] * c
    d1[-1] = -psi1[-2] * c
    d1[1:-1] = (psi1[2:] - psi1[:-2]) * c
    d2[0] = psi2[1] * c
    d2[-1] = -psi2[-2] * c
    d2[1:-1] = (psi2[2:] - psi2[:-2]) * c
    out1 = -1j * d2 + 1j * f * psi2 + (m + v - energy) * psi1
    out2 = -1j * d1 - 1j * f * psi1 + (-m + v - energy) * psi2
    if r != 0.0:
        w = r / h
        s1 = np.zeros_like(psi1)
        s2 = np.zeros_like(psi2)
        s1[:-1] += psi1[1:]
        s1[1:] += psi1[:-1]
        s2[:-1] += psi2[1:]
        s2[1:] += psi2[:-1]
        out1 += w * psi1 - (w / 2.0) * s1
        out2 += -w * psi2 + (w / 2.0) * s2
    return out1, out2


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
