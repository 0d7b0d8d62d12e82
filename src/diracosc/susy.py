"""Reduction of the proportional model to partner Schrodinger problems.

The coupling matrix is diagonalized in closed form; each sign sigma = +/-1
selects one partner potential wtilde^2 - sigma*wtilde'. The reduction is
well defined only below the critical coupling sqrt(kf^2 + km^2); at or above
it the square root turns zero or imaginary and the shifted superpotential
degenerates, so those inputs are refused. One radicand,
kf^2 + (km - kv)(km + kv), decides that everywhere, and it refuses couplings
whose squares overflow, so every reader refuses them alike.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import CouplingOverflowError, SupercriticalError
from .model import CoupledModel


@dataclass(frozen=True)
class SpinEigenpair:
    """One eigenvalue/eigenvector pair of the 2x2 coupling matrix."""

    sigma: int
    lam: float            # sigma * sqrt(kf^2 + km^2 - kv^2)
    chi: np.ndarray       # unit-norm complex 2-spinor


@dataclass(frozen=True)
class ReducedProblem:
    """One partner problem: shifted superpotential and the eps <-> E^2 map."""

    sigma: int
    model: CoupledModel
    shift: float                 # kv*E / (kf^2+km^2-kv^2)
    scale: float                 # sqrt(kf^2+km^2-kv^2)
    epsilon_coefficient: float   # eps = coeff * E^2

    def w_tilde(self, x):
        return self.scale * (self.model.profile.value(x) + self.shift)

    def w_tilde_prime(self, x):
        return self.scale * self.model.profile.derivative(x)

    def effective_potential(self, x):
        wt = self.w_tilde(x)
        return wt * wt - self.sigma * self.w_tilde_prime(x)


def _radicand(kf, km, kv):
    """kf^2 + km^2 - kv^2, with km^2 - kv^2 taken as (km - kv)(km + kv).

    The product is exact when |km| = |kv|: summed as squares it rounds, and
    at kf = 4, km = kv = 1e-6 the root came out one ulp below 4, which left
    the eigenvector of the then triangular matrix a residual of 2e-9.

    Raises CouplingOverflowError (a ValueError) when kf^2 + km^2 - kv^2,
    summed as squares, is infinite or NaN: such couplings leave no verdict,
    eigenvalue, shift or scale to report, so every reader refuses them.
    """
    if not math.isfinite(kf * kf + km * km - kv * kv):
        raise CouplingOverflowError(kf, km, kv)
    return kf * kf + (km - kv) * (km + kv)


def subcritical_radicand(kf, km, kv):
    """The radicand kf^2 + km^2 - kv^2 of a subcritical coupling.

    Raises CouplingOverflowError as _radicand does, and SupercriticalError
    when the radicand is not positive.
    """
    rad = _radicand(kf, km, kv)
    if not rad > 0:
        raise SupercriticalError(kv, critical_field(kf, km))
    return rad


def coupling_matrix(kf, km, kv):
    """Explicit 2x2 coupling matrix of the zero-energy first-order system.

    Its eigenvectors are the spinor directions of the quadrature zero mode;
    its eigenvalues are +-sqrt(kf^2 + km^2 - kv^2).
    """
    return np.array(
        [
            [kf, -1j * (km - kv)],
            [1j * (km + kv), -kf],
        ]
    )


def critical_field(kf, km):
    """Coupling magnitude beyond which the discrete spectrum vanishes."""
    return math.hypot(kf, km)


def is_subcritical(kf, km, kv):
    """Strict predicate: bound states require kf^2 + km^2 - kv^2 > 0.

    It reads the same radicand that `reduce` and `spin_eigensystem` take the
    root of, so the three agree on every coupling, one ulp from the critical
    field included, and like them it raises CouplingOverflowError when the
    squares overflow.
    """
    return _radicand(kf, km, kv) > 0


def _eigvec(kf, km, kv, lam):
    """Eigenvector for eigenvalue lam.

    The two row formulas are algebraically the same vector but lose
    precision in different corners (cancellation in lam -+ kf, vanishing
    denominators), so both are built when possible and the one with the
    smaller explicit residual wins. A candidate whose norm overflows (its
    denominator is negligible next to lam -+ kf) would normalize to the zero
    vector with a zero residual, so it is dropped. When no candidate is left
    the off-diagonal elements are negligible (km = kv = 0 makes the matrix
    diagonal) and the basis spinors are the eigenvectors.
    """
    d1 = km - kv   # first-row denominator
    d2 = km + kv   # second-row denominator
    scale = max(abs(kf), abs(km), abs(kv), 1.0)
    candidates = []
    if abs(d1) > 1e-300:
        candidates.append(np.array([1.0, 1j * (lam - kf) / d1], dtype=complex))
    if abs(d2) > 1e-300:
        candidates.append(np.array([-1j * (kf + lam) / d2, 1.0], dtype=complex))
    with np.errstate(over="ignore"):
        norms = [np.linalg.norm(chi) for chi in candidates]
    candidates = [chi / n for chi, n in zip(candidates, norms) if math.isfinite(n)]
    if not candidates:
        if abs(lam - kf) <= 1e-14 * scale:
            return np.array([1.0, 0.0], dtype=complex)
        return np.array([0.0, 1.0], dtype=complex)
    matrix = coupling_matrix(kf, km, kv)
    best, best_res = None, math.inf
    for chi in candidates:
        res = float(np.linalg.norm(matrix @ chi - lam * chi))
        if res < best_res:
            best, best_res = chi, res
    return best


def spin_eigensystem(kf, km, kv):
    """Both sigma = +/-1 eigenpairs of the coupling matrix.

    Raises ValueError when every coupling is zero, CouplingOverflowError (a
    ValueError) when the squares overflow, and SupercriticalError at or
    beyond the critical field, as `reduce` does.
    """
    if kf == 0 and km == 0 and kv == 0:
        raise ValueError("all couplings zero: the coupling matrix vanishes")
    root = math.sqrt(subcritical_radicand(kf, km, kv))
    return tuple(
        SpinEigenpair(sigma=sigma, lam=sigma * root,
                      chi=_eigvec(kf, km, kv, sigma * root))
        for sigma in (+1, -1)
    )


def reduce(model, sigma, energy=0.0):
    """Partner problem for the given sigma and energy.

    For kv = 0 the energy argument is inert (the shift vanishes) and
    eps = E^2 exactly. Supercritical or exactly-critical couplings raise
    SupercriticalError, and couplings whose squares overflow raise
    CouplingOverflowError.
    """
    kf, km, kv = model.kappa_f, model.kappa_m, model.kappa_v
    rad = subcritical_radicand(kf, km, kv)
    return ReducedProblem(
        sigma=sigma,
        model=model,
        shift=0.0 if kv == 0 or energy == 0 else kv * energy / rad,
        scale=math.sqrt(rad),
        epsilon_coefficient=(kf * kf + km * km) / rad,
    )
