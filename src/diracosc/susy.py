"""Reduction of the proportional model to partner Schrodinger problems.

The coupling matrix M = [[kf, -i(km - kv)], [i(km + kv), -kf]] of the
zero-energy first-order system is diagonalized in closed form: M^2 =
lambda^2 I, so every column of M + lambda I is an eigenvector for lambda,
and the longer column, scaled to unit length, is the spinor (x, i*y) with x
and y real and x > 0 (or y > 0 when x = 0). Each sign sigma = +/-1 of
lambda selects one partner potential wtilde^2 - sigma*wtilde'. The
reduction is well defined only below the critical coupling
sqrt(kf^2 + km^2); at or above it the square root turns zero or imaginary
and the shifted superpotential degenerates, so those inputs are refused.
One radicand, kf^2 + (km - kv)(km + kv), decides that everywhere, all-zero
couplings included, and it refuses couplings whose squares overflow, so
every reader refuses them alike.
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
    chi: np.ndarray       # unit-norm spinor (x, i*y), x and y real (see _eigvec)


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
    """Unit eigenvector (x, i*y), x and y real, of the coupling matrix M for
    its eigenvalue lam.

    M^2 = (kf^2 + km^2 - kv^2) I = lam^2 I, so M (M + lam I) = lam (M + lam I)
    and each column of M + lam I is an eigenvector for lam. Up to the phase
    -i of the second, the columns are (kf + lam, i(km + kv)) and
    (km - kv, i(lam - kf)). Their squared lengths sum to
    2(kf^2 + km^2 + kv^2 + lam^2), so the longer one is at least
    max(|kf|, |km|, |kv|, |lam|) long and carries a rounding error of a few
    ulps of its length. It is scaled to unit length and then negated when
    x < 0, or x = 0 and y < 0, so that x > 0, or y > 0 when x = 0: the upper
    component is real and the lower one imaginary, and adding 0.0 leaves no
    part -0.0. The sign is taken after scaling, since a subnormal x can
    round to 0 in x / length; negation is exact.
    """
    x, y = max(((kf + lam, km + kv), (km - kv, lam - kf)), key=lambda c: math.hypot(*c))
    s = math.hypot(x, y)
    x, y = x / s, y / s
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return np.array([complex(x + 0.0, 0.0), complex(0.0, y + 0.0)])


def spin_eigensystem(kf, km, kv):
    """Both sigma = +/-1 eigenpairs of the coupling matrix.

    Refuses what `reduce` refuses, through the same radicand:
    CouplingOverflowError (a ValueError) when the squares overflow, and
    SupercriticalError at or beyond the critical field, which takes in
    kf = km = kv = 0, where the matrix vanishes and the critical field is 0.
    """
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
