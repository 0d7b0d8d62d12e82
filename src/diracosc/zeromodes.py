"""Exact E = 0 bound states by three mechanisms.

* quadrature: integrate the shared profile and exponentiate, for the
  proportional model (mechanism "quadrature");
* interface matching for two-sided constant profiles ("interface_matching");
* transformed-potential construction with independent f and m, which proves
  the absence of a zero mode instead of returning one.

The transformed-potential construction has no zero mode to return for any
valid closure (nu = lam - 1 - n), so it always raises ConstructionFailedError
carrying the spectrum it did find; no spinor is ever reconstructed. Two
proofs, neither resting on the solver:

* Closed form. V1 = lam^2 + nu^2 - lam(lam-1) sech^2 x + 2 lam nu tanh x is
  Rosen-Morse II with A = lam - 1, B = lam*nu, shifted by
  lam^2 + nu^2 - A^2 - B^2/A^2. Its level-n candidate
  lam^2 + nu^2 - (A-n)^2 - B^2/(A-n)^2 is exactly 0, but that level exists
  only if (A-n)^2 = nu^2 > |B| = lam*nu, i.e. nu > lam, which the closure
  rules out (Cooper, Khare & Sukhatme, Phys. Rep. 251, 267 (1995)). The
  candidate is non-normalizable; the bound spectrum is the n = 0 level
  (3.75 at lam = 3, n = 1) below the continuum edge (lam - nu)^2.
* First-order bound. For H = sigma_x p - sigma_y f + sigma_z m,
  H^2 = p^2 + f^2 + m^2 - sigma_z f' - sigma_y m', so
  E^2 >= min_x [f^2 + m^2 - sqrt(f'^2 + m'^2)], which is 2.125 at lam = 3,
  n = 1. The first-order equations have no E = 0 solution at all.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import kernels, numerics, susy
from .errors import (
    ConstructionFailedError,
    DegenerateSpinorError,
    SupercriticalError,
)
from .model import (
    CustomProfile,
    GeneralProfiles,
    ScalarField,
    SpinorField,
    StepProfile,
)

# relative mismatch of the two component ratios up to which match_interface
# accepts the interface condition
MATCH_TOL = 1e-12


@dataclass(frozen=True)
class ZeroModeResult:
    psi: SpinorField
    mechanism: str             # "quadrature" | "interface_matching"
    normalizable: bool
    decay_rates: tuple         # asymptotic exponents toward -inf and +inf
    metadata: dict


@dataclass(frozen=True)
class StepMatchProblem:
    """Two-sided constant oscillator/mass magnitudes and a trial energy."""

    f_plus: float
    f_minus: float
    m_plus: float
    m_minus: float
    energy: float = 0.0

    def __post_init__(self):
        # the oscillator magnitudes may vanish (pure mass kink); the mass
        # magnitudes may not, or the component relations degenerate at E = 0
        for name in ("f_plus", "f_minus"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be a nonnegative magnitude")
        for name in ("m_plus", "m_minus"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be a positive magnitude")


def zero_mode_quadrature(model, grid):
    """Zero mode of the proportional model via cumulative quadrature.

    phi_sigma = exp(-lambda_sigma * I(x)) with I the integral of W from 0;
    sigma is chosen so the exponent decays on both sides (judged from the
    signs of lambda*W at the box ends, where the profiles have saturated).
    When neither sign works the result is returned with normalizable=False
    and both candidates' decay rates in the metadata; a supercritical model
    raises instead since lambda is no longer real.
    """
    pair_plus, pair_minus = susy.spin_eigensystem(
        model.kappa_f, model.kappa_m, model.kappa_v, zero_energy_variant=True
    )
    if not pair_plus.subcritical:
        raise SupercriticalError(
            model.kappa_v, susy.critical_field(model.kappa_f, model.kappa_m)
        )
    x = grid.nodes
    w = np.asarray(model.profile.value(x), dtype=float)
    integral = kernels.cumulative_simpson_center(w, grid.spacing, grid.center_index)
    w_left, w_right = w[0], w[-1]

    tried = {}
    for pair in (pair_plus, pair_minus):
        lam = float(np.real(pair.lam))
        rates = (-lam * w_left, lam * w_right)   # exponents toward -inf, +inf
        tried[pair.sigma] = rates
        if rates[0] > 0 and rates[1] > 0:
            expo = -lam * integral
            expo -= expo.max()                   # overflow guard; rescaled below
            phi = np.exp(expo)
            psi = SpinorField(grid, pair.chi[0] * phi, pair.chi[1] * phi).normalize()
            meta = {
                "sigma": pair.sigma,
                "lambda": lam,
                "chi": pair.chi,
                "candidates": tried,
                "dirac_residual": numerics.dirac_residual(model.general(), psi, 0.0),
            }
            return ZeroModeResult(psi, "quadrature", True, rates, meta)
    zero = np.zeros(grid.n_points, dtype=complex)
    return ZeroModeResult(
        SpinorField(grid, zero, zero),
        "quadrature",
        False,
        tried[+1],
        {"candidates": tried},
    )


def _signed_step(plus, minus, flip):
    """(right value, left value) with the left minus sign applied internally."""
    sign = -1.0 if flip else 1.0
    return sign * plus, sign * (-minus)


def match_interface(problem, flip_f=False, flip_m=False):
    """Scalar continuity condition for two-sided constant profiles.

    The exterior solutions decay like exp(-lambda_plus x) and
    exp(+lambda_minus x); continuity of both spinor components at x = 0
    collapses to one condition on the component ratios. Returns None when
    the residual exceeds MATCH_TOL, else (constant, ratio, lambda_plus,
    lambda_minus) where `constant` normalizes the mode exactly on the line
    and psi1/psi2 = i*ratio. flip_f / flip_m negate the respective profile
    globally, covering the four sign arrangements with one code path.
    """
    E = problem.energy
    lam_p = problem.f_plus**2 + problem.m_plus**2 - E * E
    lam_m = problem.f_minus**2 + problem.m_minus**2 - E * E
    if lam_p <= 0 or lam_m <= 0:
        raise ValueError("need E^2 < f^2 + m^2 on both sides for decaying solutions")
    lam_p, lam_m = math.sqrt(lam_p), math.sqrt(lam_m)

    f_r, f_l = _signed_step(problem.f_plus, problem.f_minus, flip_f)
    m_r, m_l = _signed_step(problem.m_plus, problem.m_minus, flip_m)

    den_r = E - m_r
    den_l = m_l - E
    scale = max(abs(m_r), abs(m_l), abs(E), 1.0)
    if abs(den_r) < 1e-14 * scale or abs(den_l) < 1e-14 * scale:
        raise DegenerateSpinorError(
            "component relation divides by E -+ m; matching undefined"
        )
    ratio_r = (lam_p + f_r) / den_r       # psi1/psi2 = i*ratio on the right
    ratio_l = (lam_m - f_l) / den_l       # and on the left
    if abs(ratio_r - ratio_l) > MATCH_TOL * max(abs(ratio_r), abs(ratio_l), 1.0):
        return None

    amp2 = ratio_r**2 + 1.0
    const = 1.0 / math.sqrt(amp2 * (0.5 / lam_p + 0.5 / lam_m))
    return const, ratio_r, lam_p, lam_m


def step_match(problem, grid, flip_f=False, flip_m=False):
    """Matched step-profile mode on a grid, or None when no solution exists.

    Phase convention: the upper component is real (positive for the
    standard sign arrangement), the lower imaginary. The closed-form
    normalization constant is kept in the metadata while the returned field
    is renormalized on the grid (the Riemann sum across the kink differs
    from the exact integral at order (lambda*h)^2).
    """
    matched = match_interface(problem, flip_f=flip_f, flip_m=flip_m)
    if matched is None:
        return None
    const, ratio, lam_p, lam_m = matched
    x = grid.nodes
    env = np.where(x >= 0, np.exp(-lam_p * x), np.exp(lam_m * x))
    upper = -const * ratio * env + 0j
    lower = const * 1j * env
    raw = SpinorField(grid, upper, lower)
    psi = raw.normalize()

    sf = -1.0 if flip_f else 1.0
    sm = -1.0 if flip_m else 1.0
    profiles = GeneralProfiles(
        f=StepProfile(sf * problem.f_plus, sf * problem.f_minus),
        m=StepProfile(sm * problem.m_plus, sm * problem.m_minus),
        v=CustomProfile(lambda xx: np.zeros_like(np.asarray(xx, float)), name="zero"),
    )
    meta = {
        "normalization_constant": const,
        "component_ratio": ratio,
        "lambda_plus": lam_p,
        "lambda_minus": lam_m,
        "grid_norm_of_closed_form": raw.norm_squared,
        "energy": problem.energy,
        "dirac_residual": numerics.dirac_residual(profiles, psi, problem.energy),
    }
    return ZeroModeResult(psi, "interface_matching", True, (lam_m, lam_p), meta)


def transformed_potential_profiles(params):
    """(f, m, potential) callables for a closed parameter set."""
    lam, nu = params.lam, params.nu

    def mass(x):
        return math.sqrt(2.0 * lam) / np.cosh(np.asarray(x, dtype=float))

    def osc(x):
        return (lam + 0.5) * np.tanh(np.asarray(x, dtype=float)) + nu

    def potential(x):
        x = np.asarray(x, dtype=float)
        return (
            lam * lam + nu * nu
            - lam * (lam - 1.0) / np.cosh(x) ** 2
            + 2.0 * lam * nu * np.tanh(x)
        )

    return osc, mass, potential


def zero_mode_transformed(params, grid):
    """Transformed-potential construction targeting level index params.n.

    Builds the decoupled second-order problem, eigensolves its lowest n + 3
    levels and raises ConstructionFailedError with that spectrum attached:
    for valid parameters level n is never an E = 0 bound state. Why (see the
    module docstring):

    * the closed-form level n of V1 is 0 but non-normalizable, since
      (A-n)^2 = nu^2 <= lam*nu = |B|; the only bound level is
      lam^2 + nu^2 - A^2 - B^2/A^2, below the continuum edge (lam - nu)^2
      (also, every eigenvalue is >= min V1 = lam - nu^2/(lam-1) > 0, so no
      tolerance could accept one as a zero);
    * the first-order operator obeys
      E^2 >= min_x [f^2 + m^2 - sqrt(f'^2 + m'^2)] > 0.
    """
    if not params.valid:
        raise ValueError(f"invalid parameters: {params.reason}")
    _, _, potential = transformed_potential_profiles(params)
    pot = ScalarField(grid, potential(grid.nodes))
    result = numerics.eigensolve(numerics.build_schrodinger(pot), k=params.n + 3)
    spectrum = result.values
    pick = int(np.argmin(np.abs(spectrum)))
    an2 = (params.a - params.n) ** 2
    raise ConstructionFailedError(
        f"no E = 0 bound state at level {params.n}: "
        f"|E^2|min = {abs(spectrum[pick]):g} at level {pick}; level "
        f"{params.n} is non-normalizable ((A-n)^2 = {an2:g} <= |B| = "
        f"{abs(params.b):g}) and the potential minimum is "
        f"{params.lam - params.nu**2 / (params.lam - 1):g} > 0",
        spectrum=spectrum,
    )
