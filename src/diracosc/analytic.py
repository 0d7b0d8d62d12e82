"""Closed-form bound-state catalogs for the tanh/sech superpotential families.

Level energies follow the standard shape-invariance results. One builder
lists every table: it walks sigma = +1 from n = 0 and sigma = -1 from n = 1,
for every n < A, and applies one filter, the per-level normalizability
condition (A - n)^2 > |B| (the level formula keeps producing numbers past
that point, but the corresponding wavefunction stops decaying on one side and
the state is absent from the discrete spectrum). Filtered candidates are
recorded in the table metadata rather than dropped silently. No other filter
is needed: n = 0 is the E^2 = 0 level, and every n >= 1 level has E^2 > 0.
For 1 <= n < A, Scarf II gives E^2 = n(2A - n) and the field variants
n(2A - n)/(1 + ...); for Rosen-Morse II, c = (A - n)^2 > |B| gives
E^2 = (A^2 - c)(1 - B^2/(A^2 c)) > (A^2 - c)^2/A^2 >= 1, orders of magnitude
above rounding for every A a grid accepts (A <= n_points).

Rosen-Morse II and the field variants divide by A^2 at n = 0, so they refuse
(ConstraintError) an A whose square underflows below the smallest normal
float: A^2 = 0 divided by zero, and a subnormal A^2 gave 1/A^2 = inf and a
NaN E^2. Rosen-Morse II checks this before its other constraints, each field
variant before it lists a level. Scarf II does not divide.
"""

from dataclasses import dataclass, field
import math
import sys

from .errors import ConstraintError
from .susy import subcritical_radicand


@dataclass(frozen=True)
class LevelRecord:
    n: int
    sigma: int
    e_squared: float           # the +-E mirror pair shares it


@dataclass(frozen=True)
class LevelTable:
    """Bound levels sorted by E^2 (sigma = +1 first within ties)."""

    entries: tuple
    formula_id: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        ordered = tuple(
            sorted(self.entries, key=lambda r: (r.e_squared, -r.sigma, r.n))
        )
        object.__setattr__(self, "entries", ordered)

    def e_squared_values(self, sigma=None):
        return [r.e_squared for r in self.entries if sigma is None or r.sigma == sigma]


def _levels(formula_id, a, candidate, metadata):
    """The table of every level n < a: sigma = +1 from n = 0, sigma = -1 from
    n = 1 (empty for a <= 0).

    candidate(n) gives (E^2, whether (A-n)^2 <= |B|); a candidate for which
    that holds is recorded under metadata["excluded"] instead of listed.
    """
    entries, excluded = [], []
    for sigma, start in ((+1, 0), (-1, 1)):
        for n in range(start, math.ceil(a)):
            e2, unbound = candidate(n)
            if unbound:
                excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                                 "reason": "non-normalizable: (A-n)^2 <= |B|"})
            else:
                entries.append(LevelRecord(n, sigma, e2))
    metadata["excluded"] = excluded
    return LevelTable(tuple(entries), formula_id, metadata)


def scarf2_levels(a, b=0.0):
    """E^2 = A^2 - (A-n)^2 for n < A; b shapes wavefunctions only.

    a <= 0 binds nothing and yields an empty table. (a - n) * (a - n), not
    (a - n) ** 2, which is not always the same float, makes n = 0 exactly 0.
    """
    return _levels("scarf2", a, lambda n: (a * a - (a - n) * (a - n), False),
                   {"A": a, "B": b})


def _refuse_underflow(a):
    """Raise ConstraintError when A^2 underflows (see the module docstring)."""
    if a * a < sys.float_info.min:
        raise ConstraintError(f"A = {a:g} is too small: A^2 = {a * a:g} underflows "
                              f"below the smallest normal float {sys.float_info.min:g}")


def _rm2_candidate(a, b, n):
    # grouped so that each bracket vanishes exactly at n = 0; the ungrouped
    # sum rounds the ground level to about -1e-15
    an = a - n
    return (a * a - an * an) + b * b * (1.0 / (a * a) - 1.0 / (an * an))


def rosen_morse2_levels(a, b):
    """Tilted-tanh family: E^2 = A^2 + B^2/A^2 - (A-n)^2 - B^2/(A-n)^2.

    Requires that a^2 not underflow, a > 0 and b < a^2. Candidates with
    (A-n)^2 <= |B| are recorded as excluded, not listed; every listed level
    has E^2 >= 0 (see the module docstring).
    """
    _refuse_underflow(a)
    if a <= 0:
        raise ConstraintError(f"need A > 0, got {a}")
    if b >= a * a:
        raise ConstraintError(f"need B < A^2, got B={b}, A^2={a * a}")
    return _levels("rosen_morse2", a,
                   lambda n: (_rm2_candidate(a, b, n), (a - n) ** 2 <= abs(b)),
                   {"A": a, "B": b})


def _field_variant(formula_id, alpha0, kappa, denom_coupling, kv):
    """Common machinery for the two electric-field level formulas.

    E^2 = [alpha0^2 kappa^2 - (alpha0 kappa - n)^2]
          / [1 + alpha0^2 denom_coupling^2 / (alpha0 kappa - n)^2]

    The per-level normalizability filter uses the self-consistent tilt
    B = alpha0*kv*E evaluated from the variant's own energy.
    """
    a = alpha0 * kappa
    _refuse_underflow(a)

    def candidate(n):
        an = a - n
        e2 = (a * a - an * an) / (1.0 + (alpha0 * denom_coupling) ** 2 / an**2)
        return e2, an * an <= alpha0 * abs(kv) * math.sqrt(e2)

    return _levels(formula_id, a, candidate, {"A": a, "alpha0": alpha0})


def rm2_with_field_levels(alpha0, kf, km, kv):
    """Both level formulas for W = alpha0*tanh(x) with an electric coupling.

    `rm2_field_printed` uses the full coupling magnitude everywhere,
    `rm2_field_rederived` substitutes the field-reduced magnitude and carries
    kv in the denominator correction (the composition of the reduction, the
    eps map and the tilted-tanh formula). The variants disagree at every kv,
    kv = 0 included: there the printed one keeps its full-coupling
    denominator correction (0, 0.923, 2.897, ... for alpha0 = 1, kf = 3,
    km = 4), while the rederived one reduces to the field-free
    `rosen_morse2_levels` (0, 9, 16, ...). Neither is declared right here; a
    numerical spectrum arbitrates. The field-reduced magnitude is the root of
    `susy.subcritical_radicand`, so couplings at or beyond the critical field
    raise SupercriticalError exactly where `susy.reduce` does. Each variant
    then refuses its amplitude A if A^2 underflows.
    """
    if alpha0 <= 0:
        raise ConstraintError(f"need alpha0 > 0, got {alpha0}")
    kprime = math.sqrt(subcritical_radicand(kf, km, kv))
    kappa = math.hypot(kf, km)
    return (_field_variant("rm2_field_printed", alpha0, kappa, kappa, kv),
            _field_variant("rm2_field_rederived", alpha0, kprime, kv, kv))


@dataclass(frozen=True)
class TransformedPotentialParameters:
    """Parameter closure for the transformed-potential zero-mode target.

    lam is the tanh amplitude of the combined drift W = lam*tanh(x) + nu
    (unrelated to the coupling-matrix eigenvalue), n the intended level
    index. Derived: nu = lam - 1 - n, A = lam - 1, B = lam*nu.

    `valid` means the closure's algebraic constraints hold (n >= 1,
    nu >= 0, A > 0, B < A^2; AC-8c). It does not mean that level n is bound:
    (A-n)^2 = nu^2 <= lam*nu = |B| for every valid set, so level n of the
    transformed potential is never normalizable (see zeromodes).
    """

    lam: float
    n: int
    nu: float
    a: float
    b: float
    valid: bool
    reason: str = ""


def transformed_potential_parameters(lam, n):
    """Close the parameter set; validity is data, not an exception."""
    nu = lam - 1.0 - n
    a = lam - 1.0
    b = lam * nu
    checks = [
        (n >= 1, f"n >= 1 required, got n={n}"),
        (lam >= n + 1, f"lam >= n+1 required, got lam={lam}, n={n}"),
        (nu >= 0, f"nu = lam-1-n must be >= 0, got {nu}"),
        (a > 0, f"A = lam-1 must be positive, got {a}"),
        (b < a * a, f"B < A^2 required, got B={b}, A^2={a * a}"),
    ]
    for ok, why in checks:
        if not ok:
            return TransformedPotentialParameters(lam, n, nu, a, b, valid=False, reason=why)
    return TransformedPotentialParameters(lam, n, nu, a, b, valid=True)
