"""Closed-form bound-state catalogs for the tanh/sech superpotential families.

Level energies follow the standard shape-invariance results. Every table
applies two filters before listing a level: E^2 >= 0, and the per-level
normalizability condition (A - n)^2 > |B| for the tilted-tanh family (the
level formula keeps producing numbers past that point, but the corresponding
wavefunction stops decaying on one side and the state is absent from the
discrete spectrum). Filtered candidates are recorded in the table metadata
rather than dropped silently.
"""

from dataclasses import dataclass, field
import math

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


def _sigma_range(nmax):
    """Level indices per partner: sigma=+1 starts at 0, sigma=-1 at 1."""
    for sigma, start in ((+1, 0), (-1, 1)):
        for n in range(start, nmax + 1):
            yield sigma, n


def scarf2_levels(a, b=0.0):
    """E^2 = A^2 - (A-n)^2 for n < A; b shapes wavefunctions only.

    a <= 0 binds nothing and yields an empty table.
    """
    entries = []
    meta = {"A": a, "B": b, "excluded": []}
    if a > 0:
        nmax = math.ceil(a) - 1
        for sigma, n in _sigma_range(nmax):
            e2 = a * a - (a - n) ** 2
            entries.append(LevelRecord(n, sigma, e2))
    return LevelTable(tuple(entries), "scarf2", meta)


def _rm2_candidate(a, b, n):
    # grouped so that each bracket vanishes exactly at n = 0; the ungrouped
    # sum rounds the ground level to about -1e-15 and files it as negative
    an = a - n
    return (a * a - an * an) + b * b * (1.0 / (a * a) - 1.0 / (an * an))


def rosen_morse2_levels(a, b):
    """Tilted-tanh family: E^2 = A^2 + B^2/A^2 - (A-n)^2 - B^2/(A-n)^2.

    Requires a > 0 and b < a^2. Candidates with E^2 < 0 or with
    (A-n)^2 <= |B| are recorded as excluded, not listed.
    """
    if a <= 0:
        raise ConstraintError(f"need A > 0, got {a}")
    if b >= a * a:
        raise ConstraintError(f"need B < A^2, got B={b}, A^2={a * a}")
    entries = []
    excluded = []
    nmax = math.ceil(a) - 1
    for sigma, n in _sigma_range(nmax):
        e2 = _rm2_candidate(a, b, n)
        if (a - n) ** 2 <= abs(b):
            excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                             "reason": "non-normalizable: (A-n)^2 <= |B|"})
            continue
        if e2 < 0:
            excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                             "reason": "negative E^2"})
            continue
        entries.append(LevelRecord(n, sigma, e2))
    return LevelTable(tuple(entries), "rosen_morse2",
                      {"A": a, "B": b, "excluded": excluded})


def _field_variant(formula_id, alpha0, kappa, denom_coupling, kv, nmax):
    """Common machinery for the two electric-field level formulas.

    E^2 = [alpha0^2 kappa^2 - (alpha0 kappa - n)^2]
          / [1 + alpha0^2 denom_coupling^2 / (alpha0 kappa - n)^2]

    The per-level normalizability filter uses the self-consistent tilt
    B = alpha0*kv*E evaluated from the variant's own energy.
    """
    a = alpha0 * kappa
    entries = []
    excluded = []
    for sigma, n in _sigma_range(nmax):
        an = a - n
        if an == 0:
            continue
        e2 = (a * a - an * an) / (1.0 + (alpha0 * denom_coupling) ** 2 / an**2)
        if e2 < 0:
            excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                             "reason": "negative E^2"})
            continue
        b_self = alpha0 * abs(kv) * math.sqrt(e2)
        if an * an <= b_self:
            excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                             "reason": "non-normalizable: (A-n)^2 <= |B|"})
            continue
        entries.append(LevelRecord(n, sigma, e2))
    return LevelTable(tuple(entries), formula_id,
                      {"A": a, "alpha0": alpha0, "excluded": excluded})


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
    raise SupercriticalError exactly where `susy.reduce` does.
    """
    if alpha0 <= 0:
        raise ConstraintError(f"need alpha0 > 0, got {alpha0}")
    kprime = math.sqrt(subcritical_radicand(kf, km, kv))
    kappa = math.hypot(kf, km)
    printed = _field_variant(
        "rm2_field_printed", alpha0, kappa, kappa, kv, math.ceil(alpha0 * kappa) - 1
    )
    rederived = _field_variant(
        "rm2_field_rederived", alpha0, kprime, kv, kv, math.ceil(alpha0 * kprime) - 1
    )
    return printed, rederived


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
