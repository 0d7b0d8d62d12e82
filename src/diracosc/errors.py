"""Exception types shared across the solver suite."""


class DiracOscError(Exception):
    """Base class for all diracosc errors."""


class ProfileDomainError(DiracOscError):
    """Profile evaluated outside its tabulated range."""


class NonFiniteProfileError(DiracOscError, ValueError):
    """A profile evaluated to NaN or infinity on the grid."""


class VanishingSpinorError(DiracOscError, ValueError):
    """A spinor has no probability mass on the nodes a residual measures."""


class BoxStateError(DiracOscError):
    """A self-consistent level settled at or above the reduced continuum edge.

    Such a level is a standing wave of the finite box, not a bound level;
    the partner eigenvalue eps and the edge are attached.
    """

    def __init__(self, level, eps, edge):
        self.level = level
        self.eps = eps
        self.edge = edge
        super().__init__(
            f"level {level} settled at eps = {eps:g}, not below the reduced "
            f"continuum edge {edge:g}: a box state, not a bound level"
        )


class LatticeThresholdError(DiracOscError, ValueError):
    """A grid too coarse for the staggered operator: h * max|m| >= 2."""


class GridOverflowError(DiracOscError):
    """An operator or residual on a grid whose values cannot be squared:
    they scale like 1/h and like the profile, so a grid spacing too fine or
    a profile too large overflows them; LAPACK's failure to converge on a
    band is reported with it too."""


class ProfileSingularityError(DiracOscError):
    """Derivative requested at a point where the profile is not differentiable."""


class SupercriticalError(DiracOscError):
    """Couplings at or beyond the critical electric-field strength.

    Carries the critical value sqrt(kappa_f^2 + kappa_m^2) so callers can
    report how far over the line the request was.
    """

    def __init__(self, kappa_v, critical):
        self.kappa_v = kappa_v
        self.critical = critical
        super().__init__(
            f"|kappa_v| = {abs(kappa_v):g} is not below the critical field "
            f"{critical:g}; the reduced problem is degenerate or complex"
        )


class CouplingOverflowError(DiracOscError, ValueError):
    """kappa_f^2 + kappa_m^2 - kappa_v^2 overflows to infinity or NaN."""

    def __init__(self, kappa_f, kappa_m, kappa_v):
        super().__init__(
            f"kappa_f^2 + kappa_m^2 - kappa_v^2 is not finite at kappa_f = "
            f"{kappa_f:g}, kappa_m = {kappa_m:g}, kappa_v = {kappa_v:g}; the "
            "couplings are too large"
        )


class DegenerateSpinorError(DiracOscError):
    """A spinor component relation divides by (numerically) zero."""


class ConstraintError(DiracOscError):
    """Closed-form family parameters violate a stated constraint."""


class ConstructionFailedError(DiracOscError):
    """A zero-mode construction found no eigenvalue where one was required.

    The offending spectrum is attached for diagnosis.
    """

    def __init__(self, message, spectrum=None):
        self.spectrum = spectrum
        super().__init__(message)


class ConfigError(DiracOscError):
    """Malformed or inconsistent run configuration."""
