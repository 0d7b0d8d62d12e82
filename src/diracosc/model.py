"""Domain types: spatial profiles, coupling sets, grids and field containers.

Everything here is immutable after construction and safe to share between
threads. Profiles evaluate on scalars or numpy arrays.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ProfileDomainError, ProfileSingularityError


# ---------------------------------------------------------------------------
# profiles

class Profile:
    """Base class for the shared shape function W(x) and its relatives."""

    def value(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class LinearProfile(Profile):
    """W(x) = slope*x + offset."""

    slope: float
    offset: float = 0.0

    def value(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.offset

    def derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.slope)


@dataclass(frozen=True)
class TanhProfile(Profile):
    """W(x) = amplitude*tanh(x) + shift."""

    amplitude: float
    shift: float = 0.0

    def value(self, x):
        return self.amplitude * np.tanh(np.asarray(x, dtype=float)) + self.shift

    def derivative(self, x):
        return self.amplitude / np.cosh(np.asarray(x, dtype=float)) ** 2


@dataclass(frozen=True)
class TanhPowerProfile(Profile):
    """W(x) = tanh(x)**exponent + shift with an odd exponent >= 1."""

    exponent: int
    shift: float = 0.0

    def __post_init__(self):
        if self.exponent < 1 or self.exponent % 2 == 0:
            raise ValueError(f"exponent must be odd and >= 1, got {self.exponent}")

    def value(self, x):
        return np.tanh(np.asarray(x, dtype=float)) ** self.exponent + self.shift

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        t = np.tanh(x)
        return self.exponent * t ** (self.exponent - 1) / np.cosh(x) ** 2


@dataclass(frozen=True)
class TanhSechProfile(Profile):
    """W(x) = a*tanh(x) + b*sech(x), the shape behind the Scarf II family."""

    a: float
    b: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.a * np.tanh(x) + self.b / np.cosh(x)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        sech = 1.0 / np.cosh(x)
        return self.a * sech**2 - self.b * sech * np.tanh(x)


@dataclass(frozen=True)
class StepProfile(Profile):
    """Two-sided constant profile: +value_plus for x >= 0, -value_minus otherwise.

    The minus sign on the left branch is applied internally; callers store the
    two magnitudes. The derivative vanishes away from the interface and is
    undefined at x = 0 (interface conditions must be handled by matching).
    """

    value_plus: float
    value_minus: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.value_plus, -self.value_minus)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x == 0):
            raise ProfileSingularityError("step profile is not differentiable at x = 0")
        return np.zeros_like(x)


@dataclass(frozen=True)
class TabulatedProfile(Profile):
    """Profile given by samples on a uniform grid, linearly interpolated.

    Derivatives are central differences at the tabulation spacing (one-sided
    at the ends), interpolated linearly between nodes. Evaluation outside the
    tabulated range raises ProfileDomainError.
    """

    nodes: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        if nodes.shape != samples.shape or nodes.ndim != 1:
            raise ValueError("nodes and samples must be 1-d arrays of equal length")
        if nodes.size < 3:
            raise ValueError("need at least 3 tabulation nodes")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(samples))):
            raise ValueError("tabulation nodes and samples must be finite")
        steps = np.diff(nodes)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("tabulation nodes must be uniform and increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_deriv", np.gradient(samples, nodes[1] - nodes[0]))

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.nodes[0]) or np.any(x > self.nodes[-1]):
            raise ProfileDomainError(
                f"x outside tabulated range [{self.nodes[0]:g}, {self.nodes[-1]:g}]"
            )
        return x

    def value(self, x):
        return np.interp(self._check(x), self.nodes, self.samples)

    def derivative(self, x):
        return np.interp(self._check(x), self.nodes, self._deriv)


@dataclass(frozen=True)
class CustomProfile(Profile):
    """Closure-style profile: the values of func on a float array.

    It has no derivative. The first-order operators and residuals sample
    values only; the partner reduction differentiates CoupledModel.profile.
    """

    func: object

    def value(self, x):
        return np.asarray(self.func(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# coupling containers

@dataclass(frozen=True)
class CoupledModel:
    """Proportional model: f = kappa_f*W, m = kappa_m*W, v = kappa_v*W.

    kappa_f and kappa_m may not both be zero: the critical field
    hypot(kappa_f, kappa_m) would be 0, so every kappa_v is at or beyond it
    and no workflow has anything to solve.
    """

    kappa_f: float
    kappa_m: float
    kappa_v: float
    profile: Profile

    def __post_init__(self):
        for name in ("kappa_f", "kappa_m", "kappa_v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kappa_f == 0 and self.kappa_m == 0:
            raise ValueError("kappa_f and kappa_m are both zero, so the critical "
                             "field is 0")

    def f(self, x):
        return self.kappa_f * self.profile.value(x)

    def m(self, x):
        return self.kappa_m * self.profile.value(x)

    def v(self, x):
        return self.kappa_v * self.profile.value(x)

    def general(self):
        """View of this model as three independent profiles."""
        return GeneralProfiles(
            f=CustomProfile(self.f), m=CustomProfile(self.m), v=CustomProfile(self.v)
        )


@dataclass(frozen=True)
class GeneralProfiles:
    """Independent oscillator, mass and potential profiles (no proportionality)."""

    f: Profile
    m: Profile
    v: Profile


# ---------------------------------------------------------------------------
# grid and fields

@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-L, L] with N nodes.

    h*(N-1) = 2L holds to machine precision and x = 0 is a node whenever N is
    odd; a spacing that underflows to 0 or overflows is refused. The hard
    wall of the discretized operators sits one spacing outside the end
    nodes.
    """

    half_length: float
    n_points: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")
        if self.n_points < 3:
            raise ValueError("need at least 3 grid points")
        if not 0 < self.spacing < math.inf:
            raise ValueError(
                f"half_length = {self.half_length:g} at n_points = {self.n_points} "
                f"gives the grid spacing {self.spacing:g}, which must be positive "
                "and finite"
            )
        object.__setattr__(
            self, "nodes", np.linspace(-self.half_length, self.half_length, self.n_points)
        )

    @property
    def spacing(self):
        return 2.0 * self.half_length / (self.n_points - 1)

    @property
    def center_index(self):
        if self.n_points % 2 == 0:
            raise ValueError("x = 0 is a node only for odd n_points")
        return (self.n_points - 1) // 2


@dataclass(frozen=True)
class ScalarField:
    """Real or complex samples on a grid."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.shape != (self.grid.n_points,):
            raise ValueError("sample length must match the grid")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class SpinorField:
    """Two-component complex wavefunction sampled on a grid.

    norm_squared is the h-weighted sum over both components.
    """

    grid: Grid
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        upper = np.asarray(self.upper, dtype=complex)
        lower = np.asarray(self.lower, dtype=complex)
        n = self.grid.n_points
        if upper.shape != (n,) or lower.shape != (n,):
            raise ValueError("component length must match the grid")
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)

    @property
    def norm_squared(self):
        return float(
            np.sum(np.abs(self.upper) ** 2 + np.abs(self.lower) ** 2) * self.grid.spacing
        )

    def density(self):
        return np.abs(self.upper) ** 2 + np.abs(self.lower) ** 2

    def normalize(self):
        """Return a copy scaled to unit h-weighted norm."""
        s = math.sqrt(self.norm_squared)
        if s == 0:
            raise ValueError("cannot normalize the zero field")
        return SpinorField(self.grid, self.upper / s, self.lower / s)
