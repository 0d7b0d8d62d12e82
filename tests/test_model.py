"""Profiles, grids and field containers."""

import math

import numpy as np
import pytest

from diracosc.errors import ProfileDomainError, ProfileSingularityError
from diracosc.model import (
    CoupledModel,
    Grid,
    LinearProfile,
    ScalarField,
    SpinorField,
    StepProfile,
    TabulatedProfile,
    TanhPowerProfile,
    TanhProfile,
    TanhSechProfile,
)


def test_tanh_at_origin_is_zero():
    assert TanhProfile(amplitude=2.0).value(0.0) == 0.0


def test_step_sign_convention():
    p = StepProfile(3.0, 3.0)
    assert p.value(-1.0) == -3.0
    assert p.value(1.0) == 3.0
    assert p.value(0.0) == 3.0  # x >= 0 takes the plus branch


def test_tanh_power_saturates_to_shift_plus_one():
    p = TanhPowerProfile(exponent=3, shift=0.5)
    assert p.value(30.0) == pytest.approx(1.5, abs=1e-12)
    assert p.value(-30.0) == pytest.approx(-0.5, abs=1e-12)


def test_tanh_power_rejects_even_or_negative_exponent():
    with pytest.raises(ValueError):
        TanhPowerProfile(exponent=2)
    with pytest.raises(ValueError):
        TanhPowerProfile(exponent=-1)


def test_tanh_derivative_at_origin():
    assert TanhProfile(amplitude=1.0).derivative(0.0) == 1.0


def test_linear_derivative_is_slope_everywhere():
    p = LinearProfile(slope=2.5, offset=-1.0)
    x = np.array([-3.0, 0.0, 7.0])
    assert np.all(p.derivative(x) == 2.5)


def test_tabulated_derivative_matches_cosine():
    x = np.arange(-2.0, 2.0, 1e-3)
    p = TabulatedProfile(x, np.sin(x))
    assert p.derivative(0.0) == pytest.approx(1.0, abs=1e-6)
    assert p.derivative(1.0) == pytest.approx(np.cos(1.0), abs=1e-5)


def test_tabulated_range_error():
    x = np.linspace(-1, 1, 11)
    p = TabulatedProfile(x, x**2)
    with pytest.raises(ProfileDomainError):
        p.value(1.5)
    with pytest.raises(ProfileDomainError):
        p.derivative(np.array([0.0, -2.0]))


def test_tabulated_requires_uniform_increasing_nodes():
    with pytest.raises(ValueError):
        TabulatedProfile(np.array([0.0, 1.0, 3.0]), np.zeros(3))
    with pytest.raises(ValueError):
        TabulatedProfile(np.array([0.0, -1.0, -2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        TabulatedProfile(np.array([0.0, 1.0]), np.zeros(2))


def test_step_derivative_singular_at_interface():
    p = StepProfile(1.0, 2.0)
    assert np.all(p.derivative(np.array([-1.0, 1.0])) == 0.0)
    with pytest.raises(ProfileSingularityError):
        p.derivative(0.0)


def test_tanh_sech_shape():
    p = TanhSechProfile(a=4.0, b=1.0)
    x = 0.7
    expected = 4 * np.tanh(x) + 1 / np.cosh(x)
    assert p.value(x) == pytest.approx(expected, rel=1e-15)
    fd = (p.value(x + 1e-6) - p.value(x - 1e-6)) / 2e-6
    assert p.derivative(x) == pytest.approx(fd, abs=1e-9)


def test_profile_evaluation_is_pure():
    for p in (TanhProfile(1.3, 0.2), TanhPowerProfile(5, -0.1), TanhSechProfile(2, 3),
              LinearProfile(0.7, 0.1), StepProfile(1, 2)):
        x = np.array([-1.7, 0.4, 2.9])
        a = p.value(x)
        b = p.value(x)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("profile", [
    TanhProfile(2.0, 0.3),
    TanhPowerProfile(3, 0.5),
    TanhSechProfile(4.0, 1.5),
])
def test_central_difference_converges_at_second_order(profile):
    # analytic derivative vs central differences at h and h/2: error drops ~4x
    xs = np.array([-1.3, -0.4, 0.3, 0.7, 1.1])
    h = 1e-2
    exact = profile.derivative(xs)
    err = []
    for step in (h, h / 2):
        fd = (profile.value(xs + step) - profile.value(xs - step)) / (2 * step)
        err.append(np.abs(fd - exact))
    ratio = err[0] / err[1]
    assert np.all(ratio > 3.0) and np.all(ratio < 5.0)


def test_grid_geometry():
    g = Grid(20.0, 2001)
    assert g.spacing * (g.n_points - 1) == pytest.approx(2 * g.half_length, abs=1e-13)
    assert g.nodes[0] == -20.0 and g.nodes[-1] == 20.0
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[g.center_index] == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-1.0, 101)
    with pytest.raises(ValueError):
        Grid(1.0, 2)
    with pytest.raises(ValueError):
        Grid(1.0, 4).center_index  # even node count has no x=0 node
    # a spacing that underflows to 0 or overflows to infinity
    for half_length in (5e-324, 1.7976931348623157e308):
        with pytest.raises(ValueError, match="must be positive and finite"):
            Grid(half_length, 201)


def test_coupled_model_validation():
    with pytest.raises(ValueError):
        CoupledModel(0.0, 0.0, 0.0, TanhProfile(1.0))
    # the critical field hypot(kappa_f, kappa_m) is 0 whatever kappa_v is
    with pytest.raises(ValueError, match="critical field is 0"):
        CoupledModel(0.0, -0.0, 0.5, TanhProfile(1.0))
    with pytest.raises(ValueError):
        CoupledModel(np.inf, 1.0, 0.0, TanhProfile(1.0))
    m = CoupledModel(3.0, 4.0, 0.0, TanhProfile(0.8))
    assert m.f(30.0) == pytest.approx(2.4, abs=1e-10)
    assert m.m(30.0) == pytest.approx(3.2, abs=1e-10)


def test_scalar_field_shape_check():
    g = Grid(1.0, 11)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(10))


def test_spinor_field_norm_and_flag():
    g = Grid(10.0, 1001)
    x = g.nodes
    up = np.exp(-(x**2)) + 0j
    lo = np.zeros_like(up)
    psi = SpinorField(g, up, lo)
    # the h-weighted integral of exp(-2 x^2) is sqrt(pi / 2)
    assert psi.norm_squared == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)
    n = psi.normalize()
    assert n.norm_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        SpinorField(g, up[:-1], lo[:-1])
