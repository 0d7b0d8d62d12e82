"""Zero-mode constructions: quadrature, interface matching, transformed potential."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1

from diracosc.analytic import rosen_morse2_levels, transformed_potential_parameters
from diracosc.errors import (
    ConstructionFailedError,
    DegenerateSpinorError,
    SupercriticalError,
)
from diracosc.model import (
    CoupledModel,
    Grid,
    LinearProfile,
    StepProfile,
    TanhPowerProfile,
    TanhProfile,
)
from diracosc.numerics import build_schrodinger, dirac_residual, eigensolve
from diracosc.model import ScalarField
from diracosc.zeromodes import (
    StepMatchProblem,
    match_interface,
    transformed_potential_profiles,
    step_match,
    zero_mode_quadrature,
    zero_mode_transformed,
)


def d1_five_point(y, h):
    d = np.zeros_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    return d


# ---------------------------------------------------------------------------
# quadrature mechanism

def test_quadrature_plain_tanh_matches_sech_profile():
    # integral of tanh is log cosh, so the mode shape is sech^lambda
    model = CoupledModel(0.6, 0.8, 0.0, TanhProfile(1.0))   # lambda+ = 1
    g = Grid(20.0, 4001)
    mode = zero_mode_quadrature(model, g)
    assert mode.normalizable
    assert mode.metadata["sigma"] == +1
    shape = 1.0 / np.cosh(g.nodes)
    shape /= math.sqrt(np.sum(shape**2) * g.spacing)
    amp = np.abs(mode.psi.upper) ** 2 + np.abs(mode.psi.lower) ** 2
    assert np.max(np.abs(np.sqrt(amp) - shape)) < 1e-8


def test_quadrature_shifted_tanh_normalizability_window():
    # drift tanh(x) + mu binds only while |mu| < 1
    g = Grid(30.0, 2001)
    for mu, expected in ((0.9, True), (-0.9, True), (1.1, False), (-1.1, False)):
        model = CoupledModel(0.6, 0.8, 0.0, TanhProfile(1.0, shift=mu))
        mode = zero_mode_quadrature(model, g)
        assert mode.normalizable is expected
        if expected:
            assert min(mode.decay_rates) == pytest.approx(1 - abs(mu), abs=1e-9)


def test_quadrature_first_order_equation_residual():
    model = CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(3, shift=0.5))
    g = Grid(24.0, 24001)
    mode = zero_mode_quadrature(model, g)
    assert mode.normalizable
    lam = mode.metadata["lambda"]
    w = model.profile.value(g.nodes)
    phi = np.abs(mode.psi.upper) / abs(mode.metadata["chi"][0])
    res = np.abs(d1_five_point(phi, g.spacing) + lam * w * phi)[2:-2]
    assert res.max() / phi.max() <= 1e-8


def test_quadrature_closed_form_and_wrong_prefactor():
    # cumulative quadrature against the hypergeometric closed form, evaluated
    # through its numerically stable equivalent; the misprinted prefactor
    # variant misses by orders of magnitude more
    n, mu = 1, 0.5
    model = CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(2 * n + 1, shift=mu))
    g = Grid(24.0, 24001)
    mode = zero_mode_quadrature(model, g)
    x = g.nodes
    t2 = np.tanh(x) ** 2

    # identity check at moderate x, where the 2F1 form is well conditioned
    xs = np.linspace(-6, 6, 25)
    direct = (hyp2f1(1, n + 1, n + 2, np.tanh(xs) ** 2)
              * np.tanh(xs) ** (2 * n + 2) / (2 * n + 2))
    stable = np.log(np.cosh(xs)) - 0.5 * np.tanh(xs) ** 2
    assert np.max(np.abs(direct - stable)) < 1e-10

    lam = mode.metadata["lambda"]
    phi = np.abs(mode.psi.upper) / abs(mode.metadata["chi"][0])

    def normalized(expo):
        f = np.exp(-(expo - expo.min()))
        return f / math.sqrt(np.sum(f**2) * g.spacing)

    good = normalized(lam * (mu * x + np.log(np.cosh(x)) - 0.5 * t2))
    bad = normalized(lam * (mu * x + (np.log(np.cosh(x)) - 0.5 * t2)
                            * (2 * n + 2) / (2 * n + 1)))
    assert np.max(np.abs(phi - good)) <= 1e-8
    assert np.max(np.abs(phi - bad)) > 1e-2


def test_quadrature_dirac_residual():
    model = CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(3, shift=0.5))
    g = Grid(24.0, 24001)
    mode = zero_mode_quadrature(model, g)
    assert mode.metadata["dirac_residual"] <= 1e-6


@pytest.mark.parametrize("model, grid", [
    (CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(3, shift=0.5)), Grid(24.0, 201)),
    (CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(3, shift=0.5)), Grid(24.0, 24001)),
    (CoupledModel(0.6, 0.8, 0.3, TanhProfile(1.0)), Grid(20.0, 201)),
])
def test_quadrature_residual_is_the_general_model_residual(model, grid):
    # the residual from the quadrature's own profile sample is, to the last
    # bit, the one dirac_residual takes from the three profiles of general()
    mode = zero_mode_quadrature(model, grid)
    profiles = model.general()
    f, m, v = (prof.value(grid.nodes) for prof in (profiles.f, profiles.m, profiles.v))
    assert mode.metadata["dirac_residual"] == dirac_residual(f, m, v, mode.psi, 0.0)


@pytest.mark.parametrize("flip_f", [False, True])
@pytest.mark.parametrize("flip_m", [False, True])
def test_step_residual_is_the_step_profile_residual(flip_f, flip_m):
    # the residual step_match takes from its signed steps is, to the last
    # bit, the one dirac_residual takes from StepProfile samples of the same
    # arrangement and v = 0
    grid = Grid(5.0, 2001)
    problem = StepMatchProblem(3.0, 3.0, 4.0, 4.0, flip_f=flip_f, flip_m=flip_m)
    mode = step_match(problem, grid)
    sf, sm = (-1.0 if flip else 1.0 for flip in (flip_f, flip_m))
    f = StepProfile(sf * 3.0, sf * 3.0).value(grid.nodes)
    m = StepProfile(sm * 4.0, sm * 4.0).value(grid.nodes)
    expected = dirac_residual(f, m, np.zeros(grid.n_points), mode.psi, 0.0)
    assert mode.metadata["dirac_residual"] == expected


def test_quadrature_sigma_exclusivity():
    g = Grid(20.0, 2001)
    plus = zero_mode_quadrature(CoupledModel(0.6, 0.8, 0.0, TanhProfile(1.0)), g)
    assert plus.metadata["sigma"] == +1
    # flipping the drift sign hands the mode to the other partner
    minus = zero_mode_quadrature(CoupledModel(0.6, 0.8, 0.0, TanhProfile(-1.0)), g)
    assert minus.normalizable and minus.metadata["sigma"] == -1


def test_quadrature_constant_drift_binds_nothing():
    model = CoupledModel(0.6, 0.8, 0.0, LinearProfile(0.0, offset=1.0))
    mode = zero_mode_quadrature(model, Grid(10.0, 501))
    assert not mode.normalizable
    assert set(mode.metadata["candidates"]) == {+1, -1}


def test_quadrature_linear_drift_gives_gaussian():
    model = CoupledModel(0.6, 0.8, 0.0, LinearProfile(1.0))
    g = Grid(12.0, 2001)
    mode = zero_mode_quadrature(model, g)
    assert mode.normalizable
    gauss = np.exp(-g.nodes**2 / 2)
    gauss /= math.sqrt(np.sum(gauss**2) * g.spacing)
    amp = np.sqrt(mode.psi.density())
    assert np.max(np.abs(amp - gauss)) < 1e-7


def test_quadrature_supercritical_raises():
    model = CoupledModel(1.0, 1.0, 2.0, TanhProfile(1.0))
    with pytest.raises(SupercriticalError):
        zero_mode_quadrature(model, Grid(10.0, 501))


# ---------------------------------------------------------------------------
# interface matching mechanism

def test_match_reference_values():
    matched = match_interface(StepMatchProblem(3.0, 3.0, 4.0, 4.0))
    assert matched is not None
    const, ratio, lam_p, lam_m = matched
    assert lam_p == lam_m == pytest.approx(5.0)
    assert const == pytest.approx(1.0)          # m*sqrt(lam/((lam+f)^2+m^2))
    assert abs(ratio) == pytest.approx(2.0)     # (lam+f)/m


def test_match_closed_form_constant_is_exact():
    # the analytic constant normalizes the mode on the line exactly
    for f, m in ((3.0, 4.0), (0.0, 1.0), (1.5, 2.5)):
        matched = match_interface(StepMatchProblem(f, f, m, m))
        const, ratio, lam_p, lam_m = matched
        integral = (ratio**2 + 1) * const**2 * (0.5 / lam_p + 0.5 / lam_m)
        assert integral == pytest.approx(1.0, abs=1e-14)
        expected = m * math.sqrt(math.hypot(f, m) / ((math.hypot(f, m) + f) ** 2 + m**2))
        assert const == pytest.approx(expected, abs=1e-14)


def test_step_match_grid_mode():
    g = Grid(5.0, 8001)
    mode = step_match(StepMatchProblem(3.0, 3.0, 4.0, 4.0), g)
    assert mode is not None
    assert mode.psi.norm_squared == pytest.approx(1.0, abs=1e-10)
    assert mode.metadata["normalization_constant"] == pytest.approx(1.0)
    # the raw closed-form field misses unit grid norm only at (lambda*h)^2 order
    assert mode.metadata["grid_norm_of_closed_form"] == pytest.approx(
        1.0, abs=(5 * g.spacing) ** 2)
    assert mode.metadata["dirac_residual"] <= 1e-4
    # continuity at the interface: both one-sided limits agree by construction
    c = g.center_index
    assert mode.psi.upper[c - 1] == pytest.approx(mode.psi.upper[c + 1].real,
                                                  rel=5 * g.spacing * 5)


def test_step_match_component_relation():
    g = Grid(5.0, 2001)
    mode = step_match(StepMatchProblem(3.0, 3.0, 4.0, 4.0), g)
    # psi1 = i * ratio * psi2 nodewise
    ratio = mode.metadata["component_ratio"]
    assert np.allclose(mode.psi.upper, 1j * ratio * mode.psi.lower, atol=1e-14)


def test_step_match_wide_box_does_not_overflow():
    # exp(-lambda_plus * x) at x = -200 overflows; only the decaying branch
    # of each side may be evaluated (pytest turns the overflow into an error)
    mode = step_match(StepMatchProblem(3.0, 3.0, 4.0, 4.0), Grid(200.0, 801))
    assert mode.psi.norm_squared == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.isfinite(mode.psi.upper)) and np.all(np.isfinite(mode.psi.lower))


def test_step_match_jackiw_rebbi_limit():
    g = Grid(8.0, 4001)
    mode = step_match(StepMatchProblem(0.0, 0.0, 1.0, 1.0), g)
    assert mode is not None
    assert mode.metadata["lambda_plus"] == pytest.approx(1.0)
    # profile exp(-|x|) for both components with equal weight
    assert abs(mode.psi.upper[g.center_index]) == pytest.approx(
        abs(mode.psi.lower[g.center_index]), rel=1e-12)


def test_step_match_asymmetric_returns_none():
    g = Grid(5.0, 1001)
    assert step_match(StepMatchProblem(1.0, 2.0, 1.0, 1.0), g) is None
    assert match_interface(StepMatchProblem(3.0, 3.0, 4.0, 4.0, energy=0.5)) is None


def test_step_match_asymmetric_mass_zero_f_still_matches():
    # pure mass kinks match for any pair of magnitudes
    g = Grid(8.0, 4001)
    mode = step_match(StepMatchProblem(0.0, 0.0, 2.0, 1.0), g)
    assert mode is not None
    assert mode.decay_rates == (pytest.approx(1.0), pytest.approx(2.0))


def test_step_match_sign_flips():
    g = Grid(5.0, 2001)
    for flips in ((False, False), (True, False), (False, True), (True, True)):
        mode = step_match(StepMatchProblem(3.0, 3.0, 4.0, 4.0, flip_f=flips[0],
                                           flip_m=flips[1]), g)
        assert mode is not None, flips
        assert mode.metadata["dirac_residual"] <= 1e-3


def test_step_match_degenerate_denominator():
    with pytest.raises(DegenerateSpinorError):
        match_interface(StepMatchProblem(1.0, 1.0, 2.0, 1.0, energy=-1.0))


def test_step_problem_validation():
    with pytest.raises(ValueError):
        StepMatchProblem(1.0, 1.0, 0.0, 1.0)      # massless side
    with pytest.raises(ValueError):
        StepMatchProblem(-1.0, 1.0, 1.0, 1.0)     # negative magnitude
    with pytest.raises(ValueError):
        match_interface(StepMatchProblem(1.0, 1.0, 1.0, 1.0, energy=2.0))


# ---------------------------------------------------------------------------
# transformed-potential mechanism

def test_transformed_profile_construction():
    params = transformed_potential_parameters(3.0, 1)
    osc, mass, potential = transformed_potential_profiles(params)
    x = np.linspace(-5, 5, 101)
    assert np.allclose(mass(x), math.sqrt(6.0) / np.cosh(x), atol=1e-14)
    assert np.allclose(osc(x), 3.5 * np.tanh(x) + 1.0, atol=1e-14)
    expected = 10.0 - 6.0 / np.cosh(x) ** 2 + 6.0 * np.tanh(x)
    assert np.allclose(potential(x), expected, atol=1e-13)


def test_transformed_spectrum_identity_for_its_lowest_level():
    # the potential's one genuine level sits at (lam^2+nu^2) - A^2 - B^2/A^2
    params = transformed_potential_parameters(3.0, 1)
    _, _, potential = transformed_potential_profiles(params)
    g = Grid(20.0, 2001)
    res = eigensolve(build_schrodinger(ScalarField(g, potential(g.nodes))), k=2)
    predicted = (params.lam**2 + params.nu**2
                 - params.a**2 - params.b**2 / params.a**2)
    assert res.values[0] == pytest.approx(predicted, abs=1e-3)


def test_transformed_construction_fails_with_spectrum_attached():
    # no valid parameters admit the requested eigenvalue: level n is the
    # non-normalizable RM-II candidate, and the attached spectrum starts at
    # the closed-form ground level (the n = 0 RM-II level, shifted)
    g = Grid(20.0, 2001)
    for lam, n in ((3.0, 1), (2.0, 1), (4.0, 2)):
        params = transformed_potential_parameters(lam, n)
        assert params.valid
        nu = lam - 1.0 - n
        a, b = lam - 1.0, lam * nu
        shift = lam**2 + nu**2 - a**2 - b**2 / a**2
        ground = min(rosen_morse2_levels(a, b).e_squared_values(sigma=+1)) + shift
        vmin = lam - nu**2 / (lam - 1.0)
        assert vmin > 0
        with pytest.raises(ConstructionFailedError) as err:
            zero_mode_transformed(params, g)
        assert "non-normalizable" in str(err.value)
        spectrum = err.value.spectrum
        assert spectrum is not None
        assert spectrum[0] == pytest.approx(ground, abs=1e-3), (lam, n)
        assert np.min(spectrum) > vmin


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(2.0, 8.0), n=st.integers(1, 7))
def test_transformed_construction_fails_for_every_valid_closure(lam, n):
    # the walled -d^2/dx^2 is positive definite and V1 >= lam - nu^2/(lam-1)
    # > 0, so no valid closure has an eigenvalue that could be a zero mode
    params = transformed_potential_parameters(lam, n)
    assume(params.valid)
    with pytest.raises(ConstructionFailedError) as err:
        zero_mode_transformed(params, Grid(15.0, 601))
    assert "non-normalizable" in str(err.value)
    assert err.value.spectrum[0] > lam - params.nu**2 / (lam - 1.0)


def test_transformed_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        zero_mode_transformed(transformed_potential_parameters(3.0, 0), Grid(10.0, 501))
    with pytest.raises(ValueError):
        zero_mode_transformed(transformed_potential_parameters(1.5, 1), Grid(10.0, 501))
