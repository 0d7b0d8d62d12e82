"""Discretized Hamiltonians, the eigensolver contract and classification."""

import math

import numpy as np
import pytest

from diracosc import kernels
from diracosc.errors import ZeroOutputError
from diracosc.model import (
    CoupledModel,
    CustomProfile,
    GeneralProfiles,
    Grid,
    LinearProfile,
    ScalarField,
    SpinorField,
    StepProfile,
    TanhProfile,
)
from diracosc.numerics import (
    build_dirac,
    build_schrodinger,
    classify_bound,
    dirac_continuum_edge,
    dirac_residual,
    eigensolve,
    reconstruct_spinor,
    schrodinger_continuum_edge,
    selfconsistent_level,
)
from diracosc.susy import reduce, spin_eigensystem


def zero_profile():
    return CustomProfile(lambda x: np.zeros_like(np.asarray(x, float)),
                         deriv=lambda x: np.zeros_like(np.asarray(x, float)),
                         name="zero")


def const_profile(c):
    return CustomProfile(lambda x: np.full_like(np.asarray(x, float), c),
                         deriv=lambda x: np.zeros_like(np.asarray(x, float)),
                         name=f"const{c}")


def scarf_model(scale=0.8):
    return CoupledModel(3.0, 4.0, 0.0, TanhProfile(scale))


def physical_dirac(matrix):
    """U dense(band) U^dagger with U = diag(1, i, 1, i, ...): the physical operator."""
    u = np.ones(matrix.storage.shape[1], dtype=complex)
    u[1::2] = 1j
    return u[:, None] * kernels.band_dense(matrix.storage) * u.conj()


def test_hermiticity_of_assembled_matrices():
    g = Grid(10.0, 301)
    profiles = scarf_model().general()
    for r in (0.0, 1.0):
        H = physical_dirac(build_dirac(profiles, g, wilson_r=r))
        assert np.max(np.abs(H - H.conj().T)) <= 1e-12
    pot = ScalarField(g, g.nodes**2)
    S = kernels.band_dense(build_schrodinger(pot).storage)
    assert np.max(np.abs(S - S.T)) <= 1e-12


def test_free_lattice_spectrum_symmetric_and_capped():
    g = Grid(10.0, 201)
    profiles = GeneralProfiles(zero_profile(), zero_profile(), zero_profile())
    res = eigensolve(build_dirac(profiles, g, wilson_r=0.0))
    vals = np.sort(res.values)
    assert np.max(np.abs(vals + vals[::-1])) < 1e-10      # +- pairs
    assert np.max(np.abs(vals)) == pytest.approx(1 / g.spacing, rel=2e-3)


def test_schrodinger_box_ladder():
    g = Grid(10.0, 101)
    pot = ScalarField(g, np.zeros(g.n_points))
    res = eigensolve(build_schrodinger(pot), k=3)
    # hard walls sit one spacing outside the end nodes; the residual error is
    # the usual second-order stencil truncation (k*pi*h/width)^2 / 12
    width = 2 * (g.half_length + g.spacing)
    for k, val in enumerate(res.values, start=1):
        exact = (k * math.pi / width) ** 2
        trunc = exact * (k * math.pi * g.spacing / width) ** 2 / 6
        assert val == pytest.approx(exact, abs=2 * trunc + 1e-12)


def test_harmonic_oscillator_reference():
    g = Grid(10.0, 1001)
    pot = ScalarField(g, g.nodes**2)
    res = eigensolve(build_schrodinger(pot), k=4)
    assert res.values == pytest.approx([1, 3, 5, 7], abs=1e-3)


def test_eigensolve_contract_residual_and_ordering():
    g = Grid(10.0, 401)
    pot = ScalarField(g, g.nodes**2)
    res = eigensolve(build_schrodinger(pot), k=6)
    assert np.all(np.diff(res.values) > 0)
    assert np.all(res.residuals <= 1e-9)
    h = g.spacing
    norms = np.sum(np.abs(res.vectors) ** 2, axis=0) * h
    assert norms == pytest.approx(np.ones(6), abs=1e-12)


def test_eigensolve_explicit_two_by_two():
    # the solver contract on the smallest Dirac operator: three free nodes at
    # r = 0 give sigma_x times the 3-point central difference, with
    # eigenvalues 0 (twice) and +-1/(sqrt(2) h) (twice each)
    g = Grid(1.0, 3)
    profiles = GeneralProfiles(zero_profile(), zero_profile(), zero_profile())
    matrix = build_dirac(profiles, g, wilson_r=0.0)
    res = eigensolve(matrix)
    top = 1.0 / (math.sqrt(2.0) * g.spacing)
    assert res.values == pytest.approx([-top, -top, 0.0, 0.0, top, top], abs=1e-12)
    assert np.all(res.residuals <= 1e-12)
    H = physical_dirac(matrix)
    for i, lam in enumerate(res.values):
        v = res.vectors[:, i] * math.sqrt(g.spacing)
        assert np.linalg.norm(H @ v - lam * v) <= 1e-12


def test_eigensolve_window_and_k_selection():
    g = Grid(20.0, 501)
    matrix = build_dirac(scarf_model().general(), g, wilson_r=0.1)
    full = eigensolve(matrix)
    windowed = eigensolve(matrix, window=(-4.2, 4.2))
    assert np.allclose(
        np.sort(full.values[np.abs(full.values) <= 4.2]),
        np.sort(windowed.values), atol=1e-10)
    # k selects Schrodinger levels only; a Dirac solve takes a window
    with pytest.raises(ValueError):
        eigensolve(matrix, window=(-4.2, 4.2), k=3)
    with pytest.raises(ValueError):
        eigensolve(matrix, k=3)
    # and a window selects Dirac pairs only; it is not ignored on a Schrodinger band
    g2 = Grid(10.0, 201)
    with pytest.raises(ValueError):
        eigensolve(build_schrodinger(ScalarField(g2, g2.nodes**2)), window=(0.0, 2.0))


def test_eigensolve_deterministic():
    g = Grid(10.0, 301)
    matrix = build_dirac(scarf_model().general(), g, wilson_r=1.0)
    a = eigensolve(matrix, window=(-5, 5))
    b = eigensolve(matrix, window=(-5, 5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_dirac_oscillator_tower():
    # linear oscillator profile with constant mass: E^2 = m0^2 + 2*slope*n
    # (small regulator strength: its O(r*h) shift is the dominant error here)
    g = Grid(20.0, 1201)
    kappa, m0 = 1.0, 1.0
    profiles = GeneralProfiles(
        f=LinearProfile(kappa), m=const_profile(m0), v=zero_profile()
    )
    res = eigensolve(build_dirac(profiles, g, wilson_r=0.2), window=(-4.0, 4.0))
    pos = np.sort(res.values[res.values > 0])
    expected = np.sqrt(m0**2 + 2 * kappa * np.arange(0, 6))
    assert pos[:6] == pytest.approx(expected, abs=2e-2)


def test_grid_convergence_second_order():
    errs = []
    for n in (501, 1001):
        g = Grid(10.0, n)
        res = eigensolve(build_schrodinger(ScalarField(g, g.nodes**2)), k=3)
        errs.append(abs(res.values[2] - 5.0))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def jackiw_rebbi_matrix(g, r, m0=1.0):
    profiles = GeneralProfiles(
        f=zero_profile(), m=StepProfile(m0, m0), v=zero_profile()
    )
    return build_dirac(profiles, g, wilson_r=r), profiles


def test_doubler_suppression_counts():
    g = Grid(20.0, 1201)
    for r, expected in ((1.0, 1), (0.0, 2)):
        matrix, profiles = jackiw_rebbi_matrix(g, r)
        res = eigensolve(matrix, window=(-0.9, 0.9))
        cls = classify_bound(res, dirac_continuum_edge(profiles, g))
        near_zero = np.sum(cls.bound_flags & (np.abs(cls.values) < 0.5))
        if r == 1.0:
            assert near_zero == expected
        else:
            assert near_zero >= expected


def test_classify_bound_separates_wall_hybrids():
    # at r=1 the midgap mode degenerates with a wall artifact; the classifier
    # must still find exactly one centrally localized bound state
    g = Grid(20.0, 1201)
    matrix, profiles = jackiw_rebbi_matrix(g, 1.0)
    res = eigensolve(matrix, window=(-0.9, 0.9))
    cls = classify_bound(res, dirac_continuum_edge(profiles, g))
    vals, idx = cls.bound()
    assert len(vals) == 1
    assert abs(vals[0]) < 1e-6
    dens = cls.node_density(idx[0])
    assert g.nodes[np.argmax(dens)] == pytest.approx(0.0, abs=0.5)


def test_classify_bound_jackiw_rebbi_single_flag():
    g = Grid(20.0, 1201)
    matrix, profiles = jackiw_rebbi_matrix(g, 1.0)
    res = eigensolve(matrix, window=(-3.0, 3.0))
    cls = classify_bound(res, dirac_continuum_edge(profiles, g))
    assert int(cls.bound_flags.sum()) == 1


def test_supercritical_sweep_point_has_no_bound_states():
    g = Grid(20.0, 1201)
    model = CoupledModel(3.0, 4.0, 5.5, TanhProfile(1.0))
    profiles = model.general()
    res = eigensolve(build_dirac(profiles, g, wilson_r=1.0), window=(-6, 6))
    edge = dirac_continuum_edge(profiles, g)
    assert edge == 0.0
    cls = classify_bound(res, edge)
    assert int(cls.bound_flags.sum()) == 0


def test_deep_scarf_bound_count():
    g = Grid(20.0, 1201)
    model = scarf_model()
    profiles = model.general()
    res = eigensolve(build_dirac(profiles, g, wilson_r=0.1), window=(-4.5, 4.5))
    cls = classify_bound(res, dirac_continuum_edge(profiles, g))
    vals, _ = cls.bound()
    # 0, +-sqrt(7), +-sqrt(12), +-sqrt(15): seven states
    assert len(vals) == 7
    assert sorted(np.round(vals**2)) == [0, 7, 7, 12, 12, 15, 15]


def test_classify_bound_schrodinger_deep_well_flags():
    # reduced partner problem of the 4*tanh drift: four levels under edge 16
    g = Grid(20.0, 1201)
    red = reduce(scarf_model(), +1)
    pot = ScalarField(g, red.effective_potential(g.nodes))
    res = eigensolve(build_schrodinger(pot), k=8)
    cls = classify_bound(res, schrodinger_continuum_edge(red, g))
    assert int(cls.bound_flags.sum()) == 4


def test_classify_bound_rejects_free_plane_waves():
    g = Grid(20.0, 801)
    profiles = GeneralProfiles(zero_profile(), const_profile(1.0), zero_profile())
    res = eigensolve(build_dirac(profiles, g, wilson_r=1.0), window=(-3, 3))
    cls = classify_bound(res, dirac_continuum_edge(profiles, g))
    assert int(cls.bound_flags.sum()) == 0


def test_charge_conjugation_pairing_at_r0():
    g = Grid(20.0, 801)
    model = scarf_model()
    res = eigensolve(build_dirac(model.general(), g, wilson_r=0.0),
                     window=(-4.2, 4.2))
    cls = classify_bound(res, dirac_continuum_edge(model.general(), g))
    vals, _ = cls.bound()
    for val in vals[vals > 1e-6]:
        assert np.min(np.abs(vals + val)) <= 1e-8


def test_continuum_edges():
    g = Grid(20.0, 801)
    model = CoupledModel(3.0, 4.0, 2.0, TanhProfile(1.0))
    assert dirac_continuum_edge(model.general(), g) == pytest.approx(3.0, abs=1e-6)
    red = reduce(scarf_model(), +1)
    assert schrodinger_continuum_edge(red, g) == pytest.approx(16.0, abs=1e-6)


def test_cross_backend_agreement_field_free():
    g = Grid(20.0, 1201)
    model = scarf_model()
    dres = eigensolve(build_dirac(model.general(), g, wilson_r=0.1),
                      window=(-4.5, 4.5))
    dcls = classify_bound(dres, dirac_continuum_edge(model.general(), g))
    dvals, _ = dcls.bound()
    d_e2 = np.unique(np.round(np.sort(dvals**2), 2))
    red = reduce(model, +1)
    pot = ScalarField(g, red.effective_potential(g.nodes))
    sres = eigensolve(build_schrodinger(pot), k=4)
    tol = max(1e-4, 10 * g.spacing**2)
    for eps in sres.values:
        assert np.min(np.abs(d_e2 - eps)) <= tol


def test_dirac_residual_zero_mode_and_negative_control():
    # the figure is stencil-limited at (lambda*h)^2-order; this state has
    # lambda = 5, so reaching 1e-6 takes h ~ 7e-4
    g = Grid(24.0, 72001)
    model = scarf_model()
    pairs = spin_eigensystem(3.0, 4.0, 0.0, zero_energy_variant=True)
    x = g.nodes
    phi = 1.0 / np.cosh(x) ** 4          # exact zero mode of the 4tanh shape
    psi = SpinorField(g, pairs[0].chi[0] * phi, pairs[0].chi[1] * phi).normalize()
    res = dirac_residual(model.general(), psi, 0.0)
    assert res <= 1e-6
    rng = np.random.default_rng(3)
    junk = SpinorField(g, rng.normal(size=x.size) + 0j,
                       rng.normal(size=x.size) + 0j).normalize()
    assert dirac_residual(model.general(), junk, 0.0) > 1.0


def test_dirac_residual_masks_step_kink():
    g = Grid(5.0, 4001)
    lam = 5.0
    x = g.nodes
    env = np.exp(-lam * np.abs(x))
    psi = SpinorField(g, 2.0 * env + 0j, 1j * env).normalize()
    profiles = GeneralProfiles(StepProfile(3.0, 3.0), StepProfile(4.0, 4.0),
                               zero_profile())
    masked = dirac_residual(profiles, psi, 0.0)
    raw = dirac_residual(profiles, psi, 0.0, jump_mask=False)
    # the kink node alone dominates the unmasked figure
    assert masked < 2e-4
    assert raw > 100 * masked
    # h -> h/2 drops the masked residual by ~4 (second order)
    g2 = Grid(5.0, 8001)
    env2 = np.exp(-lam * np.abs(g2.nodes))
    psi2 = SpinorField(g2, 2.0 * env2 + 0j, 1j * env2).normalize()
    assert dirac_residual(profiles, psi2, 0.0) == pytest.approx(masked / 4, rel=0.15)


def reduced_scarf_state(g, level):
    model = scarf_model()
    red = reduce(model, +1)
    pot = ScalarField(g, red.effective_potential(g.nodes))
    res = eigensolve(build_schrodinger(pot), k=level + 1)
    return model, res.values[level], ScalarField(g, res.vectors[:, level])


def test_reconstruct_spinor_excited_state():
    g = Grid(20.0, 2001)
    model, eps, phi = reduced_scarf_state(g, 1)
    energy = math.sqrt(eps)
    assert energy == pytest.approx(math.sqrt(7.0), abs=1e-3)
    chi = spin_eigensystem(3.0, 4.0, 0.0)[0].chi
    psi = reconstruct_spinor(phi, chi, model, energy)
    assert psi.normalized
    res = dirac_residual(model.general(), psi, energy)
    assert res < 5e-3
    # the residual is discretization-limited: halving h drops it ~4x
    g2 = Grid(20.0, 4001)
    model2, eps2, phi2 = reduced_scarf_state(g2, 1)
    psi2 = reconstruct_spinor(phi2, chi, model2, math.sqrt(eps2))
    res2 = dirac_residual(model2.general(), psi2, math.sqrt(eps2))
    assert res2 == pytest.approx(res / 4, rel=0.25)


def test_reconstruct_spinor_zero_energy_ground_state_raises():
    g = Grid(20.0, 2001)
    model, eps, phi = reduced_scarf_state(g, 0)
    assert abs(eps) < 1e-3
    chi = spin_eigensystem(3.0, 4.0, 0.0)[0].chi
    with pytest.raises(ZeroOutputError):
        reconstruct_spinor(phi, chi, model, 0.0)


def test_selfconsistent_level_matches_composed_formula():
    model = CoupledModel(3.0, 4.0, 2.0, TanhProfile(1.0))
    g = Grid(20.0, 2001)
    energy, eps, iters = selfconsistent_level(model, +1, 1, g, seed_energy=1.0)
    kp = math.sqrt(21.0)
    expected = (21 - (kp - 1) ** 2) / (1 + 4 / (kp - 1) ** 2)
    assert energy**2 == pytest.approx(expected, abs=2e-3)
    assert iters < 50
    neg, _, _ = selfconsistent_level(model, +1, 1, g, seed_energy=-1.0)
    assert neg == pytest.approx(-energy, abs=1e-6)
