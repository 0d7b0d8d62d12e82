"""Discretized Hamiltonians, the eigensolver contract and classification."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from diracosc import kernels, numerics
from diracosc.cli import bound_census
from diracosc.errors import (
    BoxStateError,
    DiracOscError,
    LatticeThresholdError,
)
from diracosc.model import (
    CoupledModel,
    CustomProfile,
    GeneralProfiles,
    Grid,
    LinearProfile,
    ScalarField,
    SpinorField,
    StepProfile,
    TanhPowerProfile,
    TanhProfile,
    TanhSechProfile,
)
from diracosc.numerics import (
    BISECT_TOL,
    EXCLUDE_FRAC,
    LONE_RESIDUAL_TOL,
    DiracMatrix,
    _dirac_minus_e,
    _newton_level,
    build_dirac,
    build_schrodinger,
    build_staggered,
    classify_bound,
    dirac_continuum_edge,
    dirac_residual,
    eigensolve,
    schrodinger_continuum_edge,
    selfconsistent_level,
)
from diracosc.susy import reduce, spin_eigensystem


def zero_profile():
    return CustomProfile(lambda x: np.zeros_like(np.asarray(x, float)))


def const_profile(c):
    return CustomProfile(lambda x: np.full_like(np.asarray(x, float), c))


def scarf_model(scale=0.8):
    return CoupledModel(3.0, 4.0, 0.0, TanhProfile(scale))


def sampled(profiles, grid):
    """(f, m, v) of `profiles` on the nodes of `grid`, as dirac_residual takes them."""
    return tuple(np.asarray(prof.value(grid.nodes), dtype=float)
                 for prof in (profiles.f, profiles.m, profiles.v))


def physical_dirac(matrix):
    """The physical operator P dense(band) P^dagger, P = I (x) [[1, 1], [-i, i]]/sqrt2."""
    n = matrix.storage.shape[1] // 2
    p = np.kron(np.eye(n), np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2.0))
    return p @ kernels.band_dense(matrix.storage) @ p.conj().T


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
    # eigenvalues 0 (twice) and +-1/(sqrt(2) h) (twice each); the staggered
    # chain of the same nodes is a free chain of five sites with bonds
    # +-1/h, eigenvalues 0 and +-1/h, +-sqrt(3)/h. Both return real (w, u)
    # vectors of the stored band.
    g = Grid(1.0, 3)
    profiles = GeneralProfiles(zero_profile(), zero_profile(), zero_profile())
    top = 1.0 / g.spacing
    for matrix, expected in (
            (build_dirac(profiles, g, wilson_r=0.0),
             [-top / math.sqrt(2.0)] * 2 + [0.0] * 2 + [top / math.sqrt(2.0)] * 2),
            (build_staggered(profiles, g),
             [-math.sqrt(3.0) * top, -top, 0.0, top, math.sqrt(3.0) * top])):
        res = eigensolve(matrix)
        assert res.values == pytest.approx(expected, abs=1e-12)
        assert np.all(res.residuals <= 1e-12)
        assert res.vectors.dtype == float
        H = kernels.band_dense(matrix.storage)
        for i, lam in enumerate(res.values):
            v = res.vectors[:, i] * math.sqrt(g.spacing)
            assert np.linalg.norm(H @ v - lam * v) <= 1e-12


def random_dirac(n, h, r, seed, v_scale=5.0):
    """DiracMatrix of random f, m, v samples on n nodes of spacing h."""
    rng = np.random.default_rng(seed)
    f, m = rng.uniform(-5.0, 5.0, size=(2, n))
    v = rng.uniform(-v_scale, v_scale, size=n)
    grid = Grid(h * (n - 1) / 2.0, n)
    return DiracMatrix(grid=grid, storage=kernels.assemble_wilson(f, m, v, h, r))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 60),
    h=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32 - 1),
    full=st.booleans(),
    first=st.integers(0, 119),
    count=st.integers(0, 120),
)
def test_r1_eigensolve_matches_dense_reference(n, h, seed, full, first, count):
    # r = 1 solves on the tridiagonal sigma_y form; the reference is the
    # dense matrix of the same band, whose real (w, u) vectors the solve
    # returns. Window edges sit midway between reference eigenvalues (or
    # beyond the ends), so membership in (lo, hi] is unambiguous.
    matrix = random_dirac(n, h, 1.0, seed)
    H = kernels.band_dense(matrix.storage)
    ref = np.linalg.eigvalsh(H)
    tol = 1e-12 * max(1.0, np.max(np.abs(ref)))
    if full:
        window, expected = None, ref
    else:
        cuts = np.concatenate([[ref[0] - 1.0], (ref[:-1] + ref[1:]) / 2.0,
                               [ref[-1] + 1.0]])
        i = min(first, 2 * n - 1)
        j = min(i + count, 2 * n)
        # an empty window stops short of the next eigenvalue
        hi = cuts[j] if j > i else (cuts[i] + ref[i]) / 2.0
        window, expected = (cuts[i], hi), ref[i:j]
    res = eigensolve(matrix, window=window)
    assert res.values.shape == expected.shape
    assert np.all(np.abs(res.values - expected) <= tol)
    assert res.vectors.dtype == float
    x = res.vectors * math.sqrt(h)
    assert np.allclose(np.linalg.norm(x, axis=0), 1.0, atol=1e-12, rtol=0)
    assert np.all(np.linalg.norm(H @ x - x * res.values, axis=0) <= tol)
    assert np.all(res.residuals <= tol)


def test_only_r_other_than_one_builds_a_dense_matrix(monkeypatch):
    dense, eigh = kernels.band_dense, scipy.linalg.eigh
    calls = []

    def no_dense(band):
        raise AssertionError("dense matrix built for an r = 1 solve")

    monkeypatch.setattr(kernels, "band_dense", no_dense)
    res = eigensolve(random_dirac(41, 0.2, 1.0, seed=5), window=(-3.0, 3.0))
    assert len(res.values) > 0

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "band_dense", spy("band_dense", dense))
    monkeypatch.setattr(scipy.linalg, "eigh", spy("eigh", eigh))
    res = eigensolve(random_dirac(41, 0.2, 0.5, seed=5), window=(-3.0, 3.0))
    assert len(res.values) > 0
    assert calls == ["band_dense", "eigh"]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 101), h=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
def test_r0_spectrum_is_mirror_symmetric_without_field(n, h, seed):
    # at r = 0 and v = 0 the node-staggered (-1)^j [[0, 1], [-1, 0]] on the
    # stored band anticommutes with the operator for any f and m
    vals = eigensolve(random_dirac(n, h, 0.0, seed, v_scale=0.0)).values
    scale = max(1.0, np.max(np.abs(vals)))
    assert np.max(np.abs(vals + vals[::-1])) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 101), h=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
def test_staggered_spectrum_is_mirror_symmetric_without_field(n, h, seed):
    # with v = 0 and f, m odd about the centre, reversing the chain end to
    # end negates every entry, so the eigenvalues pair as +-E and the odd
    # dimension 2n - 1 holds one exact zero
    rng = np.random.default_rng(seed)
    f = rng.uniform(-5.0, 5.0, size=2 * n - 1)
    m = rng.uniform(-5.0, 5.0, size=2 * n - 2)
    band = kernels.assemble_dirac(f - f[::-1], m - m[::-1], np.zeros(2 * n - 1), h)
    matrix = DiracMatrix(grid=Grid(h * (n - 1) / 2.0, n), storage=band)
    vals = eigensolve(matrix).values
    scale = max(1.0, np.max(np.abs(vals)))
    assert np.max(np.abs(vals + vals[::-1])) <= 1e-12 * scale
    assert np.min(np.abs(vals)) <= 1e-12 * scale


def band_norm(matrix):
    """The max|d| + 2*max|e| bound on ||T|| that eigensolve bisects against."""
    band = matrix.storage
    return np.abs(band[0]).max() + 2.0 * np.abs(band[1, :-1]).max(initial=0.0)


def solve_ranges(monkeypatch):
    """The select_range of every LAPACK tridiagonal solve, in call order."""
    solve, ranges = scipy.linalg.eigh_tridiagonal, []

    def spy(*args, **kwargs):
        ranges.append(kwargs["select_range"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    return ranges


ODD_PROFILES = {
    "tanh": lambda a, k: TanhProfile(a),
    "tanh_power": lambda a, k: TanhPowerProfile(k),
    "tanh_sech": lambda a, k: TanhSechProfile(a, 0.0),
    "linear": lambda a, k: LinearProfile(a / 4.0),
}


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(sorted(ODD_PROFILES)),
    amplitude=st.floats(0.5, 1.5),
    exponent=st.sampled_from([1, 3, 5]),
    kf=st.floats(0.5, 4.0),
    km=st.floats(-4.0, 4.0),
    field=st.floats(-0.95, 0.95),
    n_points=st.integers(50, 400).map(lambda k: 2 * k + 1),
    half_length=st.floats(4.0, 8.0),
)
def test_odd_chain_window_solves_half_and_mirrors(shape, amplitude, exponent, kf, km,
                                                  field, n_points, half_length):
    # odd f, m and v make the staggered chain reflection-odd, so only
    # (-tol, edge] is bisected; the window must still hold every pair of
    # (-edge, edge], each -E vector the reversed +E vector
    model = CoupledModel(kf, km, field * math.hypot(kf, km),
                         ODD_PROFILES[shape](amplitude, exponent))
    grid = Grid(half_length, n_points)
    profiles = model.general()
    try:
        matrix = build_staggered(profiles, grid)
    except LatticeThresholdError:
        reject()
    edge = dirac_continuum_edge(profiles, grid)
    norm = band_norm(matrix)
    with pytest.MonkeyPatch.context() as mp:
        ranges = solve_ranges(mp)
        res = eigensolve(matrix, window=(-edge, edge))
    assert ranges == [(-BISECT_TOL * norm, edge)]
    ref = scipy.linalg.eigvalsh_tridiagonal(matrix.storage[0], matrix.storage[1, :-1],
                                            select="v", select_range=(-edge, edge))
    assert len(res.values) == len(ref)
    assert np.all(np.abs(res.values - ref) <= 1e-12 * norm)
    assert np.all(res.residuals <= 1e-12 * norm)
    k = np.count_nonzero(res.values > BISECT_TOL * norm)
    assert np.array_equal(res.values[:k], -res.values[::-1][:k])
    assert np.array_equal(res.vectors[:, :k], res.vectors[::-1, ::-1][:, :k])


def test_chains_that_are_not_reflection_odd_solve_the_full_window(monkeypatch):
    ranges = solve_ranges(monkeypatch)
    g = Grid(20.0, 1201)
    shifted = CoupledModel(3.0, 4.0, 0.0, TanhProfile(0.8, shift=0.01)).general()
    edge = dirac_continuum_edge(shifted, g)
    assert len(eigensolve(build_staggered(shifted, g), window=(-edge, edge)).values) > 0
    # the per-node r = 1 band puts w and u in mirrored rows: not odd for any profile
    odd = scarf_model().general()
    edge_r1 = dirac_continuum_edge(odd, g)
    assert len(eigensolve(build_dirac(odd, g), window=(-edge_r1, edge_r1)).values) > 0
    assert ranges == [(-edge, edge), (-edge_r1, edge_r1)]


def test_odd_window_falls_back_when_the_count_disagrees(monkeypatch):
    g = Grid(20.0, 1201)
    profiles = CoupledModel(3.0, 4.0, 2.0, TanhProfile(1.0)).general()
    edge = dirac_continuum_edge(profiles, g)
    matrix = build_staggered(profiles, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_is_reflection_odd", lambda band, norm: False)
        full = eigensolve(matrix, window=(-edge, edge))
    count = numerics._sturm_count
    monkeypatch.setattr(numerics, "_sturm_count",
                        lambda band, lo, hi: count(band, lo, hi) + 1)
    ranges = solve_ranges(monkeypatch)
    res = eigensolve(matrix, window=(-edge, edge))
    assert ranges == [(-BISECT_TOL * band_norm(matrix), edge), (-edge, edge)]
    assert np.array_equal(res.values, full.values)
    assert np.array_equal(res.vectors, full.vectors)
    assert np.array_equal(res.residuals, full.residuals)


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
    # a window is a nonempty interval (lo, hi], on either Dirac solver
    for r in (0.1, 1.0):
        with pytest.raises(ValueError, match="lo < hi"):
            eigensolve(build_dirac(scarf_model().general(), g, wilson_r=r),
                       window=(1.0, 1.0))
    # and a window selects Dirac pairs only; it is not ignored on a Schrodinger band
    g2 = Grid(10.0, 201)
    with pytest.raises(ValueError):
        eigensolve(build_schrodinger(ScalarField(g2, g2.nodes**2)), window=(0.0, 2.0))


@pytest.mark.parametrize("k", [0, -1])
def test_eigensolve_rejects_k_below_one(k):
    g = Grid(10.0, 201)
    matrix = build_schrodinger(ScalarField(g, g.nodes**2))
    with pytest.raises(ValueError, match=f"k={k} must be at least 1"):
        eigensolve(matrix, k=k)


def two_stage_cases():
    """(id, matrix, eigensolve keywords) for the windowed tridiagonal solves."""
    readme = CoupledModel(3.0, 4.0, 0.0, TanhProfile(0.8)).general()
    g = Grid(20.0, 2001)
    edge = dirac_continuum_edge(readme, g)
    yield "readme-window", build_dirac(readme, g), {"window": (-edge, edge)}
    g = Grid(20.0, 1201)
    for kappa_v in (0.0, 2.0, 4.9):
        profiles = CoupledModel(3.0, 4.0, kappa_v, TanhProfile(1.0)).general()
        edge = dirac_continuum_edge(profiles, g)
        yield (f"ac5-window-kv{kappa_v}", build_dirac(profiles, g),
               {"window": (-edge, edge)})
    g = Grid(20.0, 2001)
    # c = 10 is exactly degenerate (the wells are mirror images and far
    # apart); at c = 4 and 5 the pairs split by 6.6e-5 down to 1.4e-7, below
    # the group threshold of the Rayleigh-Ritz step
    for c in (10.0, 4.0, 5.0):
        pot = ScalarField(g, 0.5 * (np.abs(g.nodes) - c) ** 2)
        yield f"double-well-c{c}", build_schrodinger(pot), {"k": 8}


@pytest.mark.parametrize("case", list(two_stage_cases()), ids=lambda case: case[0])
def test_two_stage_solve_matches_full_accuracy_bisection(case):
    _, matrix, kw = case
    band = matrix.storage
    norm = np.abs(band[0]).max() + 2.0 * np.abs(band[1]).max()
    if "k" in kw:
        select, select_range = "i", (0, kw["k"] - 1)
    else:
        select, select_range = "v", kw["window"]
    # the reference bisects every eigenvalue to full accuracy (default tol)
    ref, _ = scipy.linalg.eigh_tridiagonal(band[0], band[1, :-1], select=select,
                                           select_range=select_range)
    res = eigensolve(matrix, **kw)
    assert len(res.values) == len(ref) > 0
    assert np.max(np.abs(res.values - ref)) <= 1e-12 * norm
    assert np.max(res.residuals) <= 1e-12 * norm
    unit = res.vectors * math.sqrt(matrix.grid.spacing)
    gram = unit.conj().T @ unit
    assert np.max(np.abs(gram - np.eye(len(ref)))) <= 1e-10


def test_non_finite_profile_error_is_a_value_error():
    # callers that catch ValueError keep working; the CLI catches DiracOscError
    model = CoupledModel(3.0, 4.0, 0.0, LinearProfile(1e308))
    for call in (lambda g: build_dirac(model.general(), g),
                 lambda g: dirac_continuum_edge(model.general(), g)):
        with pytest.raises(ValueError, match="non-finite") as info:
            call(Grid(20.0, 201))
        assert isinstance(info.value, DiracOscError)


def test_eigensolve_deterministic():
    g = Grid(10.0, 301)
    matrix = build_dirac(scarf_model().general(), g, wilson_r=1.0)
    a = eigensolve(matrix, window=(-5, 5))
    b = eigensolve(matrix, window=(-5, 5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


@settings(max_examples=25, deadline=None)
@given(n_points=st.sampled_from([201, 401]),
       kappa_v=st.lists(st.floats(0.0, 6.0), min_size=2, max_size=4))
def test_bound_count_does_not_increase_with_field(n_points, kappa_v):
    # the AC-5 model: a stronger electric coupling never binds more states
    grid = Grid(20.0, n_points)
    counts = [
        len(bound_census(CoupledModel(3.0, 4.0, kv, TanhProfile(1.0)),
                         grid, [], 1e-3).values)
        for kv in sorted(kappa_v)
    ]
    assert counts == sorted(counts, reverse=True)


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
    # rows 2j and 2j + 1 belong to node j
    peak = np.argmax(cls.vectors[:, idx[0]] ** 2) // 2
    assert g.nodes[peak] == pytest.approx(0.0, abs=0.5)


def test_classify_bound_jackiw_rebbi_single_flag():
    g = Grid(20.0, 1201)
    matrix, profiles = jackiw_rebbi_matrix(g, 1.0)
    res = eigensolve(matrix, window=(-3.0, 3.0))
    cls = classify_bound(res, dirac_continuum_edge(profiles, g))
    assert int(cls.bound_flags.sum()) == 1


def test_staggered_mass_kink_separates_wall_states_from_the_zero_mode():
    # kappa_f = 0: with f = v = 0 both hard-wall states of the staggered
    # chain sit at E = 0 with the physical zero mode, three values in one
    # cluster; re-mixing the cluster keeps the zero mode, so the window
    # holds 9 values and 7 bound states (E^2 = 0, 7, 12, 15)
    g = Grid(20.0, 2001)
    profiles = CoupledModel(0.0, 4.0, 0.0, TanhProfile(1.0)).general()
    edge = dirac_continuum_edge(profiles, g)
    res = eigensolve(build_staggered(profiles, g), window=(-edge, edge))
    assert len(res.values) == 9
    assert np.sum(np.abs(res.values) < 1e-12) == 3
    cls = classify_bound(res, edge)
    vals, idx = cls.bound()
    assert len(vals) == 7
    assert np.sort(vals**2)[::2] == pytest.approx([0.0, 7.0, 12.0, 15.0], abs=5e-3)
    # the zero mode, h-normalized, sits at the kink
    vec = cls.vectors[:, idx[np.argmin(np.abs(vals))]]
    assert np.sum(vec**2) * g.spacing == pytest.approx(1.0, abs=1e-12)
    # w_j on row 2j, and u on row 2j + 1, the midpoint after node j
    assert g.nodes[np.argmax(vec**2) // 2] == pytest.approx(0.0, abs=0.5)


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
    pairs = spin_eigensystem(3.0, 4.0, 0.0)
    x = g.nodes
    phi = 1.0 / np.cosh(x) ** 4          # exact zero mode of the 4tanh shape
    psi = SpinorField(g, pairs[0].chi[0] * phi, pairs[0].chi[1] * phi).normalize()
    res = dirac_residual(*sampled(model.general(), g), psi, 0.0)
    assert res <= 1e-6
    rng = np.random.default_rng(3)
    junk = SpinorField(g, rng.normal(size=x.size) + 0j,
                       rng.normal(size=x.size) + 0j).normalize()
    assert dirac_residual(*sampled(model.general(), g), junk, 0.0) > 1.0


def test_dirac_residual_masks_step_kink():
    g = Grid(5.0, 4001)
    lam = 5.0
    x = g.nodes
    env = np.exp(-lam * np.abs(x))
    psi = SpinorField(g, 2.0 * env + 0j, 1j * env).normalize()
    profiles = GeneralProfiles(StepProfile(3.0, 3.0), StepProfile(4.0, 4.0),
                               zero_profile())
    masked = dirac_residual(*sampled(profiles, g), psi, 0.0)
    # the same figure over every interior node, the ones at the kink included
    r1, r2 = _dirac_minus_e(*sampled(profiles, g), g.spacing, psi.upper, psi.lower, 0.0)
    k = int(EXCLUDE_FRAC * g.n_points)
    inner = slice(k, g.n_points - k)
    raw = math.sqrt(np.sum((np.abs(r1) ** 2 + np.abs(r2) ** 2)[inner])
                    / np.sum((np.abs(psi.upper) ** 2 + np.abs(psi.lower) ** 2)[inner]))
    # the kink node alone dominates the unmasked figure
    assert masked < 2e-4
    assert raw > 100 * masked
    # h -> h/2 drops the masked residual by ~4 (second order)
    g2 = Grid(5.0, 8001)
    env2 = np.exp(-lam * np.abs(g2.nodes))
    psi2 = SpinorField(g2, 2.0 * env2 + 0j, 1j * env2).normalize()
    assert dirac_residual(*sampled(profiles, g2), psi2, 0.0) == pytest.approx(masked / 4,
                                                                           rel=0.15)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 200),
    h=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32 - 1),
    wells=st.booleans(),
    first=st.integers(0, 199),
)
def test_index_solve_is_pair_index_of_the_k_solve(n, h, seed, wells, first):
    # rough random samples, or two mirror wells whose pairs can be split
    # below any tolerance (and then leave the vector undetermined)
    rng = np.random.default_rng(seed)
    grid = Grid(h * (n - 1) / 2.0, n)
    if wells:
        samples = 0.5 * (np.abs(grid.nodes) - rng.uniform(0.0, grid.half_length)) ** 2
    else:
        samples = rng.uniform(-50.0, 50.0, size=n)
    matrix = build_schrodinger(ScalarField(grid, samples))
    i = min(first, n - 1)
    one = eigensolve(matrix, index=i)
    ref = eigensolve(matrix, k=i + 1)
    norm = band_norm(matrix)
    assert len(one.values) == len(one.residuals) == one.vectors.shape[1] == 1
    assert abs(one.values[0] - ref.values[i]) <= 1e-12 * norm
    # a lone pair is kept only when it is accurate; else it is the k solve's
    assert one.residuals[0] <= max(LONE_RESIDUAL_TOL * norm, ref.residuals[i])
    full = scipy.linalg.eigvalsh_tridiagonal(matrix.storage[0], matrix.storage[1, :-1])
    gap = np.min(np.abs(np.delete(full, i) - full[i]), initial=np.inf)
    if gap > 1e-6 * norm:
        overlap = h * abs(np.dot(one.vectors[:, 0], ref.vectors[:, i]))
        assert abs(overlap - 1.0) <= 1e-10


@pytest.mark.parametrize("a", [2.0, 2.5])
def test_index_solve_falls_back_on_a_double_well(monkeypatch, a):
    # V = (x^2 - a^2)^2 splits its lowest pair by 1.5e-3 (a = 2) and 1.1e-7
    # (a = 2.5); pair 1 alone leaves a residual of 4.5e-6 and 5.4e-8, so the
    # solve is redone with pair 0 and returns the k = 2 solve's pair 1
    g = Grid(8.0, 2001)
    matrix = build_schrodinger(ScalarField(g, (g.nodes**2 - a * a) ** 2))
    ref = eigensolve(matrix, k=2)
    ranges = solve_ranges(monkeypatch)
    one = eigensolve(matrix, index=1)
    assert ranges == [(1, 1), (0, 1)]
    assert np.array_equal(one.values, ref.values[1:])
    assert np.array_equal(one.vectors, ref.vectors[:, 1:])
    assert np.array_equal(one.residuals, ref.residuals[1:])


def test_index_solve_does_not_return_a_neighbours_pair():
    # pairs 9 and 10 of these wells lie 1.3e-9*||T|| apart, below the
    # bisection tolerance. Pair 10 solved alone came back as pair 9, with a
    # residual of 0.04 eps*||T||, so only the Sturm count sends this solve
    # to k = 11, whose Rayleigh-Ritz step separates the two
    g = Grid(34.797408463560025, 75)
    samples = 0.5 * (np.abs(g.nodes) - 0.7286477821341782) ** 2
    matrix = build_schrodinger(ScalarField(g, samples))
    ref = scipy.linalg.eigvalsh_tridiagonal(matrix.storage[0], matrix.storage[1, :-1])
    one = eigensolve(matrix, index=10)
    assert abs(one.values[0] - ref[10]) <= 1e-12 * band_norm(matrix)
    assert np.array_equal(one.values, eigensolve(matrix, k=11).values[10:])


def test_index_selection_is_refused_where_it_means_nothing():
    g = Grid(10.0, 201)
    matrix = build_schrodinger(ScalarField(g, g.nodes**2))
    with pytest.raises(ValueError, match="not both"):
        eigensolve(matrix, k=2, index=1)
    with pytest.raises(ValueError, match="window selects Dirac pairs"):
        eigensolve(matrix, window=(0.0, 2.0), index=1)
    with pytest.raises(ValueError, match="index select Schrodinger levels"):
        eigensolve(build_dirac(scarf_model().general(), g), index=1)
    for index in (-1, 201, 202):
        with pytest.raises(ValueError, match=f"index={index} must be from 0 to 200"):
            eigensolve(matrix, index=index)
    top = eigensolve(matrix, index=200).values[0]
    assert abs(top - eigensolve(matrix).values[200]) <= 1e-12 * band_norm(matrix)


def test_selfconsistent_level_matches_composed_formula():
    model = CoupledModel(3.0, 4.0, 2.0, TanhProfile(1.0))
    g = Grid(20.0, 2001)
    energy, eps, iters = selfconsistent_level(model, +1, 1, g, seed_energy=1.0)
    kp = math.sqrt(21.0)
    expected = (21 - (kp - 1) ** 2) / (1 + 4 / (kp - 1) ** 2)
    assert energy**2 == pytest.approx(expected, abs=2e-3)
    assert iters <= 6
    neg, _, _ = selfconsistent_level(model, +1, 1, g, seed_energy=-1.0)
    assert neg == pytest.approx(-energy, abs=1e-6)


def picard_level(model, sigma, level, grid, seed_energy, max_iter=300):
    """Plain fixed-point iteration E <- sgn*sqrt(eps(E)/c) to |dE| < 1e-13.

    Returns (energy, last step, iterations); a slowly contracting case can
    settle into a roundoff-level 2-cycle instead, so the loop also stops at
    max_iter and the caller checks the last step.
    """
    E = float(seed_energy)
    sgn = 1.0 if E >= 0 else -1.0
    for it in range(1, max_iter + 1):
        red = reduce(model, sigma, energy=E)
        pot = ScalarField(grid, red.effective_potential(grid.nodes))
        eps = eigensolve(build_schrodinger(pot), k=level + 1).values[level]
        E_new = sgn * math.sqrt(eps / red.epsilon_coefficient)
        step = abs(E_new - E)
        E = E_new
        if step < 1e-13:
            break
    return E, step, it


@pytest.mark.parametrize(
    "kappa_v, sigma, level, seed, max_iters",
    [
        (1.0, +1, 1, 1.0, 4),
        (2.0, +1, 1, 1.0, 4),
        (3.0, +1, 1, 1.0, 5),
        (2.0, -1, 0, 1.0, 4),
        # near the critical field: pure Newton cycles here and the plain
        # fallback step carries the loop (the plain loop takes 64 steps)
        (4.9, +1, 2, 0.5, 6),
    ],
)
def test_selfconsistent_level_newton_matches_picard(kappa_v, sigma, level, seed,
                                                    max_iters):
    # the loop alone: the kappa_v = 4.9 level settles above the reduced edge,
    # which selfconsistent_level refuses (see the box-state test below)
    model = CoupledModel(3.0, 4.0, kappa_v, TanhProfile(1.0))
    g = Grid(20.0, 1201)
    energy, eps, iters, _ = _newton_level(model, sigma, level, g, seed)
    ref, last_step, ref_iters = picard_level(model, sigma, level, g, seed)
    assert last_step < 1e-12
    assert energy == pytest.approx(ref, abs=1e-9)
    assert eps == pytest.approx(reduce(model, sigma).epsilon_coefficient * energy**2,
                                rel=1e-8)
    assert iters <= max_iters < ref_iters


def test_selfconsistent_level_without_field_settles_in_two_steps():
    # kappa_v = 0: the potential ignores E, so the second step confirms the first
    model = scarf_model(1.0)
    g = Grid(20.0, 1201)
    energy, eps, iters = selfconsistent_level(model, +1, 1, g, seed_energy=1.0)
    assert iters == 2
    # the loop's own solve: pair 1 alone
    res = eigensolve(build_schrodinger(
        ScalarField(g, reduce(model, +1).effective_potential(g.nodes))), index=1)
    assert eps == res.values[0]
    assert energy == math.sqrt(res.values[0])


def test_newton_steps_solve_one_pair_each(monkeypatch):
    # each step reads one level, and the solve returns that pair alone
    solve, pairs = numerics.eigensolve, []

    def spy(*args, **kwargs):
        res = solve(*args, **kwargs)
        pairs.append(len(res.values))
        return res

    monkeypatch.setattr(numerics, "eigensolve", spy)
    model = CoupledModel(3.0, 4.0, 2.0, TanhProfile(1.0))
    _, _, iters = selfconsistent_level(model, +1, 1, Grid(20.0, 2001), 1.0)
    assert iters == 4
    assert pairs == [1, 1, 1, 1]


@pytest.mark.parametrize("kappa_v, level, seed", [(4.0, 1, 1.0), (4.9, 2, 0.5)])
def test_selfconsistent_level_refuses_box_states(kappa_v, level, seed):
    # the loop settles, but at an eps above the reduced continuum edge: at
    # kappa_v = 4, level 1 gives E = 1.00073, eps = 2.78184 > edge 2.77453
    model = CoupledModel(3.0, 4.0, kappa_v, TanhProfile(1.0))
    g = Grid(20.0, 1201)
    energy, eps, _, _ = _newton_level(model, +1, level, g, seed)
    edge = schrodinger_continuum_edge(reduce(model, +1, energy=energy), g)
    assert eps > edge
    with pytest.raises(BoxStateError, match="box state") as info:
        selfconsistent_level(model, +1, level, g, seed)
    assert info.value.eps == eps
    assert info.value.edge == pytest.approx(edge, abs=1e-9)
    assert isinstance(info.value, DiracOscError)
