"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

AC-8a/AC-8b check that the transformed-potential construction (lam = 3,
n = 1) has no zero mode, which two proofs settle without the solver:

* Closed form. V1 = lam^2 + nu^2 - lam(lam-1) sech^2 x + 2 lam nu tanh x is
  Rosen-Morse II with A = lam - 1 and B = lam*nu, shifted by
  lam^2 + nu^2 - A^2 - B^2/A^2. The closure nu = lam - 1 - n puts the
  level-n candidate at exactly 0, but that level is normalizable only if
  (A-n)^2 = nu^2 > |B| = lam*nu, i.e. nu > lam, which never holds (Cooper,
  Khare & Sukhatme, Phys. Rep. 251, 267 (1995)). The one bound level is
  3.75 and the continuum starts at (lam - nu)^2 = 4.
* First-order bound. For H = sigma_x p - sigma_y f + sigma_z m,
  H^2 = p^2 + f^2 + m^2 - sigma_z f' - sigma_y m', so
  E^2 >= min_x [f^2 + m^2 - sqrt(f'^2 + m'^2)] = 2.125 > 0: the first-order
  equations have no E = 0 solution.

AC-8a checks the potential's levels against the closed form, AC-8b checks
that the construction reports its failure and that the first-order spectrum
respects the bound. Every expected value is computed here from these
formulas. AC-8c checks the parameter validator separately.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import hyp2f1

from diracosc import kernels
from diracosc.analytic import (
    rosen_morse2_levels,
    scarf2_levels,
    transformed_potential_parameters,
)
from diracosc.cli import parse_config, run
from diracosc.errors import ConstructionFailedError
from diracosc.model import (
    CoupledModel,
    CustomProfile,
    GeneralProfiles,
    Grid,
    ScalarField,
    StepProfile,
    TanhPowerProfile,
    TanhProfile,
)
from diracosc.numerics import (
    build_dirac,
    build_schrodinger,
    classify_bound,
    dirac_continuum_edge,
    eigensolve,
)
from diracosc.susy import reduce as susy_reduce
from diracosc.zeromodes import (
    StepMatchProblem,
    match_interface,
    transformed_potential_profiles,
    step_match,
    zero_mode_quadrature,
    zero_mode_transformed,
)


def verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def scarf_model():
    # couplings 3 and 4 with amplitude 0.8: combined drift 4*tanh(x)
    return CoupledModel(3.0, 4.0, 0.0, TanhProfile(0.8))


def reduced_spectrum(model, sigma, grid, k):
    red = susy_reduce(model, sigma)
    pot = ScalarField(grid, red.effective_potential(grid.nodes))
    return eigensolve(build_schrodinger(pot), k=k)


def test_ac1_scarf2_spectrum():
    targets = np.array([0.0, 7.0, 12.0, 15.0])
    table = scarf2_levels(4.0)
    assert table.e_squared_values(sigma=+1) == pytest.approx(list(targets))

    grid = Grid(20.0, 2001)
    model = scarf_model()
    sres = reduced_spectrum(model, +1, grid, k=4)
    s_ok = abs(sres.values[0]) <= 1e-3 and all(
        abs(sres.values[i] - targets[i]) / targets[i] <= 1e-3 for i in (1, 2, 3)
    )

    # first-order backend: small regulator so its O(r*h) artifact stays
    # inside the 5e-3 budget while the doubler gap 2r/h = 10 clears the
    # continuum edge 4
    matrix = build_dirac(model.general(), grid, wilson_r=0.1)
    res = eigensolve(matrix, window=(-4.2, 4.2))
    cls = classify_bound(res, dirac_continuum_edge(model.general(), grid))
    bound, _ = cls.bound()
    d_e2 = np.sort(bound**2)
    devs = [float(np.min(np.abs(d_e2 - t))) for t in targets]
    d_ok = len(bound) == 7 and max(devs) <= 5e-3

    ok = verdict(
        "AC-1", s_ok and d_ok,
        f"second-order E^2 {np.round(sres.values, 5)} vs {targets}; "
        f"first-order max dev {max(devs):.2e} (<= 5e-3), {len(bound)} bound states",
    )
    assert ok


def test_ac2_rosen_morse_binding_filter():
    table = rosen_morse2_levels(2.0, 1.0)
    listed = table.e_squared_values(sigma=+1)
    excluded = table.metadata["excluded"]
    # large box: the filtered n=1 candidate leaves an edge-pinned remnant
    # whose box eigenvalue still lands on the formula value
    grid = Grid(60.0, 4001)
    model = CoupledModel(0.6, 0.8, 0.0, TanhProfile(2.0, shift=0.5))
    res = reduced_spectrum(model, +1, grid, k=3)
    red = susy_reduce(model, +1)
    edge = float(np.min(np.real(red.w_tilde(np.array([-60.0, 60.0]))) ** 2))
    cls = classify_bound(res, edge)
    nbound = int(cls.bound_flags.sum())
    e0, e1, e2 = res.values[:3]
    ok = (
        listed == pytest.approx([0.0], abs=1e-12)
        and {x["n"] for x in excluded} == {1}
        and abs(e0) <= 1e-3
        and abs(e1 - 2.25) <= 1e-3
        and nbound == 1
        and e2 > 2.25 - 1e-3
    )
    ok = verdict(
        "AC-2", ok,
        f"numeric E^2 head ({e0:.2e}, {e1:.6f}, {e2:.4f}) vs {{0, 2.25}} "
        f"within 1e-3; genuine bound states: {nbound} (no third below the edge)",
    )
    assert ok


def test_ac3_partner_misses_ground_state():
    grid = Grid(20.0, 2001)
    res = reduced_spectrum(scarf_model(), -1, grid, k=1)
    lowest = float(res.values[0])
    ok = verdict("AC-3", abs(lowest - 7.0) <= 1e-3,
                 f"sigma=-1 lowest eigenvalue {lowest:.6f} vs 7 (missing 0)")
    assert ok


def test_ac4_field_formula_arbitration(tmp_path):
    doc = {
        "schema": 1,
        "workflow": "arbitrate",
        "model": {"type": "coupled", "kappa_f": 1.0, "kappa_m": 1.0,
                  "kappa_v": 1.0,
                  "profile": {"type": "tanh", "amplitude": 2.0, "shift": 0.0}},
        "grid": {"half_length": 20.0, "n_points": 1201},
        "wilson_r": 1.0,
        "tolerances": {"arbitrate": 5e-3},
    }
    code, report_path = run(parse_config(doc), out_dir=str(tmp_path))
    with open(report_path) as handle:
        report = json.load(handle)
    verdicts = report["results"]["verdicts"]
    winner = report["results"]["winner"]
    loser = ("rm2_field_printed" if winner == "rm2_field_rederived"
             else "rm2_field_rederived")
    decisive = (
        winner is not None
        and verdicts[winner]["max_deviation"] <= 5e-3
        and (verdicts[loser]["max_deviation"] > 5e-2
             or verdicts[loser]["unmatched_numeric"])
    )
    ok = verdict(
        "AC-4", code == 0 and decisive,
        f"winner {winner}: max dev {verdicts[winner]['max_deviation']:.2e}; "
        f"loser max dev {verdicts[loser]['max_deviation']:.3f} (> 10x tol)",
    )
    assert ok
    # composition-based expectation, recorded for the report
    assert winner == "rm2_field_rederived"


def test_ac5_critical_field_sweep(tmp_path):
    doc = {
        "schema": 1,
        "workflow": "sweep",
        "model": {"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0,
                  "kappa_v": 0.0,
                  "profile": {"type": "tanh", "amplitude": 1.0, "shift": 0.0}},
        "grid": {"half_length": 20.0, "n_points": 1201},
        "wilson_r": 1.0,
        "sweep": {"kappa_v_values": [0.0, 2.0, 4.0, 4.9, 5.0, 5.5]},
    }
    code, report_path = run(parse_config(doc), out_dir=str(tmp_path))
    with open(report_path) as handle:
        report = json.load(handle)
    counts = [row["bound_count"] for row in report["results"]["steps"]]
    kv = [row["kappa_v"] for row in report["results"]["steps"]]
    non_increasing = all(a >= b for a, b in zip(counts, counts[1:]))
    zero_tail = all(c == 0 for c, v in zip(counts, kv) if v >= 5.0)
    ok = verdict("AC-5", code == 0 and non_increasing and zero_tail,
                 f"bound counts {counts} at kappa_v {kv}; zero at/after 5.0")
    assert ok


def test_ac6_quadrature_zero_mode():
    n, mu = 1, 0.5
    model = CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(2 * n + 1, shift=mu))
    grid = Grid(24.0, 24001)
    mode = zero_mode_quadrature(model, grid)
    x = grid.nodes
    h = grid.spacing
    lam = mode.metadata["lambda"]
    phi = np.abs(mode.psi.upper) / abs(mode.metadata["chi"][0])

    w = model.profile.value(x)
    dphi = np.zeros_like(phi)
    dphi[2:-2] = (phi[:-4] - 8 * phi[1:-3] + 8 * phi[3:-1] - phi[4:]) / (12 * h)
    ode_res = float(np.max(np.abs(dphi + lam * w * phi)[2:-2]) / np.max(phi))

    # closed form: the hypergeometric expression, evaluated through its
    # stable equivalent (verified against scipy's hyp2f1 where the argument
    # is far enough from its logarithmic endpoint for double precision)
    xs = np.linspace(-6.0, 6.0, 41)
    direct = (hyp2f1(1, n + 1, n + 2, np.tanh(xs) ** 2)
              * np.tanh(xs) ** (2 * n + 2) / (2 * n + 2))
    stable_s = np.log(np.cosh(xs)) - 0.5 * np.tanh(xs) ** 2
    ident = float(np.max(np.abs(direct - stable_s)))

    def normalized(expo):
        f = np.exp(-(expo - expo.min()))
        return f / math.sqrt(np.sum(f**2) * h)

    tail = np.log(np.cosh(x)) - 0.5 * np.tanh(x) ** 2       # the 1/(2n+2) form
    good = normalized(lam * (mu * x + tail))
    bad = normalized(lam * (mu * x + tail * (2 * n + 2) / (2 * n + 1)))
    dev_good = float(np.max(np.abs(phi - good)))
    dev_bad = float(np.max(np.abs(phi - bad)))

    ok = (mode.normalizable and ode_res <= 1e-8 and ident <= 1e-8
          and dev_good <= 1e-8 and dev_bad > 1e-2)
    ok = verdict(
        "AC-6", ok,
        f"ODE residual {ode_res:.2e} (<=1e-8); corrected closed form dev "
        f"{dev_good:.2e} (<=1e-8); misprinted prefactor dev {dev_bad:.2e} (>1e-2)",
    )
    assert ok


def test_ac7_step_matching():
    matched = match_interface(StepMatchProblem(3.0, 3.0, 4.0, 4.0))
    const = matched[0]

    grid = Grid(5.0, 8001)
    mode = step_match(StepMatchProblem(3.0, 3.0, 4.0, 4.0), grid)
    norm_dev = abs(mode.psi.norm_squared - 1.0)
    residual = mode.metadata["dirac_residual"]
    negative = step_match(StepMatchProblem(1.0, 2.0, 1.0, 1.0), grid)

    # oscillator-free limit: single midgap mode, gap to the next level ~ mass
    jr_grid = Grid(20.0, 1201)
    profiles = CoupledModel(0.0, 1.0, 0.0, StepProfile(1.0, 1.0)).general()
    res = eigensolve(build_dirac(profiles, jr_grid, wilson_r=1.0),
                     window=(-2.5, 2.5))
    cls = classify_bound(res, dirac_continuum_edge(profiles, jr_grid))
    bound, _ = cls.bound()
    above = np.abs(res.values)[np.abs(res.values) > 0.5]
    gap = float(np.min(above))

    ok = (
        const == pytest.approx(1.0, abs=1e-15)
        and norm_dev <= 1e-8
        and residual <= 1e-4
        and negative is None
        and len(bound) == 1 and abs(bound[0]) < 0.05
        and abs(gap - 1.0) <= 0.05
    )
    ok = verdict(
        "AC-7", ok,
        f"closed-form constant {const:g} (exactly 1); grid norm dev "
        f"{norm_dev:.1e} (<=1e-8); residual {residual:.2e} (<=1e-4); "
        f"asymmetric case matched: {negative is not None}; "
        f"midgap-to-continuum gap {gap:.4f} vs mass 1 (within 5%)",
    )
    assert ok


def transformed_closed_form(lam, n):
    """(nu, A, B, shift) of the transformed potential as shifted RM-II."""
    nu = lam - 1.0 - n
    a, b = lam - 1.0, lam * nu
    return nu, a, b, lam * lam + nu * nu - a * a - b * b / (a * a)


def test_ac8a_transformed_eigenvalue():
    # the level at index n is the closed-form zero, non-normalizable; the
    # numeric spectrum has the n = 0 level and then the continuum only
    lam, n = 3.0, 1
    nu, a, b, shift = transformed_closed_form(lam, n)
    candidate = lam * lam + nu * nu - (a - n) ** 2 - b * b / (a - n) ** 2
    ground = shift                          # level 0: (A-0)^2 + B^2/A^2 cancel
    edge = (lam - nu) ** 2                  # V1 at x -> -inf
    normalizable = (a - n) ** 2 > abs(b)

    table = rosen_morse2_levels(a, b)
    excluded = [e for e in table.metadata["excluded"]
                if e["n"] == n and e["sigma"] == +1]
    listed = [r.e_squared + shift for r in table.entries if r.sigma == +1]
    table_ok = (
        len(excluded) == 1
        and "non-normalizable" in excluded[0]["reason"]
        and abs(excluded[0]["e_squared"] + shift) <= 1e-12
        and listed == pytest.approx([ground], abs=1e-12)
    )

    params = transformed_potential_parameters(lam, n)
    _, _, potential = transformed_potential_profiles(params)
    grid = Grid(20.0, 2001)
    pot = ScalarField(grid, potential(grid.nodes))
    res = eigensolve(build_schrodinger(pot), k=3)
    first, second = float(res.values[0]), float(res.values[1])
    ok = (
        abs(candidate) <= 1e-12
        and not normalizable
        and table_ok
        and abs(first - ground) <= 1e-3
        and second >= edge
        and float(np.min(np.abs(res.values))) > 1e-3
    )
    ok = verdict(
        "AC-8a", ok,
        f"level {n} candidate {candidate:.1e} is non-normalizable "
        f"((A-n)^2 = {(a - n) ** 2:g} <= |B| = {b:g}), table agrees: {table_ok}; "
        f"numeric ground {first:.5f} vs {ground:g} within 1e-3; second "
        f"{second:.5f} >= edge {edge:g}",
    )
    assert ok


def test_ac8b_transformed_spinor_residuals():
    # no E = 0 spinor exists: the construction must say so with its spectrum,
    # and the first-order spectrum must respect E^2 >= min[f^2 + m^2 - |(f', m')|]
    lam, n = 3.0, 1
    nu, _, _, ground = transformed_closed_form(lam, n)
    params = transformed_potential_parameters(lam, n)
    grid = Grid(20.0, 2001)
    try:
        zero_mode_transformed(params, grid)
        failed, spectrum = False, None      # a spinor where none can exist
    except ConstructionFailedError as err:
        failed, spectrum = True, err.spectrum
    head_ok = spectrum is not None and abs(float(spectrum[0]) - ground) <= 1e-3

    # f, m and their derivatives in closed form, sampled at spacing 1e-4
    x = np.linspace(-20.0, 20.0, 400001)
    f = (lam + 0.5) * np.tanh(x) + nu
    df = (lam + 0.5) / np.cosh(x) ** 2
    m = math.sqrt(2.0 * lam) / np.cosh(x)
    dm = -m * np.tanh(x)
    bound = float(np.min(f * f + m * m - np.hypot(df, dm)))

    osc, mass, _ = transformed_potential_profiles(params)
    profiles = GeneralProfiles(
        f=CustomProfile(osc), m=CustomProfile(mass),
        v=CustomProfile(lambda xx: np.zeros_like(np.asarray(xx, float))),
    )
    below = eigensolve(build_dirac(profiles, Grid(20.0, 801)),
                       window=(-math.sqrt(bound), math.sqrt(bound))).values
    ok = verdict(
        "AC-8b", failed and head_ok and bound > 0 and len(below) == 0,
        f"construction failed: {failed}, spectrum head "
        f"{None if spectrum is None else round(float(spectrum[0]), 5)} vs "
        f"{ground:g} within 1e-3; first-order bound E^2 >= {bound:.4f} > 0, "
        f"{len(below)} eigenvalues with E^2 below it",
    )
    assert ok


def test_ac8c_transformed_validator():
    reject_a = not transformed_potential_parameters(3.0, 0).valid
    reject_b = not transformed_potential_parameters(1.5, 1).valid
    accept = transformed_potential_parameters(3.0, 1).valid
    ok = verdict(
        "AC-8c", reject_a and reject_b and accept,
        f"rejects (lam=3, n=0): {reject_a}; rejects (lam=1.5, n=1): "
        f"{reject_b}; accepts (lam=3, n=1): {accept}",
    )
    assert ok


def test_ac9_numerical_hygiene():
    # hermiticity of every assembled operator
    grid = Grid(10.0, 301)
    herm = []
    u = np.ones(2 * grid.n_points, dtype=complex)
    u[1::2] = 1j
    for r in (0.0, 1.0):
        band = build_dirac(scarf_model().general(), grid, wilson_r=r).storage
        H = u[:, None] * kernels.band_dense(band) * u.conj()
        herm.append(float(np.max(np.abs(H - H.conj().T))))
    S = kernels.band_dense(build_schrodinger(ScalarField(grid, grid.nodes**2)).storage)
    herm.append(float(np.max(np.abs(S - S.T))))

    # second-order convergence on the harmonic reference
    errs = []
    for n in (501, 1001):
        g = Grid(10.0, n)
        res = eigensolve(build_schrodinger(ScalarField(g, g.nodes**2)), k=3)
        errs.append(abs(float(res.values[2]) - 5.0))
    ratio = errs[0] / errs[1]

    # doubler counts on the mass-kink profile
    jr_grid = Grid(20.0, 1201)
    profiles = CoupledModel(0.0, 1.0, 0.0, StepProfile(1.0, 1.0)).general()
    counts = {}
    for r in (1.0, 0.0):
        res = eigensolve(build_dirac(profiles, jr_grid, wilson_r=r),
                         window=(-0.9, 0.9))
        cls = classify_bound(res, dirac_continuum_edge(profiles, jr_grid))
        counts[r] = int(np.sum(cls.bound_flags & (np.abs(cls.values) < 0.5)))

    ok = (
        max(herm) <= 1e-12
        and 3.0 <= ratio <= 5.0
        and counts[1.0] == 1
        and counts[0.0] >= 2
    )
    ok = verdict(
        "AC-9", ok,
        f"hermiticity {max(herm):.1e} (<=1e-12); convergence ratio "
        f"{ratio:.3f} in [3,5]; near-zero modes r=1: {counts[1.0]} "
        f"(exactly 1), r=0: {counts[0.0]} (>=2)",
    )
    assert ok


def test_ac10_cli_determinism(tmp_path):
    doc = {
        "schema": 1,
        "workflow": "spectrum",
        "model": {"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0,
                  "kappa_v": 0.0,
                  "profile": {"type": "tanh", "amplitude": 0.8, "shift": 0.0}},
        "grid": {"half_length": 20.0, "n_points": 1201},
        "wilson_r": 0.25,
        "tolerances": {"match_e2": 5e-2},
    }
    config = parse_config(doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a, path_a = run(config, out_dir=str(out_a))
    code_b, path_b = run(config, out_dir=str(out_b))

    def body(path):
        with open(path) as handle:
            text = handle.read()
        return "\n".join(line for line in text.splitlines()
                          if '"generated_at"' not in line)

    identical = body(path_a) == body(path_b)

    from diracosc.cli import recheck
    recheck_code = recheck(path_a)

    ok = verdict(
        "AC-10", identical and code_a == code_b == 0 and recheck_code == code_a,
        f"reports byte-identical modulo timestamp: {identical}; "
        f"recheck exit {recheck_code} matches run exit {code_a}",
    )
    assert ok
