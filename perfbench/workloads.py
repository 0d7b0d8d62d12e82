"""The four benchmark workloads: inputs drawn from a seed, the operations
that call diracosc, and the closed-form check applied to each result.

Seed 0 is exactly the configurations the README and the acceptance tests
use. Any other seed draws the profile amplitude, shift and coupling ratio
from the small ranges in ``RANGES``, with grid sizes and the magnitude
sqrt(kappa_f^2 + kappa_m^2) fixed, and the closed-form references are
recomputed for the drawn values. The ranges stay away from level
thresholds so that every drawn input has the same level structure as
seed 0.

Only ``Op.run`` is timed. Calls go through module attributes
(``numerics.eigensolve``, ``cli.run`` ...) so that the tracer sees them.
"""

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from diracosc import analytic, cli, model, numerics, susy

import checks

# (low, high) of each drawn quantity; "angle" is atan2(kappa_m, kappa_f)
# around its seed-0 value
RANGES = {
    "dirac-window": {"amplitude": (0.78, 0.80), "shift": (0.0, 0.02), "angle": 0.05},
    "critical-sweep": {"amplitude": (0.98, 1.0), "angle": 0.05},
    "partner": {"ac1_amplitude": (0.78, 0.80), "ac2_amplitude": (1.95, 2.0),
                "ac2_shift": (0.5, 0.55), "fixed_point_amplitude": (0.98, 1.0),
                "angle": 0.05},
    "zeromode-io": {"shift": (0.45, 0.55), "angle": 0.05},
}

MATCH_E2 = 1e-3          # README config tolerance and the AC-1/AC-2 level tolerance
ZEROMODE_REPEATS = 3     # one zeromode-io pass runs both configs this often
SMALL_N = 201            # grid size of the warm-up pass


@dataclass(frozen=True)
class Op:
    name: str
    run: object      # () -> raw result; the timed call into diracosc
    check: object    # raw result -> checks.Outcome


def _couplings(rng, magnitude, kf0, km0, spread):
    if rng is None:
        return kf0, km0
    theta = math.atan2(km0, kf0) + rng.uniform(-spread, spread)
    return magnitude * math.cos(theta), magnitude * math.sin(theta)


def _draw(rng, bounds, seed0):
    return seed0 if rng is None else rng.uniform(*bounds)


def _coupled(kf, km, kv, profile):
    return {"type": "coupled", "kappa_f": kf, "kappa_m": km, "kappa_v": kv,
            "profile": profile}


def _doc(workflow, model_spec, half_length, n_points, wilson_r, **extra):
    doc = {"schema": 1, "workflow": workflow, "model": model_spec,
           "grid": {"half_length": half_length, "n_points": n_points},
           "wilson_r": wilson_r}
    doc.update(extra)
    return doc


def _read_report(path):
    with open(path) as handle:
        return json.load(handle)


def _cli_op(name, doc, out_dir, check):
    config = cli.parse_config(doc)

    def run():
        return cli.run(config, out_dir=out_dir)

    return Op(name, run, check)


# ---------------------------------------------------------------------------
# dirac-window

def _dirac_window(rng, work, small):
    r = RANGES["dirac-window"]
    amp = _draw(rng, r["amplitude"], 0.8)
    shift = _draw(rng, r["shift"], 0.0)
    kf, km = _couplings(rng, 5.0, 3.0, 4.0, r["angle"])
    kappa = math.hypot(kf, km)
    doc = _doc("spectrum",
               _coupled(kf, km, 0.0, {"type": "tanh", "amplitude": amp, "shift": shift}),
               20.0, SMALL_N if small else 2001, 1.0,
               tolerances={"match_e2": MATCH_E2})
    table = analytic.rosen_morse2_levels(kappa * amp, kappa * kappa * amp * shift)
    table_e2 = [rec.e_squared for rec in table.entries]

    def check(result):
        code, path = result
        energies = _read_report(path)["results"]["bound_energies"]
        return checks.spectrum_outcome(table_e2, energies, code, MATCH_E2)

    return [_cli_op("spectrum", doc, os.path.join(work, "spectrum"), check)]


# ---------------------------------------------------------------------------
# critical-sweep

SWEEP_KAPPA_V = (0.0, 2.0, 4.0, 4.9, 5.0, 5.5)


def _critical_sweep(rng, work, small):
    r = RANGES["critical-sweep"]
    amp = _draw(rng, r["amplitude"], 1.0)
    kf, km = _couplings(rng, 5.0, 3.0, 4.0, r["angle"])
    kappa = math.hypot(kf, km)
    doc = _doc("sweep",
               _coupled(kf, km, 0.0, {"type": "tanh", "amplitude": amp, "shift": 0.0}),
               20.0, SMALL_N if small else 1201, 1.0,
               sweep={"kappa_v_values": list(SWEEP_KAPPA_V)})
    expected = []
    for kv in SWEEP_KAPPA_V:
        if kv == 0:
            expected.append((len(analytic.rosen_morse2_levels(kappa * amp, 0.0).entries),
                             True))
        elif kv < kappa:
            _, rederived = analytic.rm2_with_field_levels(amp, kf, km, kv)
            expected.append((len(rederived.entries), False))
        else:
            expected.append((0, True))

    def check(result):
        code, path = result
        steps = _read_report(path)["results"]["steps"]
        return checks.sweep_outcome([s["kappa_v"] for s in steps],
                                    [s["bound_count"] for s in steps],
                                    kappa, expected, code)

    return [_cli_op("sweep", doc, os.path.join(work, "sweep"), check)]


# ---------------------------------------------------------------------------
# partner

def _reduced_op(name, mdl, sigma, grid, k, reference):
    def run():
        red = susy.reduce(mdl, sigma)
        pot = model.ScalarField(grid, red.effective_potential(grid.nodes))
        return numerics.eigensolve(numerics.build_schrodinger(pot), k=k)

    def check(result):
        return checks.levels_outcome(reference, result.values, MATCH_E2)

    return Op(name, run, check)


def _partner(rng, work, small):
    r = RANGES["partner"]
    ac1_amp = _draw(rng, r["ac1_amplitude"], 0.8)
    ac1_kf, ac1_km = _couplings(rng, 5.0, 3.0, 4.0, r["angle"])
    ac1 = model.CoupledModel(ac1_kf, ac1_km, 0.0, model.TanhProfile(ac1_amp))
    scarf = analytic.scarf2_levels(math.hypot(ac1_kf, ac1_km) * ac1_amp)
    grid = model.Grid(20.0, SMALL_N if small else 2001)
    ops = [
        _reduced_op("ac1_sigma+1", ac1, +1, grid, 4, scarf.e_squared_values(sigma=+1)),
        _reduced_op("ac1_sigma-1", ac1, -1, grid, 3, scarf.e_squared_values(sigma=-1)),
    ]

    ac2_amp = _draw(rng, r["ac2_amplitude"], 2.0)
    ac2_shift = _draw(rng, r["ac2_shift"], 0.5)
    ac2_kf, ac2_km = _couplings(rng, 1.0, 0.6, 0.8, r["angle"])
    ac2 = model.CoupledModel(ac2_kf, ac2_km, 0.0, model.TanhProfile(ac2_amp, shift=ac2_shift))
    kappa = math.hypot(ac2_kf, ac2_km)
    listed = analytic.rosen_morse2_levels(
        kappa * ac2_amp, kappa * kappa * ac2_amp * ac2_shift).e_squared_values(sigma=+1)
    grid2 = model.Grid(60.0, SMALL_N if small else 4001)

    def run_ac2():
        red = susy.reduce(ac2, +1)
        pot = model.ScalarField(grid2, red.effective_potential(grid2.nodes))
        res = numerics.eigensolve(numerics.build_schrodinger(pot), k=3)
        edge = numerics.schrodinger_continuum_edge(red, grid2)
        return numerics.classify_bound(res, edge), edge

    def check_ac2(result):
        res, edge = result
        return checks.binding_filter_outcome(listed, res.values, res.bound_flags, edge,
                                             MATCH_E2)

    ops.append(Op("ac2_binding_filter", run_ac2, check_ac2))

    fp_amp = _draw(rng, r["fixed_point_amplitude"], 1.0)
    fp_kf, fp_km = _couplings(rng, 5.0, 3.0, 4.0, r["angle"])
    fp = model.CoupledModel(fp_kf, fp_km, 2.0, model.TanhProfile(fp_amp))
    _, rederived = analytic.rm2_with_field_levels(fp_amp, fp_kf, fp_km, 2.0)
    expected = next(rec.e_squared for rec in rederived.entries
                    if rec.n == 1 and rec.sigma == +1)

    def run_fp():
        return numerics.selfconsistent_level(fp, +1, 1, grid, seed_energy=1.0)

    def check_fp(result):
        energy, _eps, iterations = result
        return checks.selfconsistent_outcome(expected, energy, iterations)

    ops.append(Op("fixed_point_level", run_fp, check_fp))
    return ops


# ---------------------------------------------------------------------------
# zeromode-io

def _csv_deviation(path, closed_form):
    """(|norm - 1|, max density deviation / max density) of a wavefunction.csv."""
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    x, dens = body[:, 0], body[:, 5]
    h = x[1] - x[0]
    components = np.sum(body[:, 1:5] ** 2, axis=1)
    ref = closed_form(x)
    ref = ref / (ref.sum() * h)
    shape = max(np.max(np.abs(dens - ref)), np.max(np.abs(components - dens)))
    return abs(dens.sum() * h - 1.0), float(shape / ref.max())


def _zeromode_check(csv_path, closed_form, residual_tol):
    def check(result):
        code, report_path = result
        residual = _read_report(report_path)["results"]["metadata"]["dirac_residual"]
        norm_dev, shape_dev = _csv_deviation(csv_path, closed_form)
        return checks.zeromode_outcome(code, residual, residual_tol, norm_dev, shape_dev)
    return check


def _zeromode_io(rng, work, small):
    r = RANGES["zeromode-io"]
    shift = _draw(rng, r["shift"], 0.5)
    kf, km = _couplings(rng, 1.0, 0.6, 0.8, r["angle"])
    lam = math.hypot(kf, km)
    quad_doc = _doc("zeromode",
                    _coupled(kf, km, 0.0,
                             {"type": "tanh_power", "exponent": 3, "shift": shift}),
                    24.0, SMALL_N if small else 24001, 0.25)

    def quad_density(x):
        # |psi|^2 ~ exp(-2 lam I(x)), I = int_0^x tanh^3 + shift
        t = np.tanh(x)
        integral = np.log(np.cosh(x)) - 0.5 * t * t + shift * x
        expo = -2.0 * lam * integral
        return np.exp(expo - expo.max())

    f, m = _couplings(rng, 5.0, 3.0, 4.0, r["angle"])
    step_doc = _doc("zeromode",
                    {"type": "step", "f_plus": f, "f_minus": f, "m_plus": m, "m_minus": m},
                    5.0, SMALL_N if small else 8001, 0.25)
    decay = math.hypot(f, m)

    def step_density(x):
        return np.exp(-2.0 * decay * np.abs(x))

    ops = []
    # residual tolerances of the zeromode workflow per mechanism
    for name, doc, density, residual_tol in (
            ("quadrature", quad_doc, quad_density, 1e-6),
            ("step", step_doc, step_density, 1e-4)):
        out = os.path.join(work, name)
        check = _zeromode_check(os.path.join(out, "wavefunction.csv"), density,
                                residual_tol)
        ops.append(_cli_op(name, doc, out, check))
    return ops * ZEROMODE_REPEATS


BUILDERS = {
    "dirac-window": _dirac_window,
    "critical-sweep": _critical_sweep,
    "partner": _partner,
    "zeromode-io": _zeromode_io,
}


def build(name, seed, work, small=False):
    """The operations of one pass of workload `name` for `seed`."""
    rng = None if seed == 0 else random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, work, small)
