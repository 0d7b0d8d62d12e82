"""Config-driven command line: spectrum, zero-mode, critical-field sweep,
formula arbitration. One JSON config in, one JSON report (plus CSV
wavefunctions) out; identical configs produce byte-identical reports except
for the generated_at stamp.

Exit codes: 0 all checks passed, 1 input/usage error, 2 tolerance failure.
"""

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, analytic, numerics, susy, zeromodes
from .errors import (
    ConfigError,
    ConstraintError,
    ConstructionFailedError,
    DiracOscError,
    SupercriticalError,
)
from .model import (
    CoupledModel,
    Grid,
    LinearProfile,
    StepProfile,
    TabulatedProfile,
    TanhPowerProfile,
    TanhProfile,
    TanhSechProfile,
)

WORKFLOWS = ("spectrum", "zeromode", "sweep", "arbitrate")

DEFAULT_TOLERANCES = {
    "match_e2": 1e-3,          # analytic vs numeric E^2 agreement
    "arbitrate": 5e-3,         # per-level tolerance for the variant contest
}

# zero-mode Dirac residuals by mechanism
RESIDUAL_TOL = {"quadrature": 1e-6, "interface_matching": 1e-4}
NORM_TOL = 1e-8                # h-weighted norm deviation from 1

_PROFILE_TYPES = {
    "linear": (LinearProfile, ("slope", "offset")),
    "tanh": (TanhProfile, ("amplitude", "shift")),
    "tanh_power": (TanhPowerProfile, ("exponent", "shift")),
    "tanh_sech": (TanhSechProfile, ("a", "b")),
    "step": (StepProfile, ("value_plus", "value_minus")),
}


def profile_from_dict(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("profile spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "tabulated":
        try:
            return TabulatedProfile(np.asarray(spec["nodes"], dtype=float),
                                    np.asarray(spec["samples"], dtype=float))
        except (KeyError, ValueError) as err:
            raise ConfigError(f"bad tabulated profile: {err}") from err
    if kind not in _PROFILE_TYPES:
        raise ConfigError(f"unknown profile type {kind!r}")
    cls, fields = _PROFILE_TYPES[kind]
    kwargs = {}
    for name in fields:
        if name in spec:
            kwargs[name] = spec[name]
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {kind} profile: {err}") from err


@dataclass(frozen=True)
class RunConfig:
    workflow: str
    model: dict                # raw model spec; interpreted per workflow
    grid: Grid
    wilson_r: float
    tolerances: dict
    output_dir: str
    sweep: dict


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def parse_config(doc):
    """Validate a config document (already JSON-decoded) into a RunConfig."""
    _require(isinstance(doc, dict), "config must be a JSON object")
    _require(doc.get("schema") == 1, "config schema must be 1")
    workflow = doc.get("workflow")
    _require(workflow in WORKFLOWS, f"workflow must be one of {WORKFLOWS}")
    grid_spec = doc.get("grid")
    _require(isinstance(grid_spec, dict), "grid must be an object")
    L = grid_spec.get("half_length")
    N = grid_spec.get("n_points")
    _require(isinstance(L, (int, float)) and L > 0, "grid.half_length must be > 0")
    _require(isinstance(N, int) and N >= 3 and N % 2 == 1,
             "grid.n_points must be an odd integer >= 3")
    wilson_r = doc.get("wilson_r", 1.0)
    _require(isinstance(wilson_r, (int, float)) and wilson_r >= 0,
             "wilson_r must be >= 0")
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in doc.get("tolerances", {}).items():
        _require(key in DEFAULT_TOLERANCES, f"unknown tolerance {key!r}")
        _require(isinstance(val, (int, float)) and val > 0,
                 f"tolerance {key!r} must be positive")
        tolerances[key] = float(val)
    model = doc.get("model")
    _require(isinstance(model, dict) and "type" in model,
             "model must be an object with a 'type' field")
    return RunConfig(
        workflow=workflow,
        model=model,
        grid=Grid(float(L), int(N)),
        wilson_r=float(wilson_r),
        tolerances=tolerances,
        output_dir=doc.get("output_dir", "."),
        sweep=doc.get("sweep", {}),
    )


def coupled_model_from_spec(spec):
    _require(spec.get("type") == "coupled", "this workflow needs a coupled model")
    for key in ("kappa_f", "kappa_m", "kappa_v"):
        _require(isinstance(spec.get(key), (int, float)), f"model.{key} must be a number")
    try:
        return CoupledModel(
            kappa_f=float(spec["kappa_f"]),
            kappa_m=float(spec["kappa_m"]),
            kappa_v=float(spec["kappa_v"]),
            profile=profile_from_dict(spec.get("profile", {})),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


# ---------------------------------------------------------------------------
# shared numeric helpers

def _dirac_bound_census(model, grid, wilson_r):
    """Bound eigenvalues of the first-order operator for a coupled model.

    Also reports configuration smells: the doubler branch sits at |E| of
    order 2*wilson_r/h, and when that gap is not safely above the continuum
    edge a doubler state can masquerade as a bound level.
    """
    profiles = model.general()
    matrix = numerics.build_dirac(profiles, grid, wilson_r=wilson_r)
    ends = math.hypot(model.f(grid.half_length), model.m(grid.half_length))
    window = ends + 1.0
    result = numerics.eigensolve(matrix, window=(-window, window))
    edge = numerics.dirac_continuum_edge(profiles, grid)
    values, _ = numerics.classify_bound(result, edge).bound()
    warnings = []
    gap = 2.0 * wilson_r / grid.spacing
    if wilson_r > 0 and gap < 1.5 * ends:
        warnings.append(
            f"doubler gap 2r/h = {gap:g} is not well above the asymptotic "
            f"scale {ends:g}; raise wilson_r or refine the grid"
        )
    return values, edge, warnings


def _cluster_e_squared(values, tol):
    """Sorted distinct E^2 values of a +-symmetric bound census."""
    e2 = np.sort(values**2)
    out = []
    for val in e2:
        if not out or val - out[-1][0] > tol:
            out.append([val, 1])
        else:
            out[-1][0] = (out[-1][0] * out[-1][1] + val) / (out[-1][1] + 1)
            out[-1][1] += 1
    return [(float(v), int(c)) for v, c in out]


def _census_match(values, tables, tol, spacing):
    """E^2 clusters of a bound census, and each table matched against them."""
    clusters = _cluster_e_squared(values, max(tol, 20.0 * spacing**2))
    return clusters, [_match_tables(table, clusters, tol) for table in tables]


def _match_tables(table, clusters, tol):
    """Greedy nearest-E^2 pairing of analytic entries against numeric clusters.

    A cluster of multiplicity c (the +-E mirror pair counts 2) can absorb up
    to c analytic entries: the two partner-sign entries at one level index
    describe the two mirror states. Each numeric state matches at most one
    analytic entry.
    """
    records = []
    capacity = [count for _val, count in clusters]
    for rec in table.entries:
        best, best_dev = None, math.inf
        nearest_dev = math.inf
        for i, (val, _count) in enumerate(clusters):
            dev = abs(val - rec.e_squared)
            nearest_dev = min(nearest_dev, dev)
            if dev < best_dev and capacity[i] > 0:
                best, best_dev = i, dev
        matched = best is not None and best_dev <= tol
        if matched:
            capacity[best] -= 1
        # unmatched entries report the capacity-blind nearest distance so a
        # spurious analytic level shows how far it sits from any real state
        dev = best_dev if matched else (nearest_dev if clusters else math.inf)
        records.append({
            "n": rec.n, "sigma": rec.sigma,
            "analytic_e2": rec.e_squared,
            "numeric_e2": clusters[best][0] if matched else None,
            "abs_deviation": dev,
            "rel_deviation": dev / max(abs(rec.e_squared), 1.0),
            "matched": matched,
        })
    unmatched = [
        (clusters[i][0], capacity[i]) for i in range(len(clusters)) if capacity[i] > 0
    ]
    return records, unmatched


# ---------------------------------------------------------------------------
# workflows

def _analytic_tables(model):
    """Closed-form tables available for a coupled model's profile shape."""
    prof = model.profile
    kf, km, kv = model.kappa_f, model.kappa_m, model.kappa_v
    kappa = math.hypot(kf, km)
    if isinstance(prof, TanhSechProfile) and kv == 0:
        return [analytic.scarf2_levels(kappa * prof.a, kappa * prof.b)]
    if isinstance(prof, TanhProfile) and kv == 0:
        a = kappa * prof.amplitude
        b = kappa * kappa * prof.amplitude * prof.shift
        return [analytic.rosen_morse2_levels(a, b)]
    if isinstance(prof, TanhProfile) and prof.shift == 0 and kv != 0:
        return list(analytic.rm2_with_field_levels(prof.amplitude, kf, km, kv))
    return []


def run_spectrum(config):
    model = coupled_model_from_spec(config.model)
    if not susy.is_subcritical(model.kappa_f, model.kappa_m, model.kappa_v):
        raise SupercriticalError(
            model.kappa_v, susy.critical_field(model.kappa_f, model.kappa_m)
        )
    _require(model.kappa_v == 0,
             "the spectrum workflow handles kappa_v = 0; use 'arbitrate' for "
             "the electric-field formula contest")
    tables = _analytic_tables(model)
    values, edge, warnings = _dirac_bound_census(model, config.grid, config.wilson_r)
    tol = config.tolerances["match_e2"]
    clusters, matches = _census_match(values, tables, tol, config.grid.spacing)
    checks = []
    table_reports = []
    for table, (records, unmatched) in zip(tables, matches):
        table_reports.append({
            "formula_id": table.formula_id,
            "metadata": _plain(table.metadata),
            "levels": records,
            "unmatched_numeric": unmatched,
        })
        checks.append(_check(f"{table.formula_id}_all_levels_matched",
                             float(sum(not r["matched"] for r in records)), 0.5, "le"))
        checks.append(_check(f"{table.formula_id}_no_unmatched_numeric",
                             float(len(unmatched)), 0.5, "le"))
        devs = [r["abs_deviation"] for r in records if r["matched"]]
        checks.append(_check(f"{table.formula_id}_max_e2_deviation",
                             max(devs) if devs else 0.0, tol, "le"))
    results = {
        "continuum_edge": edge,
        "bound_energies": [float(v) for v in values],
        "bound_e_squared_clusters": clusters,
        "analytic_tables": table_reports,
        "warnings": warnings,
    }
    return results, checks, {}


def run_zeromode(config):
    kind = config.model.get("type")
    grid = config.grid
    artifacts = {}
    checks = []
    if kind == "transformed_potential":
        try:
            params = analytic.transformed_potential_parameters(
                float(config.model["lambda"]), int(config.model["n"])
            )
        except (KeyError, ValueError) as err:
            raise ConfigError(f"bad transformed model: {err}") from err
        if not params.valid:
            raise ConfigError(f"transformed parameters rejected: {params.reason}")
        try:
            zeromodes.zero_mode_transformed(params, grid)
        except ConstructionFailedError as err:   # always: no zero mode exists
            results = {
                "mechanism": "transformed_potential",
                "construction_failed": str(err),
                "spectrum_head": [float(v) for v in err.spectrum[:6]],
            }
            checks.append(_check("construction_succeeded", 0.0, 0.5, "ge"))
            return results, checks, artifacts
    if kind == "coupled":
        model = coupled_model_from_spec(config.model)
        mode = zeromodes.zero_mode_quadrature(model, grid)
    elif kind == "step":
        try:
            problem = zeromodes.StepMatchProblem(
                f_plus=float(config.model["f_plus"]),
                f_minus=float(config.model["f_minus"]),
                m_plus=float(config.model["m_plus"]),
                m_minus=float(config.model["m_minus"]),
                energy=float(config.model.get("energy", 0.0)),
            )
        except (KeyError, ValueError) as err:
            raise ConfigError(f"bad step model: {err}") from err
        try:
            mode = zeromodes.step_match(
                problem, grid,
                flip_f=bool(config.model.get("flip_f", False)),
                flip_m=bool(config.model.get("flip_m", False)),
            )
        except ValueError as err:   # energy outside the decaying window
            raise ConfigError(str(err)) from err
        if mode is None:
            results = {"mechanism": "interface_matching", "matched": False,
                       "note": "interface condition has no solution at this energy"}
            checks.append(_check("interface_matched", 0.0, 0.5, "ge"))
            return results, checks, artifacts
    else:
        raise ConfigError(f"zeromode model type must be coupled|step|transformed, got {kind!r}")

    results = {
        "mechanism": mode.mechanism,
        "normalizable": mode.normalizable,
        "decay_rates": [float(r) for r in mode.decay_rates],
        "metadata": _plain(mode.metadata),
    }
    checks.append(_check("normalizable", 1.0 if mode.normalizable else 0.0, 0.5, "ge"))
    if mode.normalizable:
        checks.append(_check("grid_norm_deviation",
                             abs(mode.psi.norm_squared - 1.0),
                             NORM_TOL, "le"))
        checks.append(_check("dirac_residual", mode.metadata["dirac_residual"],
                             RESIDUAL_TOL[mode.mechanism], "le"))
        artifacts["wavefunction.csv"] = mode.psi
    return results, checks, artifacts


def run_sweep(config):
    model = coupled_model_from_spec(config.model)
    critical = susy.critical_field(model.kappa_f, model.kappa_m)
    if "kappa_v_values" in config.sweep:
        kv_values = [float(v) for v in config.sweep["kappa_v_values"]]
        _require(all(v >= 0 for v in kv_values), "kappa_v_values must be >= 0")
    else:
        steps = int(config.sweep.get("steps", 7))
        _require(steps >= 2, "sweep.steps must be >= 2")
        kv_values = [1.2 * critical * i / (steps - 1) for i in range(steps)]
    rows = []
    counts = []
    warnings = []
    for kv in kv_values:
        m = replace(model, kappa_v=kv)
        values, edge, step_warnings = _dirac_bound_census(m, config.grid,
                                                          config.wilson_r)
        for w in step_warnings:
            if w not in warnings:
                warnings.append(w)
        order = np.argsort(np.abs(values))[:5]
        rows.append({
            "kappa_v": kv,
            "subcritical": susy.is_subcritical(m.kappa_f, m.kappa_m, kv),
            "continuum_edge": edge,
            "bound_count": int(len(values)),
            "lowest_energies": [float(values[i]) for i in order],
        })
        counts.append(len(values))
    non_increasing = all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))
    beyond = [c for kv, c in zip(kv_values, counts) if kv >= critical - 1e-12]
    checks = [
        _check("bound_count_non_increasing", 1.0 if non_increasing else 0.0, 0.5, "ge"),
        _check("no_bound_states_beyond_critical",
               float(max(beyond) if beyond else 0), 0.5, "le"),
    ]
    results = {"critical_field": critical, "steps": rows, "warnings": warnings}
    return results, checks, {}


def run_arbitrate(config):
    model = coupled_model_from_spec(config.model)
    prof = model.profile
    _require(isinstance(prof, TanhProfile) and prof.shift == 0,
             "arbitrate needs a pure tanh profile (shift 0)")
    _require(model.kappa_v != 0, "arbitrate needs kappa_v != 0")
    printed, rederived = analytic.rm2_with_field_levels(
        prof.amplitude, model.kappa_f, model.kappa_m, model.kappa_v
    )
    values, edge, warnings = _dirac_bound_census(model, config.grid, config.wilson_r)
    tol = config.tolerances["arbitrate"]
    clusters, matches = _census_match(values, (printed, rederived), tol,
                                      config.grid.spacing)
    verdicts = {}
    per_table = {}
    for table, (records, unmatched) in zip((printed, rederived), matches):
        devs = [r["abs_deviation"] for r in records if math.isfinite(r["abs_deviation"])]
        worst = max(devs) if devs else 0.0
        agrees = all(r["matched"] for r in records) and not unmatched
        verdicts[table.formula_id] = {
            "max_deviation": worst,
            "agrees_within_tolerance": agrees,
            "unmatched_analytic": sum(not r["matched"] for r in records),
            "unmatched_numeric": unmatched,
        }
        per_table[table.formula_id] = records
    ids = [printed.formula_id, rederived.formula_id]
    decisive = None
    for wid, lid in (ids, ids[::-1]):
        if (verdicts[wid]["agrees_within_tolerance"]
                and not verdicts[lid]["agrees_within_tolerance"]
                and (verdicts[lid]["max_deviation"] > 10 * tol
                     or verdicts[lid]["unmatched_numeric"])):
            decisive = wid
    results = {
        "continuum_edge": edge,
        "bound_e_squared_clusters": clusters,
        "levels": per_table,
        "verdicts": verdicts,
        "winner": decisive,
        "warnings": warnings,
    }
    checks = [_check("decisive_winner", 1.0 if decisive else 0.0, 0.5, "ge")]
    return results, checks, {}


_WORKFLOW_RUNNERS = {
    "spectrum": run_spectrum,
    "zeromode": run_zeromode,
    "sweep": run_sweep,
    "arbitrate": run_arbitrate,
}


# ---------------------------------------------------------------------------
# report plumbing

def _check(name, value, tolerance, op):
    passed = value <= tolerance if op == "le" else value >= tolerance
    return {"name": name, "value": value, "tolerance": tolerance, "op": op,
            "passed": bool(passed)}


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def build_report(config, results, checks):
    return {
        "schema": 1,
        "tool": {"name": "diracosc", "version": __version__},
        "workflow": config.workflow,
        "config": {
            "model": _plain(config.model),
            "grid": {"half_length": config.grid.half_length,
                     "n_points": config.grid.n_points,
                     "spacing": config.grid.spacing},
            "wilson_r": config.wilson_r,
            "tolerances": _plain(config.tolerances),
        },
        "results": _plain(results),
        "checks": _plain(checks),
        "passed": all(c["passed"] for c in checks),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_wavefunction_csv(path, psi):
    """One row per node, round-trip precision, CRLF line ends."""
    columns = (psi.grid.nodes, psi.upper.real, psi.upper.imag,
               psi.lower.real, psi.lower.imag, psi.density())
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               newline="\r\n", comments="",
               header="x,re_psi1,im_psi1,re_psi2,im_psi2,prob_density")


def run(config, out_dir=None):
    """Execute one workflow; returns (exit_code, report_path)."""
    out = out_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    results, checks, artifacts = _WORKFLOW_RUNNERS[config.workflow](config)
    report = build_report(config, results, checks)
    for name, psi in artifacts.items():
        write_wavefunction_csv(os.path.join(out, name), psi)
    report_path = os.path.join(out, f"{config.workflow}_report.json")
    with open(report_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return (0 if report["passed"] else 2), report_path


def recheck(report_path):
    """Re-read a report and revalidate its pass/fail verdicts from the data."""
    with open(report_path) as handle:
        report = json.load(handle)
    if report.get("schema") != 1:
        raise ConfigError("report schema must be 1")
    mismatches = 0
    all_passed = True
    for check in report.get("checks", []):
        value, tolerance, op = check["value"], check["tolerance"], check["op"]
        passed = value <= tolerance if op == "le" else value >= tolerance
        all_passed &= passed
        tag = "PASS" if passed else "FAIL"
        line = f"[recheck] {check['name']}: {tag} (value={value:g}, tol={tolerance:g})"
        if passed != check["passed"]:
            mismatches += 1
            line += "  ** disagrees with stored verdict **"
        print(line)
    if mismatches:
        print(f"[recheck] {mismatches} stored verdict(s) do not match the data")
        return 1
    print(f"[recheck] overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diracosc",
        description="Bound states and zero modes of a 1+1D Dirac oscillator "
                    "with position-dependent mass",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a config-driven workflow")
    runp.add_argument("--config", required=True, help="path to a JSON config")
    runp.add_argument("--recheck", metavar="REPORT",
                      help="revalidate an existing report instead of solving")
    runp.add_argument("--out", help="output directory (overrides the config)")
    args = parser.parse_args(argv)

    try:
        if args.recheck:
            return recheck(args.recheck)
        with open(args.config) as handle:
            doc = json.load(handle)
        config = parse_config(doc)
        code, report_path = run(config, out_dir=args.out)
        print(f"report written to {report_path}")
        return code
    except (ConfigError, ConstraintError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SupercriticalError as err:
        print(f"error: {err} (critical field = {err.critical:g})", file=sys.stderr)
        return 1
    except DiracOscError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
