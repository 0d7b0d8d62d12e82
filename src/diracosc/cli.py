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
from .errors import ConfigError, ConstructionFailedError, DiracOscError
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

# grid.n_points may be at most this: far more than any solve needs, and low
# enough that the node array fits in memory
MAX_N_POINTS = 1_000_001

# zero-mode Dirac residuals by mechanism
RESIDUAL_TOL = {"quadrature": 1e-6, "interface_matching": 1e-4}
NORM_TOL = 1e-8                # h-weighted norm deviation from 1

# The config format: every key a block takes and the JSON kind of its value.
# A kind ending in "?" marks a key that may be left out. Model and profile
# blocks also take "type", which picks their table.
CONFIG_KEYS = {
    "config": {"schema": "integer", "workflow": "string", "model": "object",
               "grid": "object", "wilson_r": "number?", "tolerances": "object?",
               "sweep": "object?", "output_dir": "string?"},
    "grid": {"half_length": "number", "n_points": "integer"},
    "tolerances": {key: "number?" for key in DEFAULT_TOLERANCES},
    "sweep": {"kappa_v_values": "number list?", "steps": "integer?"},
    "model": {
        "coupled": {"kappa_f": "number", "kappa_m": "number", "kappa_v": "number",
                    "profile": "object"},
        "step": {"f_plus": "number", "f_minus": "number", "m_plus": "number",
                 "m_minus": "number", "energy": "number?", "flip_f": "boolean?",
                 "flip_m": "boolean?"},
        "transformed_potential": {"lambda": "number", "n": "integer"},
    },
    "profile": {
        "linear": {"slope": "number", "offset": "number?"},
        "tanh": {"amplitude": "number", "shift": "number?"},
        "tanh_power": {"exponent": "integer", "shift": "number?"},
        "tanh_sech": {"a": "number", "b": "number"},
        "step": {"value_plus": "number", "value_minus": "number"},
        "tabulated": {"nodes": "number list", "samples": "number list"},
    },
}


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    """An int or float that a float can hold, NaN and infinities included;
    booleans are not numbers."""
    if not (_is_integer(value) or isinstance(value, float)):
        return False
    try:
        float(value)
    except OverflowError:      # an integer beyond the float range, about 1.8e308
        return False
    return True


def _is_number(value):
    """A finite real: json reads NaN, Infinity and -Infinity as floats."""
    return _is_real(value) and math.isfinite(value)


# kind -> (test, what the value must be; "{!r}" shows the value given)
_KINDS = {
    "number": (_is_number, "a number, got {!r}"),
    "integer": (_is_integer, "an integer, got {!r}"),
    "boolean": (lambda v: isinstance(v, bool), "true or false, got {!r}"),
    "string": (lambda v: isinstance(v, str), "a string, got {!r}"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    # a NaN or infinite entry is refused where the list is used: by
    # TabulatedProfile, which names the table, and by the sweep parse
    "number list": (lambda v: isinstance(v, list) and v and all(map(_is_real, v)),
                    "a non-empty list of numbers"),
}

_PROFILE_CLASSES = {"linear": LinearProfile, "tanh": TanhProfile,
                    "tanh_power": TanhPowerProfile, "tanh_sech": TanhSechProfile,
                    "step": StepProfile, "tabulated": TabulatedProfile}


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_block(block, path, name, keys):
    """Refuse a key not in `keys`, a required key left out and a value of
    the wrong kind. Messages call the block `name` and a key `path + key`."""
    unknown = sorted(set(block) - set(keys))
    _require(not unknown, f"{name} does not take {', '.join(unknown)}")
    for key, kind in keys.items():
        if key in block or not kind.endswith("?"):
            test, wanted = _KINDS[kind.rstrip("?")]
            value = block.get(key)
            _require(test(value), f"{path}{key} must be " + wanted.format(value))


def _typed_block(spec, path, family):
    """Check a model or profile block against the table its type picks."""
    _require(isinstance(spec, dict), f"{path} must be an object")
    kind = spec.get("type")
    _require(isinstance(kind, str) and kind in CONFIG_KEYS[family],
             f"unknown {family} type {kind!r}")
    values = {key: val for key, val in spec.items() if key != "type"}
    _check_block(values, f"{path}.", f"a {kind} {family}", CONFIG_KEYS[family][kind])
    return kind, values


def profile_from_dict(spec, path="profile"):
    kind, values = _typed_block(spec, path, "profile")
    try:
        return _PROFILE_CLASSES[kind](**values)
    except ValueError as err:
        raise ConfigError(f"bad {kind} profile: {err}") from err


def _model_from_dict(spec):
    """A CoupledModel, StepMatchProblem or valid TransformedPotentialParameters."""
    kind, values = _typed_block(spec, "model", "model")
    if kind == "transformed_potential":
        params = analytic.transformed_potential_parameters(float(values["lambda"]),
                                                           values["n"])
        _require(params.valid, f"transformed parameters rejected: {params.reason}")
        return params
    try:
        if kind == "step":
            # the flips are booleans, which are never numbers
            return zeromodes.StepMatchProblem(
                **{key: val if isinstance(val, bool) else float(val)
                   for key, val in values.items()})
        return CoupledModel(float(values["kappa_f"]), float(values["kappa_m"]),
                            float(values["kappa_v"]),
                            profile_from_dict(values["profile"], "model.profile"))
    except ValueError as err:
        raise ConfigError(f"bad {kind} model: {err}") from err


@dataclass(frozen=True)
class RunConfig:
    workflow: str
    model: object              # CoupledModel, StepMatchProblem, TransformedPotentialParameters
    grid: Grid
    wilson_r: object           # as given (a float), or None; no workflow uses it
    tolerances: dict
    output_dir: str
    sweep_fields: tuple        # the kappa_v values a sweep visits
    model_spec: dict           # the model block as given, echoed in the report


def parse_config(doc):
    """Check a config document (already JSON-decoded) against CONFIG_KEYS
    and build its typed values into a RunConfig."""
    _require(isinstance(doc, dict), "config must be a JSON object")
    _check_block(doc, "", "the config", CONFIG_KEYS["config"])
    _require(doc["schema"] == 1, "config schema must be 1")
    workflow = doc["workflow"]
    _require(workflow in WORKFLOWS, f"workflow must be one of {WORKFLOWS}")
    _check_block(doc["grid"], "grid.", "grid", CONFIG_KEYS["grid"])
    L, N = doc["grid"]["half_length"], doc["grid"]["n_points"]
    _require(L > 0, "grid.half_length must be > 0")
    _require(3 <= N <= MAX_N_POINTS and N % 2 == 1,
             f"grid.n_points must be an odd integer from 3 to {MAX_N_POINTS}")
    wilson_r = doc.get("wilson_r")
    _require(wilson_r is None or wilson_r >= 0, "wilson_r must be >= 0")
    given = doc.get("tolerances", {})
    _check_block(given, "tolerances.", "tolerances", CONFIG_KEYS["tolerances"])
    for key, val in given.items():
        _require(val > 0, f"tolerances.{key} must be positive")
    sweep = doc.get("sweep", {})
    _check_block(sweep, "sweep.", "sweep", CONFIG_KEYS["sweep"])
    fields = tuple(float(v) for v in sweep.get("kappa_v_values", ()))
    _require(all(0 <= v < math.inf for v in fields),
             "kappa_v_values must be finite and >= 0")
    steps = sweep.get("steps", 7)
    _require(steps >= 2, "sweep.steps must be >= 2")
    try:
        grid = Grid(float(L), N)
    except ValueError as err:   # a spacing that underflows or overflows
        raise ConfigError(f"bad grid: {err}") from err
    model = _model_from_dict(doc["model"])
    _require(workflow == "zeromode" or isinstance(model, CoupledModel),
             f"the {workflow} workflow needs a coupled model")
    if workflow == "sweep" and not fields:
        # the first default step is kappa_v = 0: couplings whose squares
        # overflow are refused there, before 1.2 * critical overflows too
        susy.subcritical_radicand(model.kappa_f, model.kappa_m, 0.0)
        critical = susy.critical_field(model.kappa_f, model.kappa_m)
        fields = tuple(1.2 * critical * i / (steps - 1) for i in range(steps))
    return RunConfig(
        workflow=workflow,
        model=model,
        grid=grid,
        wilson_r=None if wilson_r is None else float(wilson_r),
        tolerances={**DEFAULT_TOLERANCES, **{k: float(v) for k, v in given.items()}},
        output_dir=doc.get("output_dir", "."),
        sweep_fields=fields,
        model_spec=doc["model"],
    )


# ---------------------------------------------------------------------------
# shared numeric helpers

def closed_form_tables(model, grid):
    """Every closed-form level table that applies to a coupled model.

    At kappa_v = 0: Scarf II for a tanh_sech profile and Rosen-Morse II for
    a tanh one (shifted or not), of A = kappa*|a| or kappa*|amplitude|: there
    W and -W share their E^2 levels, and the Rosen-Morse tilt
    B = kappa^2*amplitude*shift is the same for both. At kappa_v != 0: both
    electric-field variants for a shift-0 tanh profile, which raise
    SupercriticalError at or beyond the critical field and ConstraintError
    for amplitude <= 0. Any other model has none. A table of amplitude A
    lists at most 2*ceil(A) - 1 candidate levels; ConfigError refuses the
    model, before any table is built, when that is more than the
    2*n_points - 1 eigenvalues of the census operator on `grid`: such a
    table cannot be matched, and one of astronomic A would take forever to
    list or overflow.
    """
    prof = model.profile
    kappa = math.hypot(model.kappa_f, model.kappa_m)
    if model.kappa_v == 0 and isinstance(prof, TanhSechProfile):
        a = kappa * abs(prof.a)
    elif isinstance(prof, TanhProfile) and (model.kappa_v == 0 or prof.shift == 0):
        a = kappa * (abs(prof.amplitude) if model.kappa_v == 0 else prof.amplitude)
    else:
        return []
    n = grid.n_points
    # 2*ceil(a) - 1 > 2*n - 1 exactly when a > n; NaN is refused too
    if not a <= n:
        raise ConfigError(f"the closed-form tables of this model (A = {a:g}) list up "
                          f"to 2*ceil(A) - 1 candidate levels, more than the "
                          f"{2 * n - 1} eigenvalues of the operator at grid.n_points {n}")
    if isinstance(prof, TanhSechProfile):
        return [analytic.scarf2_levels(a, kappa * prof.b)]
    if model.kappa_v == 0:
        return [analytic.rosen_morse2_levels(a, kappa * kappa * prof.amplitude * prof.shift)]
    return list(analytic.rm2_with_field_levels(
        prof.amplitude, model.kappa_f, model.kappa_m, model.kappa_v))


@dataclass(frozen=True)
class BoundCensus:
    """The one per-step record of the spectrum, sweep and arbitrate workflows.

    The bound levels of the first-order operator at one coupling, matched
    against tables; each runner reads every level, count, cluster, table
    record and verdict it reports from here. `subcritical` is
    susy.is_subcritical of the model's couplings; when it is false the edge
    is 0 and `values` is empty. `clusters` are the distinct E^2 values of
    `values` with their multiplicities; `matches` holds one (table,
    per-level records, verdict) triple per table, in the tables' order, as
    _match_tables returns them.
    """

    subcritical: bool
    values: np.ndarray
    edge: float
    clusters: list
    matches: list

    def results(self, config, **keys):
        """A spectrum or arbitrate report's results: the keys both write
        (the continuum edge, the E^2 clusters and the config's warnings),
        then `keys`."""
        return {"continuum_edge": self.edge, "bound_e_squared_clusters": self.clusters,
                "warnings": config_warnings(config.model, config.wilson_r), **keys}


def bound_census(model, grid, tables, tol):
    """Solve, cluster and match the bound spectrum of a coupled model into
    its BoundCensus record.

    The one census step of the spectrum, sweep and arbitrate workflows, at
    most one eigensolve per call; each runner reports from the records it
    returns and solves nothing itself. susy.is_subcritical decides whether
    it solves: at or beyond the critical field, one ulp below it included
    when the radicand is not positive, the edge is taken as 0 and nothing is
    solved, and couplings whose squares overflow raise
    CouplingOverflowError. Otherwise the operator is the staggered chain
    (numerics.build_staggered); only pairs inside the continuum edge can be
    bound, so that edge is the eigen-window, and a zero edge (a profile that
    vanishes at a box end) solves nothing either. numerics.tunnelling_bound
    judges the window's values from them and the band alone: a value is
    bound when its tunnelling exponent to each wall is at least
    numerics.TUNNEL_MIN and it is not a wall state of the chain. E^2 values
    closer than tol share a cluster.
    """
    subcritical = susy.is_subcritical(model.kappa_f, model.kappa_m, model.kappa_v)
    profiles = model.general()
    edge = numerics.dirac_continuum_edge(profiles, grid) if subcritical else 0.0
    values = np.empty(0)
    if edge > 0:
        matrix = numerics.build_staggered(profiles, grid)
        values = numerics.eigensolve(matrix, window=(-edge, edge)).values
        values = values[numerics.tunnelling_bound(matrix, values, edge)]
    clusters = _cluster_e_squared(values, tol)
    matches = [(table, *_match_tables(table, clusters, tol)) for table in tables]
    return BoundCensus(subcritical, values, edge, clusters, matches)


def config_warnings(model, wilson_r):
    """Configuration smells of a census run; none depends on kappa_v.

    A wilson_r the config sets (None when it sets none) has no effect, since
    the census operator needs no regulator; and a sloped linear profile
    never saturates, so its box-end edge is only the window's cutoff.
    """
    warnings = []
    if wilson_r is not None:
        warnings.append(
            f"wilson_r = {wilson_r:g} is ignored: the spectrum, sweep and arbitrate "
            "workflows solve the staggered operator, which has no regulator"
        )
    if isinstance(model.profile, LinearProfile) and model.profile.slope != 0:
        warnings.append(
            f"the linear profile (slope {model.profile.slope:g}) does not saturate: "
            "the continuum edge is its box-end value and grows with "
            "grid.half_length, so it is not a scattering threshold but the "
            "eigen-window's cutoff; levels inside it are judged by their "
            "tunnelling exponents to the walls"
        )
    return warnings


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


def _match_tables(table, clusters, tol):
    """Greedy nearest-E^2 pairing of analytic entries against numeric clusters.

    A cluster of multiplicity c (the +-E mirror pair counts 2) can absorb up
    to c analytic entries: the two partner-sign entries at one level index
    describe the two mirror states. Each numeric state matches at most one
    analytic entry.

    Returns (records, verdict): one record per table entry, and the table's
    one verdict, which arbitrate prints and spectrum's checks read. It holds
    `unmatched_analytic`, the entries left unmatched; `unmatched_numeric`,
    the (E^2, states left) of each cluster with capacity to spare;
    `max_deviation`, the largest finite deviation over all entries; and
    `agrees_within_tolerance`, that nothing is left unmatched on either side.
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
    devs = [r["abs_deviation"] for r in records if math.isfinite(r["abs_deviation"])]
    missed = sum(not r["matched"] for r in records)
    return records, {
        "max_deviation": max(devs) if devs else 0.0,
        "agrees_within_tolerance": not missed and not unmatched,
        "unmatched_analytic": missed,
        "unmatched_numeric": unmatched,
    }


# ---------------------------------------------------------------------------
# workflows

def run_spectrum(config):
    model = config.model
    # raises on a supercritical or overflowing coupling
    susy.subcritical_radicand(model.kappa_f, model.kappa_m, model.kappa_v)
    _require(model.kappa_v == 0,
             "the spectrum workflow handles kappa_v = 0; use 'arbitrate' for "
             "the electric-field formula contest")
    tol = config.tolerances["match_e2"]
    census = bound_census(model, config.grid, closed_form_tables(model, config.grid), tol)
    # a model without a table has nothing its levels are matched against
    checks = [] if census.matches else [_check("closed_form_table_applies", 0.0, 0.5, "ge")]
    for table, records, verdict in census.matches:
        # matched entries only: an unmatched entry is counted by the first check
        devs = [r["abs_deviation"] for r in records if r["matched"]]
        for name, value, tolerance in (
                ("all_levels_matched", verdict["unmatched_analytic"], 0.5),
                ("no_unmatched_numeric", len(verdict["unmatched_numeric"]), 0.5),
                ("max_e2_deviation", max(devs, default=0.0), tol)):
            checks.append(_check(f"{table.formula_id}_{name}", float(value), tolerance, "le"))
    tables = [{"formula_id": table.formula_id, "metadata": table.metadata,
               "levels": records, "unmatched_numeric": verdict["unmatched_numeric"]}
              for table, records, verdict in census.matches]
    results = census.results(config, bound_energies=[float(v) for v in census.values],
                             analytic_tables=tables)
    return results, checks, {}


def run_zeromode(config):
    model, grid = config.model, config.grid
    artifacts = {}
    checks = []
    if isinstance(model, analytic.TransformedPotentialParameters):
        try:
            zeromodes.zero_mode_transformed(model, grid)
        except ConstructionFailedError as err:   # always: no zero mode exists
            results = {
                "mechanism": "transformed_potential",
                "construction_failed": str(err),
                "spectrum_head": [float(v) for v in err.spectrum[:6]],
            }
            checks.append(_check("construction_succeeded", 0.0, 0.5, "ge"))
            return results, checks, artifacts
    if isinstance(model, CoupledModel):
        mode = zeromodes.zero_mode_quadrature(model, grid)
    else:   # a StepMatchProblem
        try:
            mode = zeromodes.step_match(model, grid)
        except ValueError as err:   # energy outside the decaying window
            raise ConfigError(str(err)) from err
        if mode is None:
            results = {"mechanism": "interface_matching", "matched": False,
                       "note": "interface condition has no solution at this energy"}
            checks.append(_check("interface_matched", 0.0, 0.5, "ge"))
            return results, checks, artifacts

    results = {
        "mechanism": mode.mechanism,
        "normalizable": mode.normalizable,
        "decay_rates": [float(r) for r in mode.decay_rates],
        "metadata": mode.metadata,
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
    model = config.model
    critical = susy.critical_field(model.kappa_f, model.kappa_m)
    rows = []
    for kv in config.sweep_fields:
        step = bound_census(replace(model, kappa_v=kv), config.grid, [],
                            config.tolerances["match_e2"])
        rows.append({
            "kappa_v": kv,
            "subcritical": step.subcritical,
            "continuum_edge": step.edge,
            "bound_count": len(step.values),
            # the five of least |E|, ties in the census order
            "lowest_energies": [float(v) for v in sorted(step.values, key=abs)[:5]],
        })
    counts = [row["bound_count"] for row in rows]
    non_increasing = all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))
    beyond = [c for kv, c in zip(config.sweep_fields, counts) if kv >= critical - 1e-12]
    checks = [
        _check("bound_count_non_increasing", 1.0 if non_increasing else 0.0, 0.5, "ge"),
        _check("no_bound_states_beyond_critical",
               float(max(beyond) if beyond else 0), 0.5, "le"),
    ]
    results = {"critical_field": critical, "steps": rows,
               "warnings": config_warnings(model, config.wilson_r)}
    return results, checks, {}


def run_arbitrate(config):
    model = config.model
    tables = closed_form_tables(model, config.grid)
    # two tables come only as the rival electric-field variants
    _require(len(tables) == 2,
             "arbitrate needs a pure tanh profile (shift 0) and kappa_v != 0")
    tol = config.tolerances["arbitrate"]
    census = bound_census(model, config.grid, tables, tol)
    decisive = None
    for (table, _, won), (_, _, lost) in (census.matches, census.matches[::-1]):
        if (won["agrees_within_tolerance"] and not lost["agrees_within_tolerance"]
                and (lost["max_deviation"] > 10 * tol or lost["unmatched_numeric"])):
            decisive = table.formula_id
    results = census.results(
        config, winner=decisive,
        levels={table.formula_id: records for table, records, _ in census.matches},
        verdicts={table.formula_id: verdict for table, _, verdict in census.matches})
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

def _verdict(check):
    """Whether a check's value passes its tolerance; ConfigError if malformed."""
    value, tolerance, op = (check.get(key) for key in ("value", "tolerance", "op"))
    name = check.get("name")
    _require(op in ("le", "ge"), f"check {name!r}: op must be 'le' or 'ge', got {op!r}")
    _require(_is_number(value) and _is_number(tolerance),
             f"check {name!r}: value and tolerance must be numbers")
    return bool(value <= tolerance if op == "le" else value >= tolerance)


def _check(name, value, tolerance, op):
    check = {"name": name, "value": value, "tolerance": tolerance, "op": op}
    check["passed"] = _verdict(check)
    return check


def _json_default(obj):
    """Encode the numpy arrays and complex values the json module does not know."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def build_report(config, results, checks):
    return {
        "schema": 1,
        "tool": {"name": "diracosc", "version": __version__},
        "workflow": config.workflow,
        "config": {
            "model": config.model_spec,
            "grid": {"half_length": config.grid.half_length,
                     "n_points": config.grid.n_points,
                     "spacing": config.grid.spacing},
            "wilson_r": config.wilson_r,
            "tolerances": config.tolerances,
        },
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


CSV_BLOCK_ROWS = 64            # rows formatted and written per write call
CSV_SPLIT_ROWS = 8_000         # from this many rows a forked child formats half
CSV_PIPE_BYTES = 1 << 16       # bytes copied from the child's pipe per read


def _csv_blocks(table, start, stop):
    """The CSV bytes of rows [start, stop) of `table`, one block at a time.

    A column that is +0.0 on every one of these rows goes into the row
    template as "0", which is what "%.17g" makes of +0.0; a -0.0 keeps the
    column formatted, since it prints as "-0".
    """
    rows = table[start:stop]
    keep = rows.any(axis=0) | np.signbit(rows).any(axis=0)
    row = ",".join("%.17g" if k else "0" for k in keep) + "\r\n"
    # a slice keeps each block a view when no column is dropped
    cols = slice(None) if keep.all() else np.flatnonzero(keep)
    for lo in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[lo:lo + CSV_BLOCK_ROWS, cols]
        yield (row * len(block) % tuple(block.ravel().tolist())).encode("ascii")


def _fork_formatter(table, start):
    """Fork a child that formats rows [start, end) of `table` into memory,
    sends them through a pipe and exits; (pid, read end of the pipe), or
    None when no pipe or process can be had.

    The child buffers its whole half before it sends: one that wrote as it
    went would stall on the full pipe until the parent had done its own half.
    It never returns into the caller, so it runs no atexit handler and
    flushes no buffer it inherited, such as the caller's stdout or file.
    """
    import warnings            # loaded at interpreter start-up: no import cost
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns that fork in a process with threads (OpenBLAS
            # starts some) may deadlock the child. This child calls no BLAS: it
            # runs only string formatting, os.write and os._exit.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            view = memoryview(b"".join(_csv_blocks(table, start, len(table))))
            while view:
                view = view[os.write(write_fd, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _child_succeeded(pid):
    """Reap the child; whether it exited with status 0."""
    try:
        return os.waitpid(pid, 0)[1] == 0
    except ChildProcessError:  # reaped elsewhere (SIGCHLD ignored): status lost
        return False


def _open_new(path, mode):
    """open(path, mode) on a new file: a file already at path is removed first.

    Truncating a file and writing it again makes ext4 (auto_da_alloc, on by
    default) start writeback when it is closed, which stalls the close by
    tens of milliseconds; a new file's data is written back later, and the
    bytes are the same either way.
    """
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    return open(path, mode)


def write_wavefunction_csv(path, psi):
    """One row per node, "%.17g" per value (round-trip precision), CRLF ends.

    Rows are formatted a block at a time, one string and one write per
    block, so memory stays bounded: the text this process holds is one
    block long at any grid size, where one string for the whole file would
    take several times the float table. A column that is +0.0 on every row
    a process formats is written as the literal "0" (see _csv_blocks): the
    upper component of a zero mode is real and the lower one imaginary, so
    two of its six columns are, and they cost no formatting.

    From CSV_SPLIT_ROWS rows on, where os.fork exists, a forked child formats
    the second half while this process formats the first, and this process
    then copies the child's text into the file. The child holds only its own
    half of the text. If no child can be started, or it fails, this process
    formats those rows itself, so the file is the same either way, and it is
    complete when this function returns. A file already at `path` is
    replaced by a new one (see _open_new).
    """
    columns = (psi.grid.nodes, psi.upper.real, psi.upper.imag,
               psi.lower.real, psi.lower.imag, psi.density())
    table = np.column_stack(columns)
    n, mid = len(table), len(table) // 2
    with _open_new(path, "wb") as handle:
        handle.write(b"x,re_psi1,im_psi1,re_psi2,im_psi2,prob_density\r\n")
        child = None
        if n >= CSV_SPLIT_ROWS and hasattr(os, "fork"):
            child = _fork_formatter(table, mid)
        if child is None:
            handle.writelines(_csv_blocks(table, 0, n))
            return
        pid, pipe = child
        try:
            handle.writelines(_csv_blocks(table, 0, mid))
            end = handle.tell()
            while chunk := os.read(pipe, CSV_PIPE_BYTES):
                handle.write(chunk)
        finally:
            os.close(pipe)
            succeeded = _child_succeeded(pid)
        if not succeeded:
            handle.seek(end)
            handle.truncate()
            handle.writelines(_csv_blocks(table, mid, n))


def run(config, out_dir=None):
    """Execute one workflow; returns (exit_code, report_path).

    The output directory is made once the workflow has its results, so an
    input error the workflow raises leaves nothing behind. The report and
    any CSV replace files already at their paths with new ones (see
    _open_new).
    """
    results, checks, artifacts = _WORKFLOW_RUNNERS[config.workflow](config)
    report = build_report(config, results, checks)
    out = out_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    for name, psi in artifacts.items():
        write_wavefunction_csv(os.path.join(out, name), psi)
    report_path = os.path.join(out, f"{config.workflow}_report.json")
    with _open_new(report_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=_json_default)
        handle.write("\n")
    return (0 if report["passed"] else 2), report_path


def _read_json(path):
    """The JSON document in `path`; ConfigError when it does not decode."""
    with open(path) as handle:
        try:
            return json.load(handle)
        # malformed JSON, or an integer longer than Python converts (4300
        # digits by default)
        except ValueError as err:
            raise ConfigError(str(err)) from err


def recheck(report_path):
    """Re-read a report and revalidate its pass/fail verdicts from the data."""
    report = _read_json(report_path)
    _require(isinstance(report, dict) and _is_integer(report.get("schema"))
             and report["schema"] == 1, "report schema must be 1")
    # every workflow writes at least one check
    checks = report.get("checks")
    _require(isinstance(checks, list) and checks, "report checks must be a non-empty list")
    mismatches = 0
    all_passed = True
    for check in checks:
        _require(isinstance(check, dict), "each check must be an object")
        passed = _verdict(check)
        all_passed &= passed
        tag = "PASS" if passed else "FAIL"
        line = (f"[recheck] {check.get('name')}: {tag} "
                f"(value={check['value']:g}, tol={check['tolerance']:g})")
        if passed != check.get("passed"):
            mismatches += 1
            line += "  ** disagrees with stored verdict **"
        print(line)
    if mismatches:
        print(f"[recheck] {mismatches} stored verdict(s) do not match the data")
        return 1
    print(f"[recheck] overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 2


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the input-error code, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(
        prog="diracosc",
        description="Bound states and zero modes of a 1+1D Dirac oscillator "
                    "with position-dependent mass",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a config-driven workflow")
    source = runp.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON config")
    source.add_argument("--recheck", metavar="REPORT",
                        help="revalidate an existing report instead of solving")
    runp.add_argument("--out", help="output directory of a --config run "
                                     "(overrides the config)")
    args = parser.parse_args(argv)
    if args.recheck is not None and args.out is not None:
        runp.error("argument --out: not allowed with argument --recheck")

    try:
        if args.recheck is not None:
            return recheck(args.recheck)
        config = parse_config(_read_json(args.config))
        code, report_path = run(config, out_dir=args.out)
        print(f"report written to {report_path}")
        return code
    except (DiracOscError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
