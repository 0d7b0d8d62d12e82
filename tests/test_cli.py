"""Config ingestion, workflow dispatch, report determinism and recheck."""

import csv
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diracosc import analytic, cli, kernels, numerics, susy
from diracosc.cli import (
    CSV_SPLIT_ROWS,
    bound_census,
    closed_form_tables,
    config_warnings,
    main,
    parse_config,
    profile_from_dict,
    run,
    write_wavefunction_csv,
)
from diracosc.errors import ConfigError
from diracosc.model import (
    CoupledModel,
    Grid,
    LinearProfile,
    SpinorField,
    StepProfile,
    TabulatedProfile,
    TanhPowerProfile,
    TanhProfile,
    TanhSechProfile,
)
from diracosc.numerics import eigensolve
from diracosc.zeromodes import StepMatchProblem, step_match, zero_mode_quadrature


def base_config(**overrides):
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
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    )


def test_profile_round_trip():
    spec = {"type": "tanh", "amplitude": 2.0, "shift": 0.5}
    assert profile_from_dict(spec) == TanhProfile(2.0, 0.5)
    with pytest.raises(ConfigError):
        profile_from_dict({"type": "nope"})
    with pytest.raises(ConfigError):
        profile_from_dict({"type": "tanh_power", "exponent": 2})


@pytest.mark.parametrize("spec, unknown", [
    ({"type": "tanh", "amplitude": 0.8, "shfit": 0.5}, "shfit"),
    ({"type": "linear", "slope": 1.0, "amplitude": 2.0, "a": 1.0}, "a, amplitude"),
    ({"type": "tabulated", "nodes": [0.0, 1.0], "samples": [0.0, 1.0],
      "shift": 0.5}, "shift"),
], ids=["tanh", "linear", "tabulated"])
def test_profile_rejects_keys_its_type_does_not_take(tmp_path, capsys, spec, unknown):
    # a misspelled shift would otherwise run at shift 0, the wrong physics
    kind = spec["type"]
    with pytest.raises(ConfigError, match=f"^a {kind} profile does not take {unknown}$"):
        profile_from_dict(spec)
    model = {"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
             "profile": spec}
    doc = base_config(model=model, output_dir=str(tmp_path))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: a {kind} profile does not take {unknown}\n"
    assert not (tmp_path / "spectrum_report.json").exists()


@pytest.mark.parametrize("model, tables", [
    ({"kappa_v": 0.0, "profile": TanhProfile(0.8)}, ["rosen_morse2"]),
    ({"kappa_v": 0.0, "profile": TanhProfile(0.8, shift=0.5)}, ["rosen_morse2"]),
    ({"kappa_v": 0.0, "profile": TanhSechProfile(1.0, 0.5)}, ["scarf2"]),
    ({"kappa_v": 2.0, "profile": TanhProfile(1.0)},
     ["rm2_field_printed", "rm2_field_rederived"]),
    ({"kappa_v": 2.0, "profile": TanhProfile(1.0, shift=0.5)}, []),
    ({"kappa_v": 2.0, "profile": TanhSechProfile(1.0, 0.5)}, []),
    ({"kappa_v": 0.0, "profile": LinearProfile(1.0)}, []),
    ({"kappa_v": 2.0, "profile": LinearProfile(1.0)}, []),
    ({"kappa_v": 0.0, "profile": TanhPowerProfile(3)}, []),
    ({"kappa_v": 0.0, "profile": TanhProfile(-0.8, shift=-0.1)}, ["rosen_morse2"]),
], ids=["tanh", "shifted-tanh", "tanh_sech", "tanh-field", "shifted-tanh-field",
        "tanh_sech-field", "linear", "linear-field", "tanh_power", "negated-tanh"])
def test_closed_form_tables_lookup(model, tables):
    found = closed_form_tables(CoupledModel(3.0, 4.0, **model), Grid(20.0, 201))
    assert [table.formula_id for table in found] == tables


def test_config_warnings_are_one_list_per_run(tmp_path):
    # a config that sets wilson_r gets one warning that the census ignores
    # it, at every kappa_v, so each census workflow reports that warning
    # once, a sweep over four fields included
    model = CoupledModel(1.0, 1.0, 0.0, TanhProfile(2.0))
    (warning,) = config_warnings(model, 0.05)
    assert warning.startswith("wilson_r = 0.05 is ignored")
    for kv in (0.5, 1.0, 2.0):
        assert config_warnings(replace(model, kappa_v=kv), 0.05) == [warning]
        assert config_warnings(replace(model, kappa_v=kv), None) == []
    spec = {"type": "coupled", "kappa_f": 1.0, "kappa_m": 1.0,
            "profile": {"type": "tanh", "amplitude": 2.0, "shift": 0.0}}
    for workflow, kv, extra in (
            ("spectrum", 0.0, {}),
            ("arbitrate", 1.0, {}),
            ("sweep", 0.0, {"sweep": {"kappa_v_values": [0.0, 0.5, 1.0, 2.0]}})):
        doc = base_config(workflow=workflow, model={**spec, "kappa_v": kv},
                          wilson_r=0.05, grid={"half_length": 20.0, "n_points": 201},
                          **extra)
        _, report_path = run(parse_config(doc), out_dir=str(tmp_path / workflow))
        with open(report_path) as handle:
            assert json.load(handle)["results"]["warnings"] == [warning], workflow


def test_parse_config_validation():
    assert parse_config(base_config()).workflow == "spectrum"
    assert parse_config(base_config()).wilson_r == 0.25
    unset = base_config()
    del unset["wilson_r"]
    assert parse_config(unset).wilson_r is None
    for bad in (
        base_config(schema=2),
        base_config(workflow="plot"),
        base_config(grid={"half_length": -1, "n_points": 801}),
        base_config(grid={"half_length": 20.0, "n_points": 800}),   # even
        base_config(grid={"half_length": 20.0, "n_points": 1}),
        base_config(wilson_r=-0.5),
        base_config(tolerances={"match_e2": -1e-3}),
        base_config(tolerances={"unknown": 1e-3}),
        base_config(tolerances={"norm": 1e-8}),        # fixed in code, not a key
        base_config(model={"no_type": True}),
    ):
        with pytest.raises(ConfigError):
            parse_config(bad)


STEP_MODEL = {"type": "step", "f_plus": 3.0, "f_minus": 3.0, "m_plus": 4.0,
              "m_minus": 4.0}
# kappa_m = 0 keeps the staggered chain below its lattice threshold at any kappa_f
HUGE_F_MODEL = {"type": "coupled", "kappa_f": 3000.0, "kappa_m": 0.0, "kappa_v": 0.0,
                "profile": {"type": "tanh", "amplitude": 1.0}}
TABLE_REFUSAL = ("the closed-form tables of this model (A = {}) list up to 2*ceil(A) - 1 "
                 "candidate levels, more than the 401 eigenvalues of the operator at "
                 "grid.n_points 201")
OVERFLOW_REFUSAL = ("kappa_f^2 + kappa_m^2 - kappa_v^2 is not finite at kappa_f = 1e+200, "
                    "kappa_m = 0, kappa_v = {}; the couplings are too large")
ARBITRATE_REFUSAL = "arbitrate needs a pure tanh profile (shift 0) and kappa_v != 0"
TINY_MODEL = {"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
              "profile": {"type": "tanh", "amplitude": 1e-200}}
UNDERFLOW_REFUSAL = ("A = 5e-200 is too small: A^2 = 0 underflows below the smallest "
                     "normal float 2.22507e-308")
NO_MASS_MODEL = {"type": "coupled", "kappa_f": 0.0, "kappa_m": 0.0, "kappa_v": 0.5,
                 "profile": {"type": "tanh", "amplitude": 1.0}}
NO_MASS_REFUSAL = ("bad coupled model: kappa_f and kappa_m are both zero, so the "
                   "critical field is 0")
BAND_REFUSAL = ("the operator's entries reach {} at grid spacing h = {}; their squares "
                "overflow, so LAPACK cannot solve it")
TRANSFORMED_MODEL = {"type": "transformed_potential", "lambda": 3, "n": 1}


def test_parse_config_builds_typed_values():
    config = parse_config(base_config(workflow="sweep"))
    assert config.model == CoupledModel(3.0, 4.0, 0.0, TanhProfile(0.8, 0.0))
    assert config.model_spec == base_config()["model"]
    assert config.grid == Grid(20.0, 1201)
    assert config.tolerances == {"match_e2": 5e-2, "arbitrate": 5e-3}
    # seven fields from 0 to 1.2 times the critical field 5
    assert config.sweep_fields == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    listed = parse_config(base_config(workflow="sweep",
                                      sweep={"kappa_v_values": [0, 2.5]}))
    assert listed.sweep_fields == (0.0, 2.5)
    step = parse_config(base_config(workflow="zeromode",
                                    model={**STEP_MODEL, "energy": 0.5, "flip_m": True}))
    assert step.model == StepMatchProblem(3.0, 3.0, 4.0, 4.0, energy=0.5, flip_m=True)
    transformed = parse_config(base_config(
        workflow="zeromode", model={"type": "transformed_potential", "lambda": 3, "n": 1}))
    assert transformed.model == analytic.transformed_potential_parameters(3.0, 1)


@pytest.mark.parametrize("overrides, message", [
    ({"tolerance": {"match_e2": 5e-2}}, "the config does not take tolerance"),
    ({"model": {**base_config()["model"], "kapa_v": 1.0}},
     "a coupled model does not take kapa_v"),
    ({"workflow": "zeromode", "model": {**STEP_MODEL, "enrgy": 0.5}},
     "a step model does not take enrgy"),
    ({"sweep": {"kappa_v_value": [0.0, 2.0]}}, "sweep does not take kappa_v_value"),
    ({"model": {**base_config()["model"], "kappa_f": True}},
     "model.kappa_f must be a number, got True"),
    ({"grid": {"half_length": True, "n_points": 201}},
     "grid.half_length must be a number, got True"),
    ({"schema": True}, "schema must be an integer, got True"),
    ({"workflow": "zeromode",
      "model": {"type": "transformed_potential", "lambda": True, "n": 1}},
     "model.lambda must be a number, got True"),
    ({"tolerances": {"match_e2": True}}, "tolerances.match_e2 must be a number, got True"),
    ({"wilson_r": True}, "wilson_r must be a number, got True"),
    ({"workflow": "zeromode", "model": {**STEP_MODEL, "f_plus": "3"}},
     "model.f_plus must be a number, got '3'"),
    ({"model": {**base_config()["model"],
                "profile": {"type": "tanh", "amplitude": "0.8"}}},
     "model.profile.amplitude must be a number, got '0.8'"),
    ({"output_dir": 5}, "output_dir must be a string, got 5"),
    ({"workflow": "zeromode",
      "model": {**base_config()["model"],
                "profile": {"type": "tanh_power", "exponent": 3.5}}},
     "model.profile.exponent must be an integer, got 3.5"),
    ({"model": {**base_config()["model"], "profile": {"type": "nope"}}},
     "unknown profile type 'nope'"),
    ({"model": STEP_MODEL}, "the spectrum workflow needs a coupled model"),
    ({"model": {**base_config()["model"], "kappa_v": 1.0}},
     "the spectrum workflow handles kappa_v = 0; use 'arbitrate' for the "
     "electric-field formula contest"),
    ({"workflow": "zeromode", "model": {**STEP_MODEL, "energy": 10.0}},
     "need E^2 < f^2 + m^2 on both sides for decaying solutions"),
    # JSON integers beyond the float range ended in an OverflowError traceback,
    # and a 401-digit odd grid size in a ValueError from np.linspace
    ({"grid": {"half_length": 5.0, "n_points": 10**400 + 1}},
     f"grid.n_points must be an odd integer from 3 to {cli.MAX_N_POINTS}"),
    ({"model": {**base_config()["model"], "kappa_f": 10**400}},
     f"model.kappa_f must be a number, got {10**400}"),
    ({"model": {**base_config()["model"],
                "profile": {"type": "tanh", "amplitude": -10**400}}},
     f"model.profile.amplitude must be a number, got {-10**400}"),
    # a closed-form table of 2*ceil(A) - 1 candidates was listed before any
    # check: 5999 levels against 401 eigenvalues ran and exited 2, and at
    # A = 1e200 the table overflowed in a traceback
    ({"model": HUGE_F_MODEL}, TABLE_REFUSAL.format("3000")),
    ({"model": {**HUGE_F_MODEL, "kappa_f": 1e100,
                "profile": {"type": "tanh", "amplitude": 1e100}}},
     TABLE_REFUSAL.format("1e+200")),
    ({"workflow": "arbitrate", "model": {**HUGE_F_MODEL, "kappa_v": 1.0}},
     TABLE_REFUSAL.format("3000")),
    # at kappa_v = 0 a negated amplitude has the table of its twin, so the
    # size bound holds for it too (it stopped with "need A > 0")
    ({"model": {**HUGE_F_MODEL, "profile": {"type": "tanh", "amplitude": -1.0}}},
     TABLE_REFUSAL.format("3000")),
    # json reads NaN and +-Infinity: an infinite match_e2 passed every level
    # (exit 0), an infinite field ended in a traceback, and an infinite box
    # in numpy warnings and a misleading non-finite-profile error
    ({"tolerances": {"match_e2": math.inf}},
     "tolerances.match_e2 must be a number, got inf"),
    ({"workflow": "sweep", "sweep": {"kappa_v_values": [0.0, math.inf]}},
     "kappa_v_values must be finite and >= 0"),
    ({"grid": {"half_length": math.inf, "n_points": 201}},
     "grid.half_length must be a number, got inf"),
    ({"model": {**base_config()["model"], "kappa_m": -math.inf}},
     "model.kappa_m must be a number, got -inf"),
    ({"model": {**base_config()["model"], "kappa_f": math.nan}},
     "model.kappa_f must be a number, got nan"),
    # kappa_f^2 overflows: the report held NaN and Infinity and exited 2
    ({"workflow": "zeromode",
      "model": {**base_config()["model"], "kappa_f": 1e200, "kappa_m": 0.0,
                "profile": {"type": "tanh_power", "exponent": 3, "shift": 0.5}},
      "grid": {"half_length": 24.0, "n_points": 201}},
     OVERFLOW_REFUSAL.format("0")),
    # the census read kappa_f^2 = inf as subcritical: spectrum stopped at the
    # table refusal, and the sweep exited 0 with hundreds of "bound states" and
    # numpy overflow warnings; inf - inf = NaN read as not subcritical
    ({"model": {**HUGE_F_MODEL, "kappa_f": 1e200}}, OVERFLOW_REFUSAL.format("0")),
    ({"workflow": "sweep", "model": {**HUGE_F_MODEL, "kappa_f": 1e200},
      "sweep": {"kappa_v_values": [0.0, 1.0, 9e199]}}, OVERFLOW_REFUSAL.format("0")),
    ({"workflow": "sweep", "model": {**HUGE_F_MODEL, "kappa_f": 1e200},
      "sweep": {"kappa_v_values": [9e199]}}, OVERFLOW_REFUSAL.format("9e+199")),
    # arbitrate takes only the two rival field tables, whatever rules them out
    ({"workflow": "arbitrate"}, ARBITRATE_REFUSAL),
    ({"workflow": "arbitrate",
      "model": {**base_config()["model"], "kappa_v": 1.0,
                "profile": {"type": "tanh", "amplitude": 0.8, "shift": 0.3}}},
     ARBITRATE_REFUSAL),
    # A^2 underflows to 0: arbitrate ended in a ZeroDivisionError traceback,
    # and spectrum stopped with "need B < A^2, got B=0.0, A^2=0.0"
    ({"model": TINY_MODEL}, UNDERFLOW_REFUSAL),
    ({"workflow": "arbitrate", "model": {**TINY_MODEL, "kappa_v": 1.0}}, UNDERFLOW_REFUSAL),
    # kappa_f = kappa_m = 0 has critical field 0: the sweep built the all-zero
    # model at kappa_v = 0 and ended in a ValueError traceback, and the other
    # workflows stopped with the supercritical line
    *[({"workflow": workflow, "model": NO_MASS_MODEL}, NO_MASS_REFUSAL)
      for workflow in ("sweep", "spectrum", "zeromode", "arbitrate")],
    # band entries whose squares overflow ended in a LAPACK RuntimeError
    # traceback, and a grid spacing whose square underflows in a
    # ZeroDivisionError one
    ({"workflow": "sweep",
      "model": {**NO_MASS_MODEL, "kappa_m": 2.83, "kappa_v": 0.0,
                "profile": {"type": "tanh_sech", "a": -4.3e101, "b": 2.09}},
      "grid": {"half_length": 4.5e-161, "n_points": 401}},
     BAND_REFUSAL.format("8.88889e+162", "2.25e-163")),
    ({"grid": {"half_length": 1e-160, "n_points": 201}},
     BAND_REFUSAL.format("2e+162", "1e-162")),
    ({"workflow": "zeromode", "model": TRANSFORMED_MODEL,
      "grid": {"half_length": 1e-100, "n_points": 401}},
     BAND_REFUSAL.format("1.6e+205", "5e-103")),
    ({"workflow": "zeromode", "model": TRANSFORMED_MODEL,
      "grid": {"half_length": 1e-160, "n_points": 401}},
     BAND_REFUSAL.format("inf", "5e-163")),
    # kappa_f * W overflows: numpy warnings, then a refusal of the NaN residual
    # check that did not name the cause
    ({"workflow": "zeromode",
      "model": {"type": "coupled", "kappa_f": 6.5e64, "kappa_m": 5e-296, "kappa_v": -0.1,
                "profile": {"type": "tanh", "amplitude": 6.9e266, "shift": -0.65}},
      "grid": {"half_length": 20.0, "n_points": 401}},
     "profile produced non-finite values on the grid"),
    # further faults a config fuzzer found. Tracebacks: an OverflowError from
    # f_plus**2, a ValueError from the sweep's NaN first field (1.2 * critical
    # overflowed, times 0), a ZeroDivisionError from a grid spacing of 0, and
    # an OverflowError from the lattice hint's math.floor(inf)
    ({"workflow": "zeromode", "model": {**STEP_MODEL, "f_plus": 2.1e280},
      "grid": {"half_length": 14.5, "n_points": 101}},
     "bad step model: f_plus^2 + m_plus^2 is not finite; the magnitudes are too large"),
    ({"workflow": "sweep", "model": {**HUGE_F_MODEL, "kappa_f": 1.7976931348623157e308},
      "sweep": {"steps": 4}},
     "kappa_f^2 + kappa_m^2 - kappa_v^2 is not finite at kappa_f = 1.79769e+308, "
     "kappa_m = 0, kappa_v = 0; the couplings are too large"),
    ({"grid": {"half_length": 5e-324, "n_points": 201}},
     "bad grid: half_length = 4.94066e-324 at n_points = 201 gives the grid spacing 0, "
     "which must be positive and finite"),
    ({"model": {**base_config()["model"], "profile": {"type": "linear", "slope": 0.1}},
      "grid": {"half_length": 2e301, "n_points": 201}},
     "h*max|m| = inf is not below 2, so lattice states of the staggered operator fall "
     "inside the continuum edge; no n_points keeps it below 2"),
    # numpy warnings, then a message about a value that is not the cause
    ({"workflow": "zeromode", "grid": {"half_length": 1.7976931348623157e308,
                                       "n_points": 201}},
     "bad grid: half_length = 1.79769e+308 at n_points = 201 gives the grid spacing "
     "inf, which must be positive and finite"),
    ({"workflow": "zeromode",
      "model": {**base_config()["model"], "kappa_f": 6e-151, "kappa_m": 0.8,
                "kappa_v": 0.3, "profile": {"type": "tanh", "amplitude": 1.7e308}},
      "grid": {"half_length": 20.0, "n_points": 201}},
     "profile produced non-finite values on the grid"),
    ({"workflow": "zeromode",
      "model": {**base_config()["model"], "kappa_f": 5.1e122, "kappa_m": 0.8,
                "profile": {"type": "tanh_power", "exponent": 3, "shift": 0.5}},
      "grid": {"half_length": 2.4e301, "n_points": 201}},
     "profile produced non-finite values on the grid"),
    ({"workflow": "zeromode",
      "model": {**base_config()["model"], "kappa_f": 0.6, "kappa_m": 0.8, "kappa_v": 0.3,
                "profile": {"type": "tanh_sech", "a": 1e300, "b": 5e299}},
      "grid": {"half_length": 20.0, "n_points": 201}},
     "the Dirac residual is not finite at grid spacing h = 0.2; the grid is too fine "
     "or the profiles too large"),
], ids=["tolerance-typo", "kapa_v", "enrgy", "kappa_v_value", "kappa_f-true",
        "half_length-true", "schema-true", "lambda-true", "match_e2-true", "wilson_r-true",
        "f_plus-string", "amplitude-string", "output_dir-number", "exponent-float",
        "profile-type", "step-spectrum", "spectrum-field", "energy-window",
        "n_points-huge", "kappa_f-overflow", "amplitude-overflow", "table-3000",
        "table-1e200", "arbitrate-table-3000", "negated-table-3000",
        "match_e2-infinity", "kappa_v_values-infinity", "half_length-infinity",
        "kappa_m-minus-infinity", "kappa_f-nan", "zeromode-kappa_f-1e200",
        "spectrum-kappa_f-1e200", "sweep-kappa_f-1e200", "sweep-radicand-nan",
        "arbitrate-kappa_v-0", "arbitrate-shifted-tanh", "spectrum-amplitude-1e-200",
        "arbitrate-amplitude-1e-200", "sweep-no-mass", "spectrum-no-mass",
        "zeromode-no-mass", "arbitrate-no-mass", "sweep-spacing-2.25e-163",
        "spectrum-spacing-1e-162", "transformed-spacing-5e-103",
        "transformed-spacing-5e-163", "zeromode-kappa-w-overflow", "step-f_plus-2e280",
        "sweep-default-kappa_f-max", "spectrum-spacing-0", "lattice-hint-overflow",
        "zeromode-spacing-inf", "zeromode-integral-overflow",
        "zeromode-exponent-overflow", "zeromode-residual-overflow"])
def test_refused_config_writes_nothing(tmp_path, capsys, overrides, message):
    # each of these used to run anyway, end in a traceback, stop with a wrong
    # message, or stop only after the output directory had been made
    out = tmp_path / "out"
    doc = base_config(grid={"half_length": 5.0, "n_points": 201}, output_dir=str(out))
    doc.update(overrides)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_spectrum_workflow_passes(tmp_path):
    config = parse_config(base_config())
    code, report_path = run(config, out_dir=str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["passed"]
    tables = report["results"]["analytic_tables"]
    assert tables[0]["formula_id"] == "rosen_morse2"
    matched = [lvl["analytic_e2"] for lvl in tables[0]["levels"] if lvl["matched"]]
    assert sorted(set(round(v) for v in matched)) == [0, 7, 12, 15]


def test_spectrum_without_a_table_fails_its_one_check(tmp_path, capsys):
    # a model no closed-form table covers has nothing to match its levels
    # against: one failed check, exit 2, and recheck agrees with the run
    model = {"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
             "profile": {"type": "tanh_power", "exponent": 3}}
    doc = base_config(model=model, grid={"half_length": 20.0, "n_points": 2001})
    del doc["wilson_r"]
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["checks"] == [{"name": "closed_form_table_applies", "value": 0.0,
                                 "tolerance": 0.5, "op": "ge", "passed": False}]
    assert report["results"]["analytic_tables"] == []
    assert not report["passed"]
    capsys.readouterr()
    assert main(["run", "--recheck", str(tmp_path / "spectrum_report.json")]) == 2
    out = capsys.readouterr().out
    assert "[recheck] overall: FAIL" in out
    assert "disagrees" not in out


@pytest.mark.parametrize("negated, twin", [
    ({"type": "tanh", "amplitude": -0.8}, {"type": "tanh", "amplitude": 0.8}),
    ({"type": "tanh", "amplitude": -0.8, "shift": -0.1},
     {"type": "tanh", "amplitude": 0.8, "shift": 0.1}),
    ({"type": "tanh_sech", "a": -1.0, "b": -0.5},
     {"type": "tanh_sech", "a": 1.0, "b": 0.5}),
], ids=["tanh", "shifted-tanh", "tanh_sech"])
def test_negated_profile_gets_the_tables_of_its_twin(tmp_path, negated, twin):
    # at kappa_v = 0, H(-W) = sigma_x H(W) sigma_x: -W has the E^2 levels of
    # W. The negated tanh profiles stopped with "need A > 0" (exit 1), and
    # the negated tanh_sech one got an empty Scarf II table (exit 2)
    reports = []
    for name, profile in (("negated", negated), ("twin", twin)):
        doc = base_config(model={**base_config()["model"], "profile": profile},
                          grid={"half_length": 20.0, "n_points": 2001})
        del doc["wilson_r"]
        out = tmp_path / name
        assert main(["run", "--config", write_config(tmp_path, doc, f"{name}.json"),
                     "--out", str(out)]) == 0
        reports.append(json.loads((out / "spectrum_report.json").read_text()))
    negated_report, twin_report = reports
    tables = [[(t["formula_id"], t["metadata"]["A"],
                [(lvl["n"], lvl["sigma"], lvl["analytic_e2"]) for lvl in t["levels"]])
               for t in report["results"]["analytic_tables"]] for report in reports]
    assert tables[0] == tables[1] and tables[0][0][2]
    checks = [[(c["name"], c["passed"]) for c in report["checks"]] for report in reports]
    assert checks[0] == checks[1]
    for mine, theirs in zip(negated_report["checks"], twin_report["checks"], strict=True):
        assert mine["value"] == pytest.approx(theirs["value"], rel=0, abs=1e-12)


def test_spectrum_rejects_field_coupling(tmp_path):
    doc = base_config()
    doc["model"]["kappa_v"] = 1.0
    with pytest.raises(ConfigError):
        run(parse_config(doc), out_dir=str(tmp_path))


def test_cli_main_supercritical_exit_code(tmp_path, capsys):
    doc = base_config()
    doc["model"]["kappa_v"] = 6.0
    path = write_config(tmp_path, doc)
    code = main(["run", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: |kappa_v| = 6 is not below the critical field 5; the reduced "
        "problem is degenerate or complex"
    ]


def test_one_ulp_below_the_critical_field_is_refused_alike(tmp_path, capsys):
    # kappa_v is one ulp below hypot(kappa_f, kappa_m) while the radicand
    # kf^2 + (km - kv)(km + kv) is not positive: arbitrate used to exit 0 with a
    # winner at a continuum edge of 9e-16, and sweep to call the step
    # subcritical and then to count one bound state there and exit 2, while
    # zeromode refused it
    kf, km, kv = 6.523511964174448, 4.439337860852986, 7.890749583501552
    assert kv == math.nextafter(math.hypot(kf, km), 0.0)
    model = {"type": "coupled", "kappa_f": kf, "kappa_m": km, "kappa_v": kv,
             "profile": {"type": "tanh", "amplitude": 1.0}}
    errors = []
    for workflow in ("arbitrate", "zeromode"):
        doc = base_config(workflow=workflow, model=model,
                          grid={"half_length": 20.0, "n_points": 401})
        path = write_config(tmp_path, doc, name=f"{workflow}.json")
        assert main(["run", "--config", path, "--out", str(tmp_path / workflow)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "is not below the critical field" in errors[0]
    doc = base_config(workflow="sweep", model=model, sweep={"kappa_v_values": [0.0, kv]},
                      grid={"half_length": 20.0, "n_points": 401})
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == 0
    steps = json.loads((tmp_path / "sweep_report.json").read_text())["results"]["steps"]
    assert [step["subcritical"] for step in steps] == [True, False]
    assert steps[1]["bound_count"] == 0
    assert steps[1]["continuum_edge"] == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_cli_main_rejects_non_finite_tabulated_profile(tmp_path, capsys, bad):
    doc = base_config()
    doc["model"]["profile"] = {"type": "tabulated",
                               "nodes": [-20.0, -10.0, 0.0, 10.0, 20.0],
                               "samples": [-1.0, -1.0, 0.0, 1.0, bad]}
    path = write_config(tmp_path, doc)
    code = main(["run", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: bad tabulated profile: tabulation nodes and samples must be finite"
    ]


@pytest.mark.parametrize("workflow", ["spectrum", "zeromode"])
def test_cli_main_rejects_overflowing_profile(tmp_path, capsys, workflow):
    # slope * x overflows to inf at every node but x = 0
    doc = base_config(workflow=workflow, grid={"half_length": 20.0, "n_points": 201})
    doc["model"]["profile"] = {"type": "linear", "slope": 1e308}
    path = write_config(tmp_path, doc)
    code = main(["run", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: profile produced non-finite values on the grid"
    ]


def test_cli_main_rejects_grid_without_residual_nodes(tmp_path, capsys):
    # at N = 3 the residual's jump mask removes every node
    doc = base_config(
        workflow="zeromode",
        model={"type": "coupled", "kappa_f": 0.6, "kappa_m": 0.8, "kappa_v": 0.0,
               "profile": {"type": "tanh_power", "exponent": 3, "shift": 0.5}},
        grid={"half_length": 24.0, "n_points": 3},
    )
    path = write_config(tmp_path, doc)
    code = main(["run", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: psi vanishes on the interior nodes the residual measures; "
        "the grid may be too coarse"
    ]


def test_zeromode_step_workflow_csv(tmp_path):
    doc = base_config(
        workflow="zeromode",
        model={"type": "step", "f_plus": 3.0, "f_minus": 3.0,
               "m_plus": 4.0, "m_minus": 4.0},
        grid={"half_length": 5.0, "n_points": 8001},
    )
    code, _ = run(parse_config(doc), out_dir=str(tmp_path))
    assert code == 0
    with open(tmp_path / "wavefunction.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x", "re_psi1", "im_psi1", "re_psi2", "im_psi2",
                       "prob_density"]
    body = np.array(rows[1:], dtype=float)
    assert body.shape[0] == 8001
    h = body[1, 0] - body[0, 0]
    assert body[:, 5].sum() * h == pytest.approx(1.0, abs=1e-8)
    # density column is redundant with the components: verify consistency
    dens = body[:, 1] ** 2 + body[:, 2] ** 2 + body[:, 3] ** 2 + body[:, 4] ** 2
    assert np.allclose(dens, body[:, 5], atol=1e-15)


def test_quadrature_csv_has_a_real_upper_and_an_imaginary_lower_component(tmp_path):
    # the coupling matrix's eigenvector is (x, i*y) at every kappa_f: rounding
    # noise made the upper component imaginary at 15 of these 41 values
    for k in range(41):
        doc = base_config(
            workflow="zeromode",
            model={"type": "coupled", "kappa_f": 0.5 + 0.005 * k, "kappa_m": 0.8,
                   "kappa_v": 0.0, "profile": {"type": "tanh", "amplitude": 1.0}},
            grid={"half_length": 10.0, "n_points": 201},
        )
        out = tmp_path / str(k)
        run(parse_config(doc), out_dir=str(out))
        with open(out / "wavefunction.csv") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 201
        assert all(row[2] == row[3] == "0" for row in rows), doc["model"]


def test_quadrature_spinor_of_a_subnormal_coupling_keeps_its_form(tmp_path):
    # sigma = -1 took its sign from x = 5e-324 before x / length rounded to 0,
    # which wrote chi = (0, -i) and a negative im_psi2 column
    doc = base_config(
        workflow="zeromode",
        model={"type": "coupled", "kappa_f": 1.0, "kappa_m": 5e-324, "kappa_v": 0.0,
               "profile": {"type": "tanh", "amplitude": -1.0}},
        grid={"half_length": 20.0, "n_points": 401},
    )
    _, report_path = run(parse_config(doc), out_dir=str(tmp_path))
    with open(report_path) as handle:
        meta = json.load(handle)["results"]["metadata"]
    assert meta["sigma"] == -1
    assert meta["chi"] == [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 1.0}]
    with open(tmp_path / "wavefunction.csv") as handle:
        rows = list(csv.reader(handle))[1:]
    assert all(row[1] == row[2] == row[3] == "0" for row in rows)
    assert all(float(row[4]) > 0 for row in rows)


def reference_wavefunction_csv(path, psi):
    """The csv.writer loop that write_wavefunction_csv must match byte for byte."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "re_psi1", "im_psi1", "re_psi2", "im_psi2",
                         "prob_density"])
        dens = psi.density()
        for j, x in enumerate(psi.grid.nodes):
            writer.writerow([
                f"{x:.17g}",
                f"{psi.upper[j].real:.17g}", f"{psi.upper[j].imag:.17g}",
                f"{psi.lower[j].real:.17g}", f"{psi.lower[j].imag:.17g}",
                f"{dens[j]:.17g}",
            ])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the largest odd grid the writer formats in one process and the smallest
# it splits with a forked child
BELOW_SPLIT, AT_SPLIT = (CSV_SPLIT_ROWS | 1) - 2, CSV_SPLIT_ROWS | 1


def quadrature_mode(n_points):
    model = CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(3, 0.5))
    return zero_mode_quadrature(model, Grid(24.0, n_points)).psi


def assert_matches_reference(tmp_path, name, psi):
    write_wavefunction_csv(tmp_path / f"{name}.csv", psi)
    assert_no_child_left()
    reference_wavefunction_csv(tmp_path / f"{name}_ref.csv", psi)
    got = (tmp_path / f"{name}.csv").read_bytes()
    assert got == (tmp_path / f"{name}_ref.csv").read_bytes(), name
    assert got.count(b"\r\n") == psi.grid.n_points + 1, name


@pytest.mark.parametrize("n_points", [3, 63, 65, 129, 801])
def test_wavefunction_csv_matches_csv_writer(tmp_path, n_points):
    # the grids end inside the first 64-row block and just past one or two
    # blocks; a step mode has exact zeros (imaginary upper, real lower
    # component), its conjugated, negated copy turns them into signed zeros
    # "-0", and a quadrature mode has non-step values with tails near 1e-15
    psi = step_match(StepMatchProblem(3.0, 3.0, 4.0, 4.0), Grid(5.0, n_points)).psi
    fields = {"step": psi,
              "mirrored": SpinorField(psi.grid, np.conj(psi.upper), -psi.lower)}
    if n_points > 3:   # a 3-node grid leaves no interior for its residual
        fields["quadrature"] = quadrature_mode(n_points)
    for name, field in fields.items():
        assert_matches_reference(tmp_path, name, field)
    assert b",-0,-0," in (tmp_path / "mirrored.csv").read_bytes()


def half_zero_fields(psi):
    """Spinors whose columns are all +0.0 in one half of the split only, or
    mix +0.0 with -0.0 in the child's half."""
    n = psi.grid.n_points
    child = np.arange(n) >= n // 2
    re1, im2 = psi.upper.real, psi.lower.imag
    fields = {}
    # im_psi1 zero in the parent's half, re_psi2 zero in the child's
    upper, lower = np.empty(n, complex), np.empty(n, complex)
    upper.real, upper.imag = re1, np.where(child, 0.5 * re1, 0.0)
    lower.real, lower.imag = np.where(child, 0.0, 0.25 * im2), im2
    fields["half-zero"] = SpinorField(psi.grid, upper, lower)
    # im_psi1 +0.0 everywhere but for some -0.0 in the child's half, re_psi2
    # but for its last row
    upper, lower = np.zeros(n, complex), np.zeros(n, complex)
    upper.real, lower.imag = re1, im2
    upper.imag[n // 2 + 7::97] = -0.0
    lower.real[-1] = -0.0
    fields["signed-zero"] = SpinorField(psi.grid, upper, lower)
    return fields


@pytest.mark.parametrize("n_points", [BELOW_SPLIT, AT_SPLIT, 24001])
def test_split_wavefunction_csv_matches_csv_writer(tmp_path, n_points):
    # one process below CSV_SPLIT_ROWS, a forked child for the second half
    # from there on; the mirrored step mode puts "-0" in the child's half;
    # columns that are +0.0 on every row of one half only, or mix +0.0 and
    # -0.0 in the child's half, are formatted per half
    fields = {"quadrature": quadrature_mode(n_points)}
    if n_points == AT_SPLIT:
        psi = step_match(StepMatchProblem(3.0, 3.0, 4.0, 4.0), Grid(5.0, n_points)).psi
        fields["mirrored"] = SpinorField(psi.grid, np.conj(psi.upper), -psi.lower)
        fields.update(half_zero_fields(fields["quadrature"]))
    for name, field in fields.items():
        assert_matches_reference(tmp_path, name, field)
    if n_points == AT_SPLIT:
        text = (tmp_path / "signed-zero.csv").read_bytes().split(b"\r\n")
        half = len(text) // 2
        assert all(b",-0," not in line for line in text[:half])
        assert any(b",-0," in line for line in text[half:])


def test_wavefunction_csv_replaces_a_longer_or_shorter_file(tmp_path):
    # 24001 rows (forked) over a 201-row file, then 201 rows (one process)
    # over the 24001-row file
    path = tmp_path / "wavefunction.csv"
    for n_points in (201, 24001, 201):
        psi = quadrature_mode(n_points)
        write_wavefunction_csv(path, psi)
        assert_no_child_left()
        reference_wavefunction_csv(tmp_path / "reference.csv", psi)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes(), n_points


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_wavefunction_csv_without_a_child_process(tmp_path, monkeypatch, call):
    # EAGAIN or ENOMEM under a process or memory limit: this process
    # formats every row itself
    def refuse(*args):
        raise OSError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, call, refuse)
    assert_matches_reference(tmp_path, call, quadrature_mode(AT_SPLIT))


def test_wavefunction_csv_fork_warning_is_not_an_error(tmp_path, monkeypatch):
    # Python >= 3.12 warns after a fork in a process with threads, and the
    # test settings turn a DeprecationWarning into an error
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid
    monkeypatch.setattr(os, "fork", warning_fork)
    assert_matches_reference(tmp_path, "warned", quadrature_mode(AT_SPLIT))


@pytest.mark.parametrize("failure", ["format", "write", "killed"])
def test_wavefunction_csv_survives_a_failing_child(tmp_path, monkeypatch, failure):
    # the child raises before it sends anything, sends part of its half and
    # raises, or sends part of its half and is killed; the file must still
    # be whole, never short
    parent = os.getpid()
    format_blocks, write = cli._csv_blocks, os.write

    def formatter(*args):
        if os.getpid() != parent:
            raise RuntimeError("formatter failed in the child")
        return format_blocks(*args)

    def partial_write(fd, data):
        if os.getpid() == parent:
            return write(fd, data)
        write(fd, data[:5000])
        if failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise OSError(28, "No space left on device")

    if failure == "format":
        monkeypatch.setattr(cli, "_csv_blocks", formatter)
    else:
        monkeypatch.setattr(os, "write", partial_write)
    assert_matches_reference(tmp_path, failure, quadrature_mode(AT_SPLIT))


CHILD_PROBE = """\
import signal, sys
sys.path.insert(0, {src!r})
from diracosc.cli import write_wavefunction_csv
from diracosc.model import CoupledModel, Grid, TanhPowerProfile
from diracosc.zeromodes import zero_mode_quadrature
if {ignore_sigchld}:
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)   # children reaped unseen
psi = zero_mode_quadrature(CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(3, 0.5)),
                           Grid(24.0, 24001)).psi
print("marker")             # held in the buffer of a piped stdout at the fork
write_wavefunction_csv({path!r}, psi)
"""


@pytest.mark.parametrize("ignore_sigchld", [False, True])
def test_wavefunction_csv_child_never_returns_to_the_caller(tmp_path, ignore_sigchld):
    # a child that returned, or flushed what it inherited on exit, would
    # print the marker a second time; with SIGCHLD ignored its exit status
    # is lost, and this process formats the second half again
    path = tmp_path / "probe.csv"
    code = CHILD_PROBE.format(src=str(Path(cli.__file__).parents[1]), path=str(path),
                              ignore_sigchld=ignore_sigchld)
    # an unbuffered stdout would print the marker before the fork
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env=env)
    assert proc.stdout == "marker\n"
    reference_wavefunction_csv(tmp_path / "ref.csv", quadrature_mode(24001))
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_wavefunction_csv_memory_is_bounded(tmp_path):
    # formatting the whole file as one string peaks near 8x the float table
    model = CoupledModel(0.6, 0.8, 0.0, TanhPowerProfile(3, 0.5))
    psi = zero_mode_quadrature(model, Grid(24.0, 24001)).psi
    table_bytes = psi.grid.n_points * 6 * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        write_wavefunction_csv(tmp_path / "wavefunction.csv", psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table_bytes


def test_zeromode_step_no_solution(tmp_path):
    doc = base_config(
        workflow="zeromode",
        model={"type": "step", "f_plus": 1.0, "f_minus": 2.0,
               "m_plus": 1.0, "m_minus": 1.0},
        grid={"half_length": 5.0, "n_points": 801},
    )
    code, report_path = run(parse_config(doc), out_dir=str(tmp_path))
    assert code == 2
    report = json.loads((tmp_path / "zeromode_report.json").read_text())
    assert report["results"]["matched"] is False


def test_zeromode_quadrature_workflow(tmp_path):
    doc = base_config(
        workflow="zeromode",
        model={"type": "coupled", "kappa_f": 0.6, "kappa_m": 0.8, "kappa_v": 0.0,
               "profile": {"type": "tanh_power", "exponent": 3, "shift": 0.5}},
        grid={"half_length": 24.0, "n_points": 24001},
    )
    code, _ = run(parse_config(doc), out_dir=str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "zeromode_report.json").read_text())
    assert report["results"]["mechanism"] == "quadrature"
    assert report["results"]["normalizable"] is True


@pytest.mark.parametrize("model, grid", [
    ({"type": "coupled", "kappa_f": 0.6, "kappa_m": 0.8, "kappa_v": 0.0,
      "profile": {"type": "tanh_power", "exponent": 3, "shift": 0.5}},
     {"half_length": 24.0, "n_points": 24001}),
    (STEP_MODEL, {"half_length": 5.0, "n_points": 8001}),
], ids=["readme-quadrature", "step"])
def test_zeromode_residuals_build_no_band(tmp_path, monkeypatch, model, grid):
    # the residual diagnostics apply their stencil to the spinor directly
    def no_band(*args):
        raise AssertionError("band built or applied for a zero-mode residual")

    monkeypatch.setattr(kernels, "assemble_wilson", no_band)
    monkeypatch.setattr(kernels, "band_matvec", no_band)
    doc = base_config(workflow="zeromode", model=model, grid=grid)
    code, _ = run(parse_config(doc), out_dir=str(tmp_path))
    assert code == 0


def test_zeromode_transformed_reports_construction_failure(tmp_path):
    doc = base_config(
        workflow="zeromode",
        model={"type": "transformed_potential", "lambda": 3.0, "n": 1},
        grid={"half_length": 20.0, "n_points": 2001},
    )
    code, _ = run(parse_config(doc), out_dir=str(tmp_path))
    assert code == 2
    report = json.loads((tmp_path / "zeromode_report.json").read_text())
    assert "construction_failed" in report["results"]
    assert report["results"]["spectrum_head"][0] == pytest.approx(3.75, abs=5e-3)


def test_sweep_workflow(tmp_path):
    doc = base_config(
        workflow="sweep",
        model={"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
               "profile": {"type": "tanh", "amplitude": 1.0, "shift": 0.0}},
        grid={"half_length": 20.0, "n_points": 801},
        sweep={"kappa_v_values": [0.0, 4.0, 5.0, 5.5]},
    )
    code, _ = run(parse_config(doc), out_dir=str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    counts = [row["bound_count"] for row in report["results"]["steps"]]
    assert counts == sorted(counts, reverse=True)
    assert counts[-2:] == [0, 0]
    assert report["results"]["critical_field"] == pytest.approx(5.0)


@pytest.mark.parametrize("workflow", ["spectrum", "arbitrate", "sweep"])
def test_census_window_is_the_continuum_edge(tmp_path, monkeypatch, workflow):
    # one eigensolve per census step, in the window +-(its continuum edge);
    # the AC-5 sweep values kappa_v = 5 and 5.5 close the gap (edge 0)
    windows = []

    def spy(matrix, k=None, window=None):
        windows.append(window)
        return eigensolve(matrix, k=k, window=window)

    monkeypatch.setattr(numerics, "eigensolve", spy)
    ac5_model = {"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
                 "profile": {"type": "tanh", "amplitude": 1.0, "shift": 0.0}}
    overrides = {
        "spectrum": {"model": ac5_model},
        "arbitrate": {"model": {"type": "coupled", "kappa_f": 1.0, "kappa_m": 1.0,
                                "kappa_v": 1.0,
                                "profile": {"type": "tanh", "amplitude": 2.0,
                                            "shift": 0.0}}},
        "sweep": {"model": ac5_model,
                  "sweep": {"kappa_v_values": [0.0, 2.0, 4.0, 4.9, 5.0, 5.5]}},
    }[workflow]
    doc = base_config(workflow=workflow, grid={"half_length": 20.0, "n_points": 201},
                      wilson_r=1.0, **overrides)
    code, report_path = run(parse_config(doc), out_dir=str(tmp_path))
    results = json.loads(Path(report_path).read_text())["results"]
    if workflow != "sweep":
        edge = results["continuum_edge"]
        assert edge > 0
        assert windows == [(-edge, edge)]
        return
    assert code == 0
    steps = results["steps"]
    edges = [row["continuum_edge"] for row in steps]
    assert edges[-2:] == [0.0, 0.0]
    assert [row["bound_count"] for row in steps][-2:] == [0, 0]
    assert windows == [(-edge, edge) for edge in edges if edge > 0]
    assert len(windows) == 4


def test_readme_model_census_at_n8001():
    # the README spectrum model on a 4x finer grid than the README config:
    # seven bound states in the four closed-form E^2 levels, each nonzero one
    # nearer its level than at N = 2001; the E^2 = 0 level is exact up to
    # rounding at both sizes, so it is held to a floor instead
    model = CoupledModel(3.0, 4.0, 0.0, TanhProfile(0.8))
    table = analytic.rosen_morse2_levels(math.hypot(3.0, 4.0) * 0.8, 0.0)
    levels = np.array(sorted({rec.e_squared for rec in table.entries}))
    assert levels == pytest.approx([0.0, 7.0, 12.0, 15.0])

    def census(n_points):
        values = bound_census(model, Grid(20.0, n_points), [], 1e-3).values
        e2 = values**2
        nearest = np.argmin(np.abs(e2[:, None] - levels), axis=1)
        worst = [np.max(np.abs(e2[nearest == k] - levels[k])) if np.any(nearest == k)
                 else np.inf for k in range(len(levels))]
        return len(values), np.bincount(nearest, minlength=len(levels)), worst

    count, multiplicity, fine = census(8001)
    assert count == 7
    assert multiplicity.tolist() == [1, 2, 2, 2]
    _, _, coarse = census(2001)
    assert fine[0] < 1e-12 and coarse[0] < 1e-12, (fine, coarse)
    assert all(f < c for f, c in zip(fine[1:], coarse[1:])), (fine, coarse)


def test_ac5_sweep_counts_the_closed_form_levels(tmp_path):
    # the AC-5 sweep: at each subcritical field the count is the number of
    # states in the closed-form level table (Rosen-Morse II at kappa_v = 0,
    # the rederived field levels after it), 9, 5, 1, 1;
    # the Wilson operator at r = 1 counted 2 at kappa_v = 4, one just under
    # the edge
    fields = [0.0, 2.0, 4.0, 4.9, 5.0, 5.5]
    doc = base_config(
        workflow="sweep",
        model={"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
               "profile": {"type": "tanh", "amplitude": 1.0, "shift": 0.0}},
        grid={"half_length": 20.0, "n_points": 1201},
        wilson_r=1.0,
        sweep={"kappa_v_values": fields},
    )
    config = parse_config(doc)
    code, report_path = run(config, out_dir=str(tmp_path))
    assert code == 0
    with open(report_path) as handle:
        counts = [row["bound_count"] for row in json.load(handle)["results"]["steps"]]
    expected = [len(closed_form_tables(replace(config.model, kappa_v=kv),
                                       config.grid)[-1].entries)
                if kv < 5.0 else 0 for kv in fields]
    assert expected == [9, 5, 1, 1, 0, 0]
    assert counts == expected


def test_sweep_step_a_few_ulps_below_the_critical_field_counts_nothing(tmp_path):
    # the couplings of the critical-sweep benchmark at seed 5: the critical
    # field hypot(kappa_f, kappa_m) is 5.0, yet the radicand at kappa_v 5 is
    # +3.6e-15, so the census solves there with an edge near 1e-15; the
    # chain's exact E = 0 eigenvalue then has tunnelling exponent
    # sqrt(radicand) * integral of |W|, about 1e-6, far below TUNNEL_MIN, so
    # the step counts 0 and the sweep's own check passes
    kf, km, amplitude = 2.9460388874008285, 4.039907780373469, 0.9955376680367206
    assert math.hypot(kf, km) == 5.0
    radicand = susy.subcritical_radicand(kf, km, 5.0)
    assert 0.0 < radicand < 1e-14
    assert math.sqrt(radicand) * amplitude * math.log(math.cosh(20.0)) < numerics.TUNNEL_MIN
    fields = [0.0, 2.0, 4.0, 4.9, 5.0, 5.5]
    doc = base_config(
        workflow="sweep",
        model={"type": "coupled", "kappa_f": kf, "kappa_m": km, "kappa_v": 0.0,
               "profile": {"type": "tanh", "amplitude": amplitude, "shift": 0.0}},
        grid={"half_length": 20.0, "n_points": 1201}, wilson_r=1.0,
        sweep={"kappa_v_values": fields})
    config = parse_config(doc)
    code, report_path = run(config, out_dir=str(tmp_path))
    with open(report_path) as handle:
        steps = json.load(handle)["results"]["steps"]
    assert steps[4]["subcritical"] and steps[4]["continuum_edge"] > 0.0
    expected = [len(closed_form_tables(replace(config.model, kappa_v=kv),
                                       config.grid)[-1].entries)
                if kv < 5.0 else 0 for kv in fields]
    assert expected == [9, 5, 1, 1, 0, 0]
    assert [row["bound_count"] for row in steps] == expected
    assert code == 0


def ac5_census(kappa_v, amplitude=1.0, n_points=1201):
    model = CoupledModel(3.0, 4.0, kappa_v, TanhProfile(amplitude))
    return model, bound_census(model, Grid(20.0, n_points), [], 1e-3)


def test_census_near_the_critical_field_counts_no_unresolved_state():
    # AC-5 model at kappa_v 4.9999: the field table lists its E = 0 level,
    # but that level's decay length 1/sqrt(25 - kappa_v^2) = 32 exceeds the
    # box, and its exponent sqrt(25 - kappa_v^2) * ln cosh 20 = 0.61 is
    # below TUNNEL_MIN, so the census holds the chain's E = 0 eigenvalue in
    # its window and counts nothing
    model, census = ac5_census(4.9999)
    assert math.sqrt(25.0 - 4.9999**2) * math.log(math.cosh(20.0)) < numerics.TUNNEL_MIN
    (table,) = closed_form_tables(model, Grid(20.0, 1201))[-1:]
    assert [rec.e_squared for rec in table.entries] == [0.0]
    matrix = numerics.build_staggered(model.general(), Grid(20.0, 1201))
    assert len(eigensolve(matrix, window=(-census.edge, census.edge)).values) == 1
    assert len(census.values) == 0


def test_census_keeps_a_field_level_with_a_wall_exponent_near_3():
    # at amplitude 0.98 and kappa_v 2 the rederived field table lists 5
    # states; its top level's wall exponent is about 2.9, so TUNNEL_MIN = 2
    # counts all 5 where a bound of 4 would count 3
    model, census = ac5_census(2.0, amplitude=0.98)
    _, rederived = analytic.rm2_with_field_levels(0.98, 3.0, 4.0, 2.0)
    assert len(rederived.entries) == 5
    assert len(census.values) == 5
    grid = Grid(20.0, 1201)
    band = numerics.build_staggered(model.general(), grid).storage
    exponents = numerics._tunnelling_exponents(band[0], band[1, :-1], grid.spacing,
                                               census.values)
    assert numerics.TUNNEL_MIN <= exponents.min() < 4.0
    e2 = np.sort(census.values**2)
    assert e2 == pytest.approx(sorted(rec.e_squared for rec in rederived.entries),
                               abs=5e-3)


def test_census_finds_every_dirac_oscillator_level_its_exponents_resolve():
    # linear slope 0.1 at kappa 5 is the Dirac oscillator f^2 + m^2 = x^2/4,
    # whose levels are E^2 = n (n = 0 once, every other n as a +-E pair).
    # Level n's exponent to the wall at L = 20 is, in closed form,
    # integral from 2 sqrt(n) to 20 of sqrt(x^2/4 - n) dx; it is at least
    # TUNNEL_MIN up to n = 90 (2.15) and below it from n = 91 (1.83). Every
    # kept level lies within its second-order grid error, below (n h)^2 / 16,
    # and halving h cuts that error by at least 3
    def exponent(n, half_length=20.0):
        a = 2.0 * math.sqrt(n)
        root = math.sqrt(half_length**2 - a * a)
        return 0.25 * (half_length * root - a * a * math.log((half_length + root) / a))

    top = max(n for n in range(1, 100) if exponent(n) >= numerics.TUNNEL_MIN)
    assert top == 90 and exponent(91) < numerics.TUNNEL_MIN
    model = CoupledModel(3.0, 4.0, 0.0, LinearProfile(0.1))
    errors = {}
    for n_points in (4001, 8001):
        grid = Grid(20.0, n_points)
        e2 = np.sort(bound_census(model, grid, [], 1e-3).values ** 2)
        n = np.rint(e2)
        assert n.tolist() == [0.0] + [float(k) for k in range(1, top + 1) for _ in "+-"]
        errors[n_points] = np.abs(e2 - n)
        assert np.all(errors[n_points] <= (n * grid.spacing) ** 2 / 16.0 + 1e-12)
    assert np.all(errors[8001][1:] <= errors[4001][1:] / 3.0)


def test_mass_kink_keeps_one_zero_energy_state():
    # kappa_f = 0: with f = v = 0 the chain's two wall states sit at E = 0
    # exactly, each a trial state of quotient 0, next to the zero mode; the
    # wall rule drops two of the three E = 0 values, so the census holds the
    # Rosen-Morse II table of A = 4: E^2 = 0 once, 7, 12 and 15 twice
    model = CoupledModel(0.0, 4.0, 0.0, TanhProfile(1.0))
    grid = Grid(20.0, 2001)
    band = numerics.build_staggered(model.general(), grid).storage
    d, e = band[0], band[1, :-1]
    walls = [numerics._wall_state(d, e), numerics._wall_state(d[::-1], e[::-1])]
    assert [quotient for quotient, _ in walls] == [0.0, 0.0]
    census = bound_census(model, grid, closed_form_tables(model, grid), 5e-3)
    assert np.sum(np.abs(census.values) < 1e-12) == 1
    (table,) = closed_form_tables(model, grid)
    assert len(census.values) == len(table.entries) == 7
    (_, _, verdict), = census.matches
    assert verdict["agrees_within_tolerance"]


def test_negative_tanh_has_no_decaying_wall_state():
    # W = -0.8 tanh puts m > 0 at the left end and m < 0 at the right, so
    # the u = 0 wall state grows into the box at both ends,
    # |w_j+1 / w_j| = (1 + h|m|/2) / (1 - h|m|/2) > 1, and no value is
    # dropped: the census keeps the 7 states of Rosen-Morse II at A = 4
    model = CoupledModel(3.0, 4.0, 0.0, TanhProfile(-0.8))
    grid = Grid(20.0, 1201)
    band = numerics.build_staggered(model.general(), grid).storage
    d, e = band[0], band[1, :-1]
    assert numerics._wall_state(d, e) is None
    assert numerics._wall_state(d[::-1], e[::-1]) is None
    census = bound_census(model, grid, closed_form_tables(model, grid), 5e-2)
    (table,) = closed_form_tables(model, grid)
    assert len(census.values) == len(table.entries) == 7


@pytest.mark.parametrize("workflow", ["spectrum", "sweep", "arbitrate"])
def test_census_ignores_wilson_r(tmp_path, monkeypatch, workflow):
    # every census solves the tridiagonal staggered chain, so no wilson_r
    # builds a dense matrix, and the reports differ only by the warning
    def no_dense(band):
        raise AssertionError("dense matrix built for a census")

    monkeypatch.setattr(kernels, "band_dense", no_dense)
    kappa_v = 1.0 if workflow == "arbitrate" else 0.0
    model = {"type": "coupled", "kappa_f": 1.0, "kappa_m": 1.0, "kappa_v": kappa_v,
             "profile": {"type": "tanh", "amplitude": 2.0, "shift": 0.0}}
    reports = []
    for wilson_r in (0.25, 1.0, None):
        doc = base_config(workflow=workflow, model=model, wilson_r=wilson_r,
                          grid={"half_length": 20.0, "n_points": 401},
                          sweep={"kappa_v_values": [0.0, 1.0, 2.0]})
        if wilson_r is None:
            del doc["wilson_r"]
        _, report_path = run(parse_config(doc), out_dir=str(tmp_path / str(wilson_r)))
        with open(report_path) as handle:
            reports.append(json.load(handle))
    warnings = [report["results"].pop("warnings") for report in reports]
    assert warnings[0] == [
        "wilson_r = 0.25 is ignored: the spectrum, sweep and arbitrate workflows "
        "solve the staggered operator, which has no regulator"]
    assert len(warnings[1]) == 1 and warnings[2] == []
    for report in reports[1:]:
        assert report["results"] == reports[0]["results"]
        assert report["checks"] == reports[0]["checks"]


@pytest.mark.parametrize("workflow", ["spectrum", "sweep"])
def test_grid_past_the_lattice_threshold_is_refused(tmp_path, capsys, workflow):
    # the README model has max|m| = 3.2 at the box ends, so h*max|m| is 2 at
    # N = 65; at N = 61 every eigenvalue of the staggered chain lies inside
    # the continuum edge, and the smallest odd N that runs is 67
    out = tmp_path / "out"
    doc = base_config(workflow=workflow, grid={"half_length": 20.0, "n_points": 61},
                      sweep={"kappa_v_values": [0.0, 2.0]}, output_dir=str(out))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == (
        "error: h*max|m| = 2.13333 is not below 2, so lattice states of the staggered "
        "operator fall inside the continuum edge; n_points >= 67 keeps it below 2\n")
    assert not out.exists()
    doc["grid"]["n_points"] = 71
    assert main(["run", "--config", write_config(tmp_path, doc)]) in (0, 2)
    assert (out / f"{workflow}_report.json").exists()


def test_non_saturating_edge_warning(tmp_path):
    # without wilson_r in the config, the only warning a census can give is
    # the edge one
    tanh_table = TabulatedProfile(np.linspace(-20.0, 20.0, 41),
                                  np.tanh(np.linspace(-20.0, 20.0, 41)))
    for profile in (TanhProfile(1.0), TanhPowerProfile(3), TanhSechProfile(1.0, 0.5),
                    StepProfile(1.0, 1.0), tanh_table, LinearProfile(0.0, 1.0)):
        model = CoupledModel(3.0, 4.0, 0.0, profile)
        assert config_warnings(model, None) == [], profile

    linear = {"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
              "profile": {"type": "linear", "slope": 0.05}}
    reports = {}
    for workflow, extra in (("spectrum", {}),
                            ("sweep", {"sweep": {"kappa_v_values": [0.0, 1.0, 2.0]}})):
        doc = base_config(workflow=workflow, model=linear,
                          grid={"half_length": 20.0, "n_points": 201}, **extra)
        del doc["wilson_r"]
        _, report_path = run(parse_config(doc), out_dir=str(tmp_path / workflow))
        with open(report_path) as handle:
            reports[workflow] = json.load(handle)["results"]["warnings"]
    (warning,) = reports["spectrum"]
    assert "linear profile (slope 0.05) does not saturate" in warning
    assert "grows with grid.half_length" in warning
    assert reports["sweep"] == [warning]


def test_arbitrate_workflow_decisive(tmp_path):
    doc = base_config(
        workflow="arbitrate",
        model={"type": "coupled", "kappa_f": 1.0, "kappa_m": 1.0, "kappa_v": 1.0,
               "profile": {"type": "tanh", "amplitude": 2.0, "shift": 0.0}},
        grid={"half_length": 20.0, "n_points": 1201},
        wilson_r=1.0,
        tolerances={"arbitrate": 5e-3},
    )
    code, _ = run(parse_config(doc), out_dir=str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "arbitrate_report.json").read_text())
    assert report["results"]["winner"] == "rm2_field_rederived"
    verdicts = report["results"]["verdicts"]
    assert verdicts["rm2_field_rederived"]["agrees_within_tolerance"]
    assert not verdicts["rm2_field_printed"]["agrees_within_tolerance"]


def test_spectrum_check_values_follow_from_its_table_report(tmp_path):
    # the README spectrum config: its Rosen-Morse II table lists 7 entries,
    # one at E^2 = 0 and two (sigma = +-1) at each of 7, 12 and 15, and the
    # README states that levels 12 and 15 come out 2.0e-3 low, beyond
    # match_e2 = 1e-3; so 4 entries and 2 numeric clusters stay unmatched
    table = analytic.rosen_morse2_levels(math.hypot(3.0, 4.0) * 0.8, 0.0)
    assert sorted(round(rec.e_squared) for rec in table.entries) == [0, 7, 7, 12, 12, 15, 15]
    missed = sorted((rec.n, rec.sigma) for rec in table.entries
                    if round(rec.e_squared) in (12, 15))
    doc = base_config(grid={"half_length": 20.0, "n_points": 2001},
                      tolerances={"match_e2": 1e-3})
    del doc["wilson_r"]
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    (table_report,) = report["results"]["analytic_tables"]
    records = table_report["levels"]
    assert sorted((r["n"], r["sigma"]) for r in records if not r["matched"]) == missed
    assert len(table_report["unmatched_numeric"]) == 2
    values = {check["name"]: check["value"] for check in report["checks"]}
    assert values == {
        "rosen_morse2_all_levels_matched": float(len(missed)),
        "rosen_morse2_no_unmatched_numeric": 2.0,
        "rosen_morse2_max_e2_deviation": max(r["abs_deviation"] for r in records
                                             if r["matched"]),
    }


def test_arbitrate_verdicts_follow_from_its_level_records(tmp_path):
    # the AC-5 model at kappa_v = 2: every verdict is what its own level
    # records and the report's clusters give; the printed table misses, so
    # both outcomes are covered
    doc = base_config(
        workflow="arbitrate",
        model={"type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 2.0,
               "profile": {"type": "tanh", "amplitude": 1.0, "shift": 0.0}},
        grid={"half_length": 20.0, "n_points": 1201})
    del doc["wilson_r"], doc["tolerances"]
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "arbitrate_report.json").read_text())["results"]
    clusters = results["bound_e_squared_clusters"]
    agreed = []
    for formula_id, verdict in results["verdicts"].items():
        records = results["levels"][formula_id]
        missed = sum(not r["matched"] for r in records)
        used = [sum(r["numeric_e2"] == val for r in records) for val, _count in clusters]
        spare = [[val, count - n] for (val, count), n in zip(clusters, used) if count > n]
        devs = [r["abs_deviation"] for r in records if math.isfinite(r["abs_deviation"])]
        assert verdict == {"unmatched_analytic": missed, "unmatched_numeric": spare,
                           "agrees_within_tolerance": not missed and not spare,
                           "max_deviation": max(devs, default=0.0)}, formula_id
        agreed.append(verdict["agrees_within_tolerance"])
    assert sorted(agreed) == [False, True]


def test_report_determinism(tmp_path):
    doc = base_config(grid={"half_length": 10.0, "n_points": 401})
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(parse_config(doc), out_dir=str(a))
    run(parse_config(doc), out_dir=str(b))
    ra = strip_timestamp((a / "spectrum_report.json").read_text())
    rb = strip_timestamp((b / "spectrum_report.json").read_text())
    assert ra == rb


def test_rerun_replaces_the_report_with_a_new_file(tmp_path):
    # the second run's report is a new file: a hard link to the first one
    # keeps the first run's bytes, and the two differ only in generated_at
    doc = base_config(grid={"half_length": 10.0, "n_points": 401})
    out = tmp_path / "out"
    _, report_path = run(parse_config(doc), out_dir=str(out))
    first = Path(report_path).read_bytes()
    os.link(report_path, tmp_path / "first.json")
    assert run(parse_config(doc), out_dir=str(out))[1] == report_path
    assert not os.path.samefile(tmp_path / "first.json", report_path)
    assert (tmp_path / "first.json").read_bytes() == first
    assert (strip_timestamp(Path(report_path).read_text())
            == strip_timestamp(first.decode()))


def test_recheck_reproduces_verdicts(tmp_path, capsys):
    doc = base_config(grid={"half_length": 10.0, "n_points": 401})
    path = write_config(tmp_path, doc)
    code = main(["run", "--config", path, "--out", str(tmp_path)])
    report_path = str(tmp_path / "spectrum_report.json")
    capsys.readouterr()
    code2 = main(["run", "--recheck", report_path])
    out = capsys.readouterr().out
    assert code2 == code
    assert "overall" in out
    # tamper with a stored verdict: recheck must notice
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    report["checks"][0]["passed"] = not report["checks"][0]["passed"]
    (tmp_path / "tampered.json").write_text(json.dumps(report))
    code3 = main(["run", "--recheck", str(tmp_path / "tampered.json")])
    assert code3 == 1


def test_main_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1
    path2 = write_config(tmp_path, base_config(workflow="nope"), "c2.json")
    assert main(["run", "--config", str(path2)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("model, message", [
    ({"flip_f": "false"}, "model.flip_f must be true or false, got 'false'"),
    ({"flip_m": 0}, "model.flip_m must be true or false, got 0"),
], ids=["flip_f", "flip_m"])
def test_zeromode_step_flags_must_be_booleans(tmp_path, capsys, model, message):
    # bool("false") is True: a string flag would flip the profile
    step = {"type": "step", "f_plus": 3.0, "f_minus": 3.0,
            "m_plus": 4.0, "m_minus": 4.0}
    doc = base_config(workflow="zeromode", model={**step, **model},
                      grid={"half_length": 5.0, "n_points": 201},
                      output_dir=str(tmp_path))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "wavefunction.csv").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"sweep": 5}, "sweep must be an object"),
    ({"sweep": {"kappa_v_values": 3.0}},
     "sweep.kappa_v_values must be a non-empty list of numbers"),
    ({"sweep": {"kappa_v_values": ["a"]}},
     "sweep.kappa_v_values must be a non-empty list of numbers"),
    ({"sweep": {"kappa_v_values": [0.0, True]}},
     "sweep.kappa_v_values must be a non-empty list of numbers"),
    ({"sweep": {"kappa_v_values": []}},
     "sweep.kappa_v_values must be a non-empty list of numbers"),
    ({"sweep": {"steps": 2.5}}, "sweep.steps must be an integer, got 2.5"),
    ({"sweep": {"steps": "7"}}, "sweep.steps must be an integer, got '7'"),
    ({"sweep": {"steps": True}}, "sweep.steps must be an integer, got True"),
    ({"tolerances": [1]}, "tolerances must be an object"),
], ids=["sweep-number", "values-number", "values-string", "values-bool",
        "values-empty", "steps-float", "steps-string", "steps-bool", "tolerances-list"])
def test_sweep_and_tolerance_blocks_must_be_well_formed(tmp_path, capsys, overrides,
                                                        message):
    # unchecked, each of these ends in a traceback, runs a sweep that checks
    # nothing, or runs fewer steps than asked for
    doc = base_config(workflow="sweep", grid={"half_length": 20.0, "n_points": 201},
                      output_dir=str(tmp_path))
    doc.update(overrides)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep_report.json").exists()


@pytest.mark.parametrize("n", [1.9, True, "1"])
def test_zeromode_transformed_level_must_be_an_integer(tmp_path, capsys, n):
    # int(1.9) would silently run level 1
    doc = base_config(workflow="zeromode",
                      model={"type": "transformed_potential", "lambda": 3.0, "n": n},
                      grid={"half_length": 20.0, "n_points": 201},
                      output_dir=str(tmp_path))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: model.n must be an integer, got {n!r}\n"


def test_overlong_json_integer_is_an_input_error(tmp_path, capsys):
    # json.load raises a ValueError, not a JSONDecodeError, for an integer
    # longer than Python converts (4300 digits by default); it ended both
    # paths in a traceback
    out = tmp_path / "out"
    text = json.dumps(base_config(output_dir=str(out)))
    path = tmp_path / "long.json"
    path.write_text(text.replace('"kappa_f": 3.0', '"kappa_f": 1' + "0" * 5000))
    for args in (["--config", str(path)], ["--recheck", str(path)]):
        assert main(["run", *args]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: Exceeds the limit (4300 digits)")
    assert not out.exists()


def test_recheck_bad_report_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad_report.json"
    bad.write_text(json.dumps({"schema": 99}))
    assert main(["run", "--recheck", str(bad)]) == 1


@pytest.mark.parametrize("broken, message", [
    ({"op": None}, "op must be 'le' or 'ge', got None"),
    ({"op": "lt"}, "op must be 'le' or 'ge', got 'lt'"),
    ({"value": "0.1"}, "value and tolerance must be numbers"),
    ({"value": None}, "value and tolerance must be numbers"),
    ({"tolerance": True}, "value and tolerance must be numbers"),
    ({"value": 10**400}, "value and tolerance must be numbers"),   # was OverflowError
    ({"value": math.nan}, "value and tolerance must be numbers"),
    ({"tolerance": math.inf}, "value and tolerance must be numbers"),
])
def test_recheck_rejects_malformed_check(tmp_path, capsys, broken, message):
    # a missing key, an unknown op or a non-number is one error line, not a
    # traceback, and an unknown op is never read as another one
    check = {"name": "c", "value": 1.0, "tolerance": 0.5, "op": "ge", "passed": True}
    check.update(broken)
    check = {key: val for key, val in check.items() if val is not None}
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema": 1, "checks": [check]}))
    assert main(["run", "--recheck", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: check 'c': {message}\n"


@pytest.mark.parametrize("doc, message", [
    ([], "report schema must be 1"),
    ({"schema": 1, "checks": [1.0]}, "each check must be an object"),
    ({"schema": 1, "checks": 5}, "report checks must be a non-empty list"),
    ({"schema": 1}, "report checks must be a non-empty list"),
    ({"schema": 1, "checks": []}, "report checks must be a non-empty list"),
    ({"schema": True, "checks": [{"name": "c", "value": 1.0, "tolerance": 0.5,
                                  "op": "ge", "passed": True}]},
     "report schema must be 1"),   # True == 1 holds; this passed with exit 0
])
def test_recheck_rejects_malformed_report(tmp_path, capsys, doc, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--recheck", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    [],
    ["--config", "config.json", "--recheck", "report.json"],
    ["--config", "config.json", "--bogus"],
    ["--recheck", "report.json", "--out", "outdir"],
])
def test_usage_errors_exit_1(capsys, args):
    # exit code 2 means a tolerance failure; a usage error is an input error
    with pytest.raises(SystemExit) as info:
        main(["run", *args])
    assert info.value.code == 1
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: diracosc")
    assert error.startswith("diracosc") and ": error: " in error


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--help"])
    assert info.value.code == 0
    assert "--recheck REPORT" in capsys.readouterr().out


def test_report_environment_stamp(tmp_path):
    doc = base_config(grid={"half_length": 10.0, "n_points": 401})
    _, report_path = run(parse_config(doc), out_dir=str(tmp_path))
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["tool"]["name"] == "diracosc"
    assert report["tool"]["version"]
    assert report["config"]["grid"]["n_points"] == 401
    assert "generated_at" in report
