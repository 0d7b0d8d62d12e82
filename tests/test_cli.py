"""Config ingestion, workflow dispatch, report determinism and recheck."""

import csv
import json

import numpy as np
import pytest

from diracosc.cli import (
    main,
    parse_config,
    profile_from_dict,
    run,
    write_wavefunction_csv,
)
from diracosc.errors import ConfigError
from diracosc.model import Grid, SpinorField, TanhProfile
from diracosc.zeromodes import StepMatchProblem, step_match


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


def test_parse_config_validation():
    assert parse_config(base_config()).workflow == "spectrum"
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
    err = capsys.readouterr().err
    assert "critical" in err and "5" in err


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


def test_wavefunction_csv_matches_csv_writer(tmp_path):
    # a step mode has exact zeros (imaginary upper, real lower component);
    # its conjugated, negated copy turns them into signed zeros "-0"
    psi = step_match(StepMatchProblem(3.0, 3.0, 4.0, 4.0), Grid(5.0, 801)).psi
    mirrored = SpinorField(psi.grid, np.conj(psi.upper), -psi.lower)
    for name, field in (("step", psi), ("mirrored", mirrored)):
        write_wavefunction_csv(tmp_path / f"{name}.csv", field)
        reference_wavefunction_csv(tmp_path / f"{name}_ref.csv", field)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes(), name
    assert b",-0,-0," in got


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


def test_report_determinism(tmp_path):
    doc = base_config(grid={"half_length": 10.0, "n_points": 401})
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(parse_config(doc), out_dir=str(a))
    run(parse_config(doc), out_dir=str(b))
    ra = strip_timestamp((a / "spectrum_report.json").read_text())
    rb = strip_timestamp((b / "spectrum_report.json").read_text())
    assert ra == rb


def test_recheck_reproduces_verdicts(tmp_path, capsys):
    doc = base_config(grid={"half_length": 10.0, "n_points": 401})
    path = write_config(tmp_path, doc)
    code = main(["run", "--config", path, "--out", str(tmp_path)])
    report_path = str(tmp_path / "spectrum_report.json")
    capsys.readouterr()
    code2 = main(["run", "--config", path, "--recheck", report_path])
    out = capsys.readouterr().out
    assert code2 == code
    assert "overall" in out
    # tamper with a stored verdict: recheck must notice
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    report["checks"][0]["passed"] = not report["checks"][0]["passed"]
    (tmp_path / "tampered.json").write_text(json.dumps(report))
    code3 = main(["run", "--config", path,
                  "--recheck", str(tmp_path / "tampered.json")])
    assert code3 == 1


def test_main_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1
    path2 = write_config(tmp_path, base_config(workflow="nope"), "c2.json")
    assert main(["run", "--config", str(path2)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def test_recheck_bad_report_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    bad = tmp_path / "bad_report.json"
    bad.write_text(json.dumps({"schema": 99}))
    assert main(["run", "--config", cfg, "--recheck", str(bad)]) == 1


def test_report_environment_stamp(tmp_path):
    doc = base_config(grid={"half_length": 10.0, "n_points": 401})
    _, report_path = run(parse_config(doc), out_dir=str(tmp_path))
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["tool"]["name"] == "diracosc"
    assert report["tool"]["version"]
    assert report["config"]["grid"]["n_points"] == 401
    assert "generated_at" in report
