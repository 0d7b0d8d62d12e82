"""The report comparison of tools/compare_reports.py."""

import importlib.util
import json
from pathlib import Path
import shutil

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("compare_reports",
                                              ROOT / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)


def test_same_tree_matches_and_an_edited_version_differs(tmp_path, capsys):
    config = tmp_path / "zeromode.json"
    config.write_text(json.dumps({
        "schema": 1, "workflow": "zeromode",
        "model": {"type": "coupled", "kappa_f": 0.6, "kappa_m": 0.8, "kappa_v": 0.0,
                  "profile": {"type": "tanh_power", "exponent": 3, "shift": 0.5}},
        "grid": {"half_length": 24.0, "n_points": 101}}))
    src = ROOT / "src"
    assert compare_reports.main([str(src), str(src), str(config)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    # the report and wavefunction.csv, rechecked alike
    assert line.endswith(", stderr same, files (2) identical")

    # the report names the tool version, so only the report differs
    edited = tmp_path / "edited"
    shutil.copytree(src / "diracosc", edited / "diracosc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = edited / "diracosc" / "__init__.py"
    init.write_text(init.read_text() + '__version__ += "+edited"\n')
    assert compare_reports.main([str(src), str(edited), str(config)]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith(", stderr same, files (2) differ: zeromode_report.json")
