"""Every import in the source and test trees is used, every public name of
the package is read outside the unit tests, the package root binds nothing
but its version, and scipy loads only when a run eigensolves."""

import ast
import json
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names a module imports but never loads (`import a.b` binds `a`)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_flags_only_unused_names():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_no_unused_imports():
    paths = [p for sub in ("src", "tests") for p in sorted((ROOT / sub).rglob("*.py"))]
    assert paths
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in paths for line, name in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def loaded_names(source):
    """Every name a module reads: loaded Names and attribute names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_loaded_name_scan_skips_definitions_and_imports():
    source = ("from m import a\nimport b\nc = 1\ndef d():\n    pass\n"
              "class E:\n    pass\nprint(b.f, E)\n")
    assert loaded_names(source) == {"print", "b", "f", "E"}


def public_names(source):
    """(line, name) of each top-level function, class and constant whose
    name has no leading underscore."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted((line, name) for line, name in found if not name.startswith("_"))


def test_public_name_scan_skips_private_and_nested_names():
    source = ("import os\nA = 1\n_b = 2\nC: int = 3\ndef d():\n    e = 4\n"
              "def _f():\n    pass\nclass G:\n    h = 5\nif A:\n    i = 6\n")
    assert public_names(source) == [(2, "A"), (4, "C"), (5, "d"), (9, "G")]


def test_every_public_name_is_read_outside_unit_tests():
    # a public name that only a unit test reads is API that nothing calls:
    # it moves into that test or goes
    modules = sorted((ROOT / "src" / "diracosc").glob("*.py"))
    readers = [*modules, ROOT / "tests" / "test_acceptance.py",
               ROOT / "tests" / "test_readme.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    assert modules and all(path.exists() for path in readers)
    read = set().union(*(loaded_names(path.read_text()) for path in readers))
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in modules
             for line, name in public_names(p.read_text()) if name not in read]
    assert not found, ("public names that no library module, acceptance or README "
                       "test or benchmark reads:\n" + "\n".join(found))


# run in a fresh interpreter: import the package, then print the names it
# binds beyond those every package module has, and the diracosc submodules and
# numpy modules loaded so far
ROOT_PROBE = """\
import json, sys
sys.path.insert(0, {src!r})
import diracosc
standard = {{"__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
            "__name__", "__package__", "__path__", "__spec__"}}
print(json.dumps({{
    "names": sorted(set(vars(diracosc)) - standard),
    "modules": sorted(m for m in sys.modules
                      if m.startswith("diracosc.") or m.split(".")[0] == "numpy"),
}}))
"""


def test_package_root_binds_only_the_version():
    # every name is imported from the module that defines it, so the root is
    # no second import path, and importing it loads nothing
    code = ROOT_PROBE.format(src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert json.loads(proc.stdout) == {"names": ["__version__"], "modules": []}


def eager_imports(source, package):
    """(line, module) of each import of `package` that runs on module import.

    An import inside a function body runs when the function is called; any
    other one (top level, or under an if, try or class body) runs at import.
    """
    found = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == package]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == package):
            found.append((node.lineno, node.module))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_eager_import_scan_skips_function_bodies():
    source = ("import os\nimport scipy.linalg\nfrom scipy import special\n"
              "import scipyx\ntry:\n    import scipy\nexcept ImportError:\n    pass\n"
              "def f():\n    import scipy.linalg\n    from scipy.special import gamma\n"
              "class C:\n    import scipy.sparse\n")
    assert eager_imports(source, "scipy") == [
        (2, "scipy.linalg"), (3, "scipy"), (6, "scipy"), (13, "scipy.sparse")]


def test_no_module_scope_scipy_import():
    paths = sorted((ROOT / "src" / "diracosc").glob("*.py"))
    assert paths
    found = [f"{p.relative_to(ROOT)}:{line}: {module}"
             for p in paths for line, module in eager_imports(p.read_text(), "scipy")]
    assert not found, "scipy imported at module scope:\n" + "\n".join(found)


# run in a fresh interpreter: cli.main on each list of arguments,
# then print the exit codes and the scipy modules loaded so far; then one
# spectrum run, and the scipy modules again
CLI_PROBE = """\
import json, sys
sys.path.insert(0, {src!r})
from diracosc.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

codes = [main(["run", *args]) for args in {runs!r}]
print(json.dumps({{"codes": codes, "scipy": scipy_modules()}}))
main(["run", "--config", {control!r}, "--out", {control_out!r}])
print(json.dumps({{"scipy": scipy_modules()}}))
"""


def test_runs_without_an_eigensolve_never_load_scipy(tmp_path):
    def config(name, workflow, model, half_length, n_points):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "schema": 1, "workflow": workflow, "model": model,
            "grid": {"half_length": half_length, "n_points": n_points}}))
        return str(path)

    quadrature = config("quadrature", "zeromode", {
        "type": "coupled", "kappa_f": 0.6, "kappa_m": 0.8, "kappa_v": 0.0,
        "profile": {"type": "tanh_power", "exponent": 3, "shift": 0.5}}, 24.0, 24001)
    step = config("step", "zeromode", {
        "type": "step", "f_plus": 3.0, "f_minus": 3.0, "m_plus": 4.0, "m_minus": 4.0},
        5.0, 8001)
    bad = config("bad", "zeromode", {"type": "coupled"}, 5.0, 8000)   # even n_points
    spectrum = config("spectrum", "spectrum", {
        "type": "coupled", "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
        "profile": {"type": "tanh", "amplitude": 0.8}}, 20.0, 201)
    runs = [["--config", quadrature, "--out", str(tmp_path / "quadrature")],
            ["--config", step, "--out", str(tmp_path / "step")],
            ["--recheck", str(tmp_path / "step" / "zeromode_report.json")],
            ["--config", bad]]
    code = CLI_PROBE.format(src=str(ROOT / "src"), runs=runs, control=spectrum,
                            control_out=str(tmp_path / "spectrum"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    probe, control = [json.loads(line) for line in proc.stdout.splitlines()
                      if line.startswith("{")]
    assert probe == {"codes": [0, 0, 0, 1], "scipy": []}
    assert "scipy.linalg" in control["scipy"]
