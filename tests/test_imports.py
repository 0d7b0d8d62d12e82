"""Every import in the source and test trees is used."""

import ast
from pathlib import Path

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
    # a package __init__ imports to re-export, so it is not scanned
    paths = [p for sub in ("src", "tests") for p in sorted((ROOT / sub).rglob("*.py"))
             if p.name != "__init__.py"]
    assert paths
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in paths for line, name in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
