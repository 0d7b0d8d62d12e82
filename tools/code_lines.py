"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment; blank lines,
comment-only lines and the lines of module, class and function docstrings
are not counted. Lines inside a multi-line string that is not a docstring
count.

    python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default is
src/diracosc. Prints one count per module (its path relative to the
repository root), then the total.
"""

import ast
import io
import os
from pathlib import Path
import sys
import tokenize

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path):
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    paths = []
    for arg in argv or [ROOT / "src" / "diracosc"]:
        arg = Path(arg)
        paths += sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {os.path.relpath(path, ROOT)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
