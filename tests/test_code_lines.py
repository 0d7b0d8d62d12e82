"""The code-line counter of tools/code_lines.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_counts_code_but_not_blanks_comments_or_docstrings(tmp_path):
    source = '''"""Module
docstring."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that is not a docstring"""
        return math.pi, text
'''
    path = tmp_path / "sample.py"
    path.write_text(source)
    # import, class, def, the two lines of the string, return
    assert code_lines.code_lines(path) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = [\n    1,\n]\n')
    code_lines.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "3", "4"]
    assert lines[-1].split()[1] == "total"
