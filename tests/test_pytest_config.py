"""The repository's pytest configuration reports a failing property and runs on."""

from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(x):
    assert x < 0


def test_trivial():
    pass
"""


def test_failing_property_does_not_abort_the_session(tmp_path):
    # hypothesis writes a failing property's patch through libcst, whose import
    # warns; under error::DeprecationWarning that used to end the session with
    # INTERNALERROR before the next test ran
    (tmp_path / "test_probe.py").write_text(PROBE)
    before = set(ROOT.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert set(ROOT.rglob("*")) == before
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
