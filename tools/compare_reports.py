"""Run configs on two source trees and compare what they write.

    python tools/compare_reports.py OLD_SRC NEW_SRC CONFIG [CONFIG ...]

OLD_SRC and NEW_SRC are directories that hold the diracosc package, such as
the src/ of two checkouts. Each CONFIG is run once with each tree as
PYTHONPATH (python -m diracosc.cli run --config CONFIG --out DIR, in a fresh
temporary DIR per run; the two trees run side by side), and the report
each run writes is then rechecked (run --recheck REPORT) with the same
tree. One line per config gives both exit codes, both recheck codes ("-"
where no report was written), whether the two runs wrote the same stderr,
and whether every output file (the report and any CSV) is byte-identical
once the report's generated_at line is dropped. Exits 1 when any config
differs in any of these, else 0.
"""

import argparse
from concurrent.futures import ThreadPoolExecutor
import os
from pathlib import Path
import subprocess
import sys
import tempfile

STAMP = b'  "generated_at": '   # the one report line that differs between runs


def _cli(src, *args):
    """Run the diracosc command line from the tree `src`: (exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "diracosc.cli", "run", *args],
                          env=env, capture_output=True, check=False)
    return proc.returncode, proc.stderr


def run_tree(src, config, out):
    """Run `config` from `src` into `out`, then recheck its report.

    Returns (exit code, recheck code or None, stderr, {file name: bytes
    without the generated_at line}).
    """
    code, stderr = _cli(src, "--config", config, "--out", str(out))
    files = {path.name: b"".join(line for line in path.read_bytes().splitlines(True)
                                 if not line.startswith(STAMP))
             for path in sorted(Path(out).glob("*")) if path.is_file()}
    reports = sorted(Path(out).glob("*_report.json"))
    rechecked = _cli(src, "--recheck", str(reports[0]))[0] if reports else None
    return code, rechecked, stderr, files


def compare(old_src, new_src, config):
    """One config on both trees: (the line that describes it, whether they match)."""
    # the two trees run side by side, each in its own processes
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        old, new = pool.map(run_tree, (old_src, new_src), (config, config),
                            (Path(tmp) / "old", Path(tmp) / "new"))
    recheck = ["-" if code is None else code for code in (old[1], new[1])]
    same_files = old[3] == new[3]
    files = "identical" if same_files else "differ: " + ", ".join(
        sorted(name for name in old[3].keys() | new[3].keys()
               if old[3].get(name) != new[3].get(name)))
    line = (f"{config}: exit {old[0]} {new[0]}, recheck {recheck[0]} {recheck[1]}, "
            f"stderr {'same' if old[2] == new[2] else 'differs'}, "
            f"files ({len(new[3])}) {files}")
    return line, old[:3] == new[:3] and same_files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("configs", nargs="+", metavar="config")
    args = parser.parse_args(argv)
    matched = True
    for config in args.configs:
        line, same = compare(args.old_src, args.new_src, config)
        print(line, flush=True)
        matched &= same
    return 0 if matched else 1


if __name__ == "__main__":
    sys.exit(main())
