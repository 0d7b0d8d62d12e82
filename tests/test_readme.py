"""The README is executable: its configs run, and its key reference is the
parser's table."""

from pathlib import Path
import re

import pytest

from diracosc.cli import CONFIG_KEYS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
CONFIGS = re.findall(r"^```json\n(.*?)^```$", README, flags=re.M | re.S)

# "* **profile, type `tanh`**: `amplitude` (number), `shift` (number, optional ..."
BLOCK = re.compile(r"^\* \*\*(\w+)(?:, type `(\w+)`)?\*\*(.*?)(?=^\* |^$)", re.M | re.S)
KEY = re.compile(r"`(\w+)`\s+\((number list|number|integer|boolean|string|object)"
                 r"(,\s+optional)?")


def run_files(tmp_path, name, config):
    path = tmp_path / f"{name}.json"
    path.write_text(config)
    out = tmp_path / name
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    return {file.name: [line for line in file.read_bytes().splitlines()
                        if b'"generated_at"' not in line]
            for file in sorted(out.iterdir())}


def test_readme_has_configs():
    assert CONFIGS


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_readme_config_runs_and_is_reproducible(tmp_path, capsys, index):
    first = run_files(tmp_path, "a", CONFIGS[index])
    assert first == run_files(tmp_path, "b", CONFIGS[index])
    assert capsys.readouterr().err == ""


def test_key_reference_is_the_parser_table():
    documented = {}
    for block, kind, text in BLOCK.findall(README):
        where = (block, kind) if kind else (block,)
        assert where not in documented, where
        documented[where] = {key: kind + ("?" if optional else "")
                             for key, kind, optional in KEY.findall(text)}
    table = {}
    for block, keys in CONFIG_KEYS.items():
        if block in ("model", "profile"):
            table.update({(block, kind): sub for kind, sub in keys.items()})
        else:
            table[(block,)] = keys
    assert documented == table
