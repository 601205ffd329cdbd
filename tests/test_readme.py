"""Every ``$ stab2lin ...`` example in README.md, run in order through the CLI.

An example's expected output is the lines after it up to the next blank line,
prompt or closing fence; a last line ``...`` means the rest is elided.  Paths
under ``/tmp/`` move into a temporary directory, which is also the working
directory, and ``src/stab2lin/data/`` is the bundled data.
"""

import shlex
from pathlib import Path

from click.testing import CliRunner

from stab2lin.cli import main

from util import DATA

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ stab2lin "


def readme_examples() -> list[tuple[str, list[str]]]:
    examples, in_sh, collecting = [], False, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh, collecting = line == "```sh", False
        elif in_sh and line.startswith(PROMPT):
            examples.append((line[len(PROMPT):], []))
            collecting = True
        elif collecting and line:
            examples[-1][1].append(line)
        else:
            collecting = False
    return examples


def test_readme_has_examples():
    commands = [cmd.split()[0] for cmd, _ in readme_examples()]
    assert {"validate", "standardize", "extract", "distance", "simulate", "verify-phi",
            "bounds"} <= set(commands)


def test_readme_examples_match(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for command, expected in readme_examples():
        argv = [
            arg.replace("src/stab2lin/data/", f"{DATA}/").replace("/tmp/", f"{tmp_path}/")
            for arg in shlex.split(command)
        ]
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, (command, res.output)
        lines = res.stdout.splitlines()
        if expected[-1:] == ["..."]:
            assert lines[: len(expected) - 1] == expected[:-1], command
        else:
            assert lines == expected, command
