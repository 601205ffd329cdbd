"""Every ``$ stab2lin ...`` example in README.md, run in order through the CLI.

An example's expected output is the lines after it up to the next blank line,
prompt or closing fence; a last line ``...`` means the rest is elided.  Paths
under ``/tmp/`` move into a temporary directory, which is also the working
directory, and ``src/stab2lin/data/`` is the bundled data.
"""

import re
import shlex
from importlib import import_module
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


# every size limit the README quotes, with the module that holds it
LIMITS = {
    "K_ENUM_LIMIT": "lincode",
    "K_TABLE_LIMIT": "lincode",
    "NK_EXACT_LIMIT": "lincode",
    "MAX_MC_WORK": "lincode",
    "MAX_JOIN_ENTRIES": "_kernels",
    "MAX_COVER_STATES": "stabilizer",
    "MAX_GRID_POINTS": "bounds",
}


def _readme_number(text: str) -> int:
    """A number as the README writes it: 28, 2^28, 10^6 or 2*10^9."""
    value = 1
    for factor in text.split("*"):
        base, _, power = factor.partition("^")
        value *= int(base) ** int(power or 1)
    return value


def test_readme_limits_match_the_constants():
    text = " ".join(README.read_text(encoding="utf-8").split())
    quoted = re.findall(r"`(\w+)\.([A-Z_]+) = ([0-9*^]+)`", text)
    assert {name for _, name, _ in quoted} == set(LIMITS)
    for module, name, number in quoted:
        assert LIMITS[name] == module, name
        assert _readme_number(number) == getattr(import_module(f"stab2lin.{module}"), name), name
    # the limits it also quotes by value alone
    lincode = import_module("stab2lin.lincode")
    for number in re.findall(r"n ?- ?k (?:<=|>) (?:min\(k, )?(\d+)", text):
        assert int(number) == lincode.NK_EXACT_LIMIT
    for number in re.findall(r"2\^k \* ceil\(n/64\) (?:<=|>) 2\^(\d+)", text):
        assert int(number) in (lincode.K_ENUM_LIMIT, lincode.K_TABLE_LIMIT)
