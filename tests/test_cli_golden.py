"""Golden CLI outputs: every command over the bundled data, in text and with
--json, checked against the stdout, stderr and exit code recorded in
``golden/cli.json``.

Text is compared byte for byte.  JSON is compared after parsing, with floats
at a relative tolerance of 1e-12, since numpy releases may differ in the last
bits of a float.  The files are passed by name from inside the data
directory, so no output depends on where the repository lives.

Re-record, only when an output change is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from stab2lin.cli import main

from util import DATA

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"


def _argvs() -> list[list[str]]:
    runs = []
    for f in sorted(p.name for p in DATA.glob("*.stab")):
        runs += [
            ["validate", f],
            ["standardize", f],
            ["standardize", f, "--ensure-r"],
            ["extract", f],
            ["extract", f, "--ensure-r"],
            ["distance", f, "--quantum"],
            ["distance", f, "--quantum", "--cap", "1"],
            ["verify-phi", f],
        ]
    for f in sorted(p.name for p in DATA.glob("*.gmat")):
        runs += [
            ["distance", f, "--classical"],
            ["simulate", f, "--exact", "--delta", "0.05"],
            ["simulate", f, "--delta", "0.05", "--trials", "2000", "--seed", "7"],
        ]
    for channel in ("adversarial", "depolarizing"):
        runs.append(
            ["bounds", "--channel", channel, "--from", "0", "--to", "0.1", "--step", "0.025"]
        )
    return [argv + extra for argv in runs for extra in ([], ["--json"])]


ARGVS = _argvs()


def _invoke(argv: list[str]) -> dict:
    """stdout, stderr and exit code of one CLI run from the current directory."""
    res = CliRunner().invoke(main, argv)
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    return {"stdout": res.stdout, "stderr": res.stderr, "exit_code": res.exit_code}


def _close(got, want) -> bool:
    """Equal JSON values, floats to a relative 1e-12."""
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float))
            and isinstance(want, (int, float))
            and math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_close(got[key], want[key]) for key in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_matches_golden(argv, golden, monkeypatch):
    monkeypatch.chdir(DATA)
    got, want = _invoke(argv), golden[" ".join(argv)]
    assert (got["exit_code"], got["stderr"]) == (want["exit_code"], want["stderr"])
    if "--json" in argv and want["stdout"]:
        assert _close(json.loads(got["stdout"]), json.loads(want["stdout"]))
    else:
        assert got["stdout"] == want["stdout"]


if __name__ == "__main__":
    os.chdir(DATA)
    records = {" ".join(argv): _invoke(argv) for argv in ARGVS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} runs in {GOLDEN}")
