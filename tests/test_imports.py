"""The package loads no third-party package beyond its declared dependencies."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# pyproject.toml's dependencies, and the package itself
DECLARED = {"click", "numpy", "stab2lin"}

PROBE = """
import sys
before = set(sys.modules)
import {modules}
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def loaded_packages(modules: str) -> set[str]:
    """The non-stdlib top-level packages that ``import modules`` loads in a
    fresh interpreter: this one has already loaded pytest, hypothesis and more."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=modules)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return set(out.split())


def test_imports_load_only_declared_packages():
    loaded = loaded_packages("stab2lin, stab2lin.cli")
    assert "stab2lin" in loaded and loaded <= DECLARED, loaded - DECLARED


def test_package_import_alone_loads_no_third_party_package():
    # submodules are imported by name, so the package itself loads none
    assert loaded_packages("stab2lin") == {"stab2lin"}
