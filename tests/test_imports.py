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
import stab2lin, stab2lin.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_imports_load_only_declared_packages():
    # a fresh interpreter: this one has already loaded pytest, hypothesis and more
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    loaded = set(out.split())
    assert "stab2lin" in loaded and loaded <= DECLARED, loaded - DECLARED
