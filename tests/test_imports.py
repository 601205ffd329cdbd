"""The package loads no third-party package beyond its declared dependencies,
and no module of the package or of the tests imports a name it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

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


def unused_imports(path: Path) -> set[str]:
    """The names that a module's imports bind and that appear nowhere else in
    it, neither as a name nor as an argument (pytest passes fixtures by
    argument name)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return imported - used


def test_every_imported_name_is_used():
    modules = sorted((SRC / "stab2lin").glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {path.name: names for path in modules if (names := unused_imports(path))}
    assert not unused, unused
