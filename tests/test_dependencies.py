"""The imports of the package and of its tests match the declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _names(requirements):
    """Import names of requirement strings such as ``numpy>=1.25``."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def _imports(path):
    """Top-level package of every absolute import in a file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.fixture(scope="module")
def project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _undeclared(files, allowed):
    return {f"{path.name}: {name}" for path in files for name in _imports(path) - sys.stdlib_module_names - allowed}


def test_package_imports_are_declared(project):
    files = sorted((ROOT / "src" / "covact").glob("*.py"))
    assert files
    assert _undeclared(files, _names(project["dependencies"])) == set()


def test_test_imports_are_declared(project):
    files = sorted((ROOT / "tests").glob("*.py"))
    local = {"covact"} | {path.stem for path in files}
    allowed = _names(project["dependencies"]) | _names(project["optional-dependencies"]["test"]) | local
    assert _undeclared(files, allowed) == set()
