"""The package and its tools import nothing outside the standard library,
and no package module imports a private name from another."""

import ast
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((REPO_ROOT / "src" / "prefrev").glob("*.py"))
SOURCES = PACKAGE + sorted((REPO_ROOT / "tools").glob("*.py"))


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every import statement in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("prefrev" if node.level else node.module)
    return {name.split(".")[0] for name in names}


def test_sources_found():
    assert any(path.parent.name == "prefrev" for path in SOURCES)
    assert any(path.parent.name == "tools" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_imports_are_stdlib_or_prefrev(path):
    foreign = sorted(name for name in imported_packages(path)
                     if name != "prefrev" and name not in sys.stdlib_module_names)
    assert not foreign, f"{path.name} imports non-stdlib packages: {foreign}"


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = sorted(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and (node.level or (node.module or "").startswith("prefrev"))
                     for alias in node.names if alias.name.startswith("_"))
    assert not private, f"{path.name} imports private names: {private}"
