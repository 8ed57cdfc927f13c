"""The package and its tools import nothing outside the standard library,
no package module imports a private name from another, none imports
``dataclasses``, and the margin layers import only the layers below."""

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


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_no_package_module_imports_dataclasses(path):
    """Importing ``dataclasses`` pulls in ``inspect`` and its dependencies,
    a start-up cost every CLI run would pay; records are plain classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level]
    assert "dataclasses" not in modules, f"{path.name} imports dataclasses"


@pytest.mark.parametrize("module,below", [("keyspace", {"errors", "prefs"}),
                                          ("tally", {"prefs", "keyspace"})])
def test_margin_layers_import_only_the_layers_below(module, below):
    """Votes become margins in ``keyspace`` and ``tally`` reads its keys:
    ``prefs`` -> ``keyspace`` -> ``tally`` -> ``rules``."""
    path = REPO_ROOT / "src" / "prefrev" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module
                            else (alias.name for alias in node.names))
    assert imported == below


def caught_names(path: Path) -> set[str]:
    """Every name an ``except`` clause of the file catches, bare or dotted."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {expr.id if isinstance(expr, ast.Name) else expr.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            for expr in ast.walk(node.type)
            if isinstance(expr, (ast.Name, ast.Attribute))}


def test_every_error_class_is_caught_by_type():
    """The package raises one error type; a subclass of it exists only where
    a caller acts on it, so every class of ``errors.py`` is named in an
    ``except`` clause of another package module."""
    errors_path = REPO_ROOT / "src" / "prefrev" / "errors.py"
    tree = ast.parse(errors_path.read_text(encoding="utf-8"), filename=str(errors_path))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    caught = set().union(*(caught_names(path) for path in PACKAGE if path != errors_path))
    assert "PrefRevError" in defined
    assert defined <= caught, f"never caught by type: {sorted(defined - caught)}"
