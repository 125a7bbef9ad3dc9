"""Every name the package exports has a user besides its own unit tests:
another package module, or the acceptance criteria.  Only `synthesis`
imports scipy."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qaffine"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _referenced_names(path: Path) -> set[str]:
    """Names a module loads or imports; definitions alone do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_user():
    init = PACKAGE / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = _referenced_names(ACCEPTANCE)
    for module in PACKAGE.glob("*.py"):
        if module != init:
            used |= _referenced_names(module)
    assert sorted(exported - used) == []


def _imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_synthesis_imports_scipy():
    # scipy loads a second OpenBLAS, with its own thread pool, next to
    # numpy's; a numeric hot path that moved onto it ran slower, not faster
    importers = {module.stem for module in PACKAGE.glob("*.py") if "scipy" in _imported_top_level(module)}
    assert importers == {"synthesis"}
