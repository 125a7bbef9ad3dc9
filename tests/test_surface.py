"""Every name the package exports has a user besides its own unit tests:
another package module, or the acceptance criteria."""

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
