"""The exact layers stay exact: neither the polynomial core nor the
certification engine imports the float library."""
import ast
from pathlib import Path

import pytest

import critpoly

PACKAGE = Path(critpoly.__file__).parent


def imported_modules(path: Path) -> set:
    """The top-level names of every module that the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("module", ["poly.py", "verify.py"])
def test_exact_layers_do_not_import_mpmath(module):
    assert "mpmath" not in imported_modules(PACKAGE / module)


def test_import_scan_sees_mpmath():
    # the scan itself finds the float library where it is imported
    assert "mpmath" in imported_modules(PACKAGE / "quadrature.py")
