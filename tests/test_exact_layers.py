"""The exact layers stay exact: no module of the package but the numeric
quadrature oracle and the command line imports the float library."""
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


FLOAT_MODULES = {"quadrature.py", "cli.py"}
EXACT_MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                       if path.name not in FLOAT_MODULES | {"__init__.py"})


def test_the_scan_covers_every_exact_layer():
    # a new module joins the scan; none of these may leave it
    assert {"arithprops.py", "construct.py", "errors.py", "hyp3f2.py",
            "orthopoly.py", "poly.py", "rat.py",
            "verify.py"} <= set(EXACT_MODULES)


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_layers_do_not_import_mpmath(module):
    assert "mpmath" not in imported_modules(PACKAGE / module)


def test_import_scan_sees_mpmath():
    # the scan itself finds the float library where it is imported
    assert "mpmath" in imported_modules(PACKAGE / "quadrature.py")
