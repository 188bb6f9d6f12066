"""The package imports only the standard library, sympy and itself."""

import ast
import fractions
import pathlib
import sys

import varred
from varred import rationals

ALLOWED = set(sys.stdlib_module_names) | {"varred", "sympy"}


def test_imports_are_stdlib_sympy_or_varred():
    """Every absolute import in src/varred, those inside functions too, has
    its root in the standard library, sympy or varred, and the rationals
    are the stdlib Fraction."""
    outside = []
    for path in sorted(pathlib.Path(varred.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [(path.name, node.lineno, r) for r in roots if r not in ALLOWED]
    assert outside == []
    assert rationals.QQ is fractions.Fraction
