"""No module of csmod does work in an assert statement.

python -O strips every assert, so a check or a side effect written as
one would be gone from an optimised run; the package keeps none.  The
CLI paths also run under python -O in CI.
"""

import ast
import pathlib

import pytest

import csmod

PACKAGE = pathlib.Path(csmod.__file__).resolve().parent


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"
