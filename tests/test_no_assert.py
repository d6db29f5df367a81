"""Library invariants must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import cascadekit

PACKAGE = Path(cascadekit.__file__).parent


def test_no_assert_statements_in_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == [], f"assert statements vanish under python -O: {found}"
