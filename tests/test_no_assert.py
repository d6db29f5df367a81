"""Library invariants must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import cascadekit

PACKAGE = Path(cascadekit.__file__).parent


def _is_guard_to_reject(node) -> bool:
    """An ``assert`` statement, or a ``raise AssertionError``: invariants raise CertificateError."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_guard_to_reject(node)
        ]
    assert found == [], f"assert guards vanish under python -O or bypass CertificateError: {found}"
