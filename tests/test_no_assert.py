"""Internal checks must survive python -O, which strips assert statements."""

import ast
from pathlib import Path

import enriched_ph

PACKAGE_DIR = Path(enriched_ph.__file__).parent


def test_no_assert_statement_in_the_package():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
