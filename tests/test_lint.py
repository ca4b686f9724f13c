"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "spdelab"
CATCH_ALL = {"Exception", "BaseException"}


def _catch_all_handlers(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(t is None or (isinstance(t, ast.Name) and t.id in CATCH_ALL) for t in caught):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_catch_all_handlers(path):
    # A handler that catches everything hides the errors it was not written for.
    assert list(_catch_all_handlers(path)) == [], f"{path.name}: catch-all except"
