import ast
import types
from pathlib import Path

import qlincat

SRC = Path(qlincat.__file__).resolve().parent


def test_public_names_resolve_and_are_not_modules():
    assert len(set(qlincat.__all__)) == len(qlincat.__all__)
    for name in qlincat.__all__:
        assert not isinstance(getattr(qlincat, name), types.ModuleType), name


def test_no_assert_statements_in_package():
    # invariants must survive python -O, so they are raised, never asserted
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
