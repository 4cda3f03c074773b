"""No library module uses an assert statement: python -O strips them, and
an internal check must still run there, so it raises InvariantError."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(ROOT.glob("src/blocksel/*.py"))


def assert_lines(source: str) -> list[int]:
    """The lines of the assert statements in source, in order."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_the_check_sees_asserts_at_any_depth():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return 'assert x'\n"
        "assert f(1)\n"
    )
    assert assert_lines(source) == [3, 5]


def test_no_library_module_asserts():
    found = {path.name: assert_lines(path.read_text()) for path in LIBRARY}
    assert {name: lines for name, lines in found.items() if lines} == {}
