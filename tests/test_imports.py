"""Every name a library or test module imports is referenced in it, and
every module-level name and class member of the library is read by the
library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(ROOT.glob("src/blocksel/*.py"))
MODULES = sorted([*LIBRARY, *ROOT.glob("tests/*.py")])


def _names(tree: ast.AST) -> tuple[dict[str, int], set[str]]:
    """The names tree imports, with their lines, and the names it reads.

    A name counts as read when it appears as an identifier that is not
    assigned to, or inside a string that parses as an expression: quoted
    annotations and the entries of __all__.
    """
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return imported, used


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in source reads."""
    imported, used = _names(ast.parse(source))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def dead_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and assigned names no module reads.

    sources maps module names to their text.  Besides the reads of
    _names, a name counts as read when a module imports it or takes an
    attribute of that name.
    """
    defined: dict[str, str] = {}
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{module}.{node.name} (line {node.lineno})"
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        defined[target.id] = f"{module}.{target.id} (line {node.lineno})"
        imported, used = _names(tree)
        read.update(imported, used)
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    return sorted(where for name, where in defined.items() if name not in read)


def dead_members(sources: dict[str, str]) -> list[str]:
    """Methods, properties and __slots__ entries of classes no module reads.

    sources maps module names to their text.  A member counts as read when
    a module loads an attribute of that name or passes a keyword of that
    name; dunder methods are called implicitly and always count as read.
    """
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
                ):
                    names = [elt.value for elt in node.value.elts]
                else:
                    continue
                defined.extend(
                    (name, f"{module}.{cls.name}.{name} (line {node.lineno})")
                    for name in names
                    if not (name.startswith("__") and name.endswith("__"))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                read.add(node.arg)
    return sorted(where for name, where in defined if name not in read)


def test_the_check_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import Optional, Sequence\n"
        "__all__ = ['Sequence']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return math.floor(x)\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_dead_name_check_sees_unread_definitions():
    sources = {
        "a": "import b\nLIMIT = 3\nAlias = int\ndef f():\n    return b.g(LIMIT)\n",
        "b": "from a import f\n__all__ = ['Kept']\nclass Kept: ...\ndef g(x):\n    x = h\ndef h(): ...\ndef lost(): ...\n",
    }
    assert dead_names(sources) == ["a.Alias (line 3)", "b.lost (line 7)"]


def test_every_library_name_is_read_by_the_library():
    assert dead_names({path.stem: path.read_text() for path in LIBRARY}) == []


def test_the_dead_member_check_sees_unread_members():
    sources = {
        "a": (
            "class Point:\n"
            "    __slots__ = ('x', 'y', '_cache')\n"
            "    def __init__(self, x, y):\n"
            "        self.x, self.y, self._cache = x, y, None\n"
            "    @property\n"
            "    def norm(self):\n"
            "        return abs(self.x)\n"
            "    def unused(self): ...\n"
            "    @classmethod\n"
            "    def origin(cls): ...\n"
        ),
        # y is read only as a keyword, _cache and unused not at all.
        "b": "from a import Point\ndef f(p):\n    return p.norm, Point.origin(y=1)\n",
    }
    assert dead_members(sources) == ["a.Point._cache (line 2)", "a.Point.unused (line 8)"]


def test_every_library_member_is_read_by_the_library():
    assert dead_members({path.stem: path.read_text() for path in LIBRARY}) == []
