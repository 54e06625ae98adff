"""No module-level private name of the package is left unreferenced.

A stand-in for a linter's dead-code check, on the standard library's
``ast``: every module-level ``_name`` (function, class or assignment) defined
in the package must be referenced somewhere in the package outside its own
definition, by name, attribute or import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sylowcover"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _referenced(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unreferenced_private_names(sources: list[str]) -> list[str]:
    defined: set[str] = set()
    referenced: set[str] = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = _defined(stmt)
            defined.update(name for name in own if _private(name))
            # a reference inside a definition's own body does not count
            referenced.update(_referenced(stmt) - own)
    return sorted(defined - referenced)


def test_the_check_sees_a_dead_private_helper():
    module_a = (
        "_LIMIT = 3\n"
        "def _used():\n    return _LIMIT\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _dead():\n    pass\n"
        "def __getattr__(name):\n    pass\n"
    )
    module_b = "from .a import _used\n_used()\n"
    assert unreferenced_private_names([module_a, module_b]) == ["_dead", "_recursive"]


def test_every_private_name_is_referenced():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert sources
    assert unreferenced_private_names(sources) == []
