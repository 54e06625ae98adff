"""Every public module-level name is used by the package's own code, not only
by ``__init__``'s re-exports or by tests (``tests/paper_checks.py`` holds what
only tests use), and the export list holds.  Methods are not checked."""

import sylowcover
from test_unused_private import PACKAGE, unreferenced_names


def _public(name: str) -> bool:
    return not name.startswith("_")


def test_the_check_sees_a_dead_public_helper():
    module_a = (
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def dead():\n    pass\n"
    )
    module_b = "from .a import used\nused()\n"
    assert unreferenced_names([module_a, module_b], _public) == ["dead", "recursive"]


def test_every_public_name_is_referenced_by_the_package():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert sources
    assert unreferenced_names(sources, _public) == []


def test_the_export_list_is_sorted_unique_and_exactly_what_star_binds():
    names = sylowcover.__all__
    assert names == sorted(set(names))
    assert all(hasattr(sylowcover, name) for name in names)
    namespace: dict = {}
    exec("from sylowcover import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == names
