"""No module of the package imports a name it never uses.

A stand-in for a linter's unused-import check, on the standard library's
``ast``: a module-level import counts as used when its name appears anywhere
in the module or is listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sylowcover"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import Optional, Sequence\n__all__ = ['Sequence']\nos.sep\n"
    assert unused_imports(source) == ["Optional"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_module_imports_are_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
