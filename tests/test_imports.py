import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "dilutefermi"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by module-level imports that the module never references.

    A reference is a name read anywhere in the module, or an entry of
    ``__all__``.  ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_guard_sees_what_it_should():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom .x import a, b as c\n__all__ = ['a']\nnp.zeros(1)\n"
    assert _unused_imports(source) == ["c", "os"]
