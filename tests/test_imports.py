"""Import hygiene: no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "crlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module or as a string in a module-level __all__.
    """
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


def test_checker_flags_only_unread_imports():
    source = (
        "import json\nimport numpy as np\nfrom os import path, sep\n"
        "from .x import kept\n__all__ = ['kept']\nnp.zeros(path)\n"
    )
    assert unused_imports(source) == [(1, "json"), (3, "sep")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
