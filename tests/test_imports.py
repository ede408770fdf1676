"""Import hygiene: no module imports a name it never uses, every name a
module exports is bound in it, and scipy.stats loads only with the one
verdict that uses it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "crlab").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def unbound_exports(source):
    """Entries of a module-level __all__ that no module-level statement binds."""
    tree = ast.parse(source)
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
    return [name for name in exported if name not in bound]


def test_checker_flags_only_unread_imports():
    source = (
        "import json\nimport numpy as np\nfrom os import path, sep\n"
        "from .x import kept\n__all__ = ['kept']\nnp.zeros(path)\n"
    )
    assert unused_imports(source) == [(1, "json"), (3, "sep")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_only_unbound_exports():
    source = (
        "from .x import kept\nVALUE = 1\ndef f(): pass\nclass C: pass\n"
        "__all__ = ['kept', 'VALUE', 'f', 'C', 'gone']\n"
    )
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_exports_only_bound_names(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


# Runs small subcommands in one fresh interpreter and prints, after the
# non-invariance ones and after an invariance run, whether scipy.stats is loaded.
_STATS_PROBE = """
import contextlib, io, json, os, sys
import crlab.cli as cli
os.chdir(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(["cauchy", "--n", "12", "--m-values", "2,4,8", "--samples", "120",
                      "--seed", "1", "--out", "c.json"]),
             cli.run(["concentration", "--levels", "3,4", "--samples", "4", "--out", "k.json"])]
    before = "scipy.stats" in sys.modules
    codes.append(cli.run(["invariance", "--measure", "white-noise", "--n", "4", "--t", "0.2",
                          "--samples", "20", "--report", "r.json"]))
print(json.dumps([codes, before, "scipy.stats" in sys.modules]))
"""


def test_scipy_stats_loads_only_for_the_invariance_verdict(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _STATS_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout) == [[0, 0, 0], False, True]
