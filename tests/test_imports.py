"""Import hygiene: no dead module-level imports, and scipy stays off the CLI's import path."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import matorder

PACKAGE = pathlib.Path(matorder.__file__).parent
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_an_unused_name():
    assert _unused_imports("import os\nfrom typing import List, Optional\nx: Optional[int] = None\n") == [
        (1, "os"),
        (2, "List"),
    ]


def test_cli_import_loads_no_scipy():
    code = "import sys, matorder.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=120)
    assert out.stdout.strip() == "[]"
