"""Every module of the package uses each name it imports.

``__init__`` imports names only to export them, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

import reebkit

MODULES = sorted(p for p in Path(reebkit.__file__).parent.glob("*.py") if p.stem != "__init__")


def _unused_imports(source: str) -> list[str]:
    """The names a module binds by ``import`` or ``from ... import`` and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps, loads as ld\nmath.pi\nld('1')\n"
    assert _unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
