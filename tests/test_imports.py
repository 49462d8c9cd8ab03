"""Every module of the package uses each name it imports, and importing it builds nothing.

``__init__`` imports names only to export them, so it is not checked for
unused names.  A fresh ``import reebkit`` loads no CLI machinery, and
``import reebkit.cli`` builds no parser: the parser is built on the first
``main`` call.
"""

import ast
import os
import subprocess
import sys
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


def _fresh(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(reebkit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_cli_machinery():
    # printed with repr, so the check itself imports nothing
    script = ("import sys, reebkit\n"
              "print(sorted(m for m in ('argparse', 'json', 'gettext', 'reebkit.cli',"
              " 'numpy.polynomial') if m in sys.modules))")
    assert _fresh(script) == "[]\n"


def test_import_of_cli_builds_no_parser():
    script = "import reebkit.cli\nprint(reebkit.cli._build_parser.cache_info().currsize)"
    assert _fresh(script) == "0\n"
