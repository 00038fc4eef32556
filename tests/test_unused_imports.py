"""Every name a zinterp module imports with `from ... import` is read there.

The package's __init__ re-exports names and is left out.  A name counts as
read when it occurs as a Name node anywhere in the module, annotations
included; an import kept only for other modules or for tests fails.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "zinterp"
MODULES = sorted(path.name for path in SRC.glob("*.py")
                 if path.name != "__init__.py")


def unused_from_imports(source: str) -> list:
    """Names bound by from-imports (other than __future__) that the module
    never reads, in source order."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            if (alias.asname or alias.name) not in read]


def test_the_gate_sees_an_unused_name():
    source = "from a import b, c as d\nfrom __future__ import annotations\nd()\n"
    assert unused_from_imports(source) == ["b"]


@pytest.mark.parametrize("name", MODULES)
def test_every_from_import_is_read(name):
    assert unused_from_imports((SRC / name).read_text()) == []
