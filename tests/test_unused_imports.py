"""Every name a zinterp module imports is read there.

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


def unused_imports(source: str) -> list:
    """Names bound by import statements and by from-imports (other than
    __future__) that the module never reads, in walk order.  `import a.b`
    binds a."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in read]


def test_the_gate_sees_an_unused_name():
    source = "from a import b, c as d\nfrom __future__ import annotations\nd()\n"
    assert unused_imports(source) == ["b"]
    source = "import e, f as g\nimport h.i\nimport j.k\ne.x\nj.k.y\n"
    assert unused_imports(source) == ["g", "h"]


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    assert unused_imports((SRC / name).read_text()) == []
