"""Every private module-level helper of zinterp is read.

A function or class defined at module level in src/zinterp whose name
starts with "_" must be read somewhere in src/zinterp outside its own
definition: as a name (a call, a decorator, an argument, a default) or as
an attribute (module._name).  A helper left behind when its last caller
goes fails, and so does one kept only for tests.  Dunder names such as a
module's __getattr__ are read by Python itself and are left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zinterp"


def _helper_name(stmt):
    """stmt's name if it defines a private function or class, else None."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        name = stmt.name
        if name.startswith("_") and not name.endswith("__"):
            return name
    return None


def unread_helpers(sources: dict) -> list:
    """(module, name) for each private helper that no module of sources (a
    map from module name to source text) reads outside its own definition,
    in module order, then definition order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for stmt in tree.body:
            names = {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute)}
            names.discard(_helper_name(stmt))
            read |= names
    return [(module, name) for module, tree in trees.items()
            for name in map(_helper_name, tree.body)
            if name is not None and name not in read]


def test_the_gate_sees_an_unused_name():
    sources = {
        "a": "def _lone():\n    return _lone()\n\n"
             "def _called():\n    pass\n\n"
             "class _Kept:\n    pass\n\n"
             "def __getattr__(name):\n    pass\n\n"
             "def public():\n    return _called(), b._by_attribute\n",
        "b": "from .a import _Kept\n\n"
             "def _by_attribute():\n    pass\n\n"
             "class _Unread:\n    pass\n\n"
             "x = _Kept\n",
    }
    assert unread_helpers(sources) == [("a", "_lone"), ("b", "_Unread")]


def test_every_private_helper_is_read():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert unread_helpers(sources) == []
