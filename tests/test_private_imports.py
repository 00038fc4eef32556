"""Every private name one zinterp module imports from another is listed.

A from-import of a "_"-prefixed name between modules of src/zinterp (the
package's __init__ left out) couples the two through a helper the first
module does not offer as its API.  Each such import must appear in ALLOWED
as (importing module, defining module, name); a new one fails until it is
added here on purpose, and an entry no module uses any more fails too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zinterp"

ALLOWED = {
    ("bivar", "algebra", "_check_modulus"),
    ("pell", "algebra", "_check_modulus"),
    ("valued", "algebra", "_check_modulus"),
    ("buchi", "algebra", "_frob_scale"),
    ("harness", "algebra", "_frob_scale"),
    ("buchi", "algebra", "_schoolbook_mul"),
    ("harness", "pell", "_by_t_minus_one"),
    ("harness", "pell", "_offset_quotient"),
    ("interp", "formula", "_depth_limited"),
    ("interp", "formula", "_scan"),
}


def private_imports(module: str, source: str) -> set:
    """(module, defining module, name) for each "from .<m> import _<name>"
    in source, at any depth (imports inside functions count)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {(module, node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")}
    return found


def test_the_gate_sees_a_private_import():
    source = ("from .a import _hidden, public\n"
              "from . import b\n"
              "from os import _exit\n"
              "def f():\n    from .c import _late as late\n    return late\n")
    assert private_imports("m", source) == {("m", "a", "_hidden"),
                                            ("m", "c", "_late")}


def test_every_private_import_is_allowed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            found |= private_imports(path.stem, path.read_text())
    assert sorted(found - ALLOWED) == []
    assert sorted(ALLOWED - found) == []
