"""Every function, class and method of the package is named by other code of
the package, or is on the list of unreached public names in the package
docstring, with the reason it stays.

The scan matches by bare name (a call, an attribute or a reference), so it is
conservative: a method counts as reached when any name of the package matches
it.  Dunder methods are called by the language and are not scanned.  The
unreached set must equal the listed set, so that the list goes stale in
neither direction."""

import ast
from pathlib import Path

import homsplit

SRC = Path(homsplit.__file__).parent


def _listed() -> set:
    """The names on the docstring list: its lines indented by four spaces
    (the reasons under them are indented by eight)."""
    section = homsplit.__doc__.partition("and why each stays")[2]
    return {
        name.strip()
        for line in section.splitlines() if line.startswith("    ") and line[4] != " "
        for name in line.split(",") if name.strip()
    }


def _unreached() -> dict:
    definitions, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {
        name: where for name, where in definitions.items()
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    }


def test_the_docstring_lists_exactly_the_definitions_nothing_names():
    unreached, listed = _unreached(), _listed()
    assert listed, "the package docstring lists no unreached name"
    assert {name: unreached[name] for name in unreached.keys() - listed} == {}
    assert listed - unreached.keys() == set()
