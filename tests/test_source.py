"""Source hygiene of src/hopfcross, read with the stdlib ast module: no
top-level import goes unused, and every module-level _private function or
class is referenced somewhere in the package."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def parse(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), filename=name)


def referenced_names(tree):
    """Every name read in tree: bare names, attribute names, and names
    imported from another module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def top_level_imports(tree):
    """(bound name, line) of each name a top-level import statement binds."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_top_level_import(name):
    tree = parse(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(bound, line) for bound, line in top_level_imports(tree) if bound not in used]
    assert unused == []


def test_every_private_definition_is_referenced():
    trees = {name: parse(name) for name in MODULES}
    used = set()
    for tree in trees.values():
        used |= referenced_names(tree)
    unreferenced = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg.py"])
def test_q_scalars_are_made_by_the_field(name):
    """Outside linalg, a Q scalar comes from `Rationals` (a `Rational`), never
    from a `Fraction(...)` call, which would leave the fast arithmetic."""
    calls = [
        node.lineno
        for node in ast.walk(parse(name))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Fraction"
             or getattr(node.func, "attr", None) == "Fraction")
    ]
    assert calls == []
