"""Source hygiene of src/hopfcross, read with the stdlib ast module: no
top-level import goes unused, every module-level _private function or class
is referenced somewhere in the package, and every public definition is read
by the package, perfbench/ or tools/, so no code stays in the library for the
tests alone."""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "hopfcross")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))

# public names that only the tests read, each with its reason
TEST_ONLY = {
    "SolveResult.certificate": "the inconsistency certificate that solve_linear documents",
    "SolveResult.kernel": "the homogeneous solutions that solve_linear documents",
    "_Algebra.mult_basis": "the dense product of two basis elements, a field-scalar view",
}


def parse(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), filename=name)


def referenced_names(tree):
    """(names, attributes) read in tree: the bare names and the names
    imported from another module, and the attribute names."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attrs


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
        used |= set().union(*referenced_names(tree))
    unreferenced = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


def public_definitions(tree):
    """Each public module-level function or class, and each public method
    of any module-level class, the private bases (`_Structure`, `_Algebra`,
    `_Coalgebra`, `_RightComodule`) too, as "name" or "Class.method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item.name


def test_every_public_definition_is_read_outside_the_tests():
    readers = [os.path.join(SRC, name) for name in MODULES]
    for folder in ("perfbench", "tools"):
        readers += [os.path.join(ROOT, folder, name)
                    for name in sorted(os.listdir(os.path.join(ROOT, folder)))
                    if name.endswith(".py")]
    names, attrs = set(), set()
    for path in readers:
        with open(path) as fh:
            read_names, read_attrs = referenced_names(ast.parse(fh.read(), filename=path))
        names |= read_names
        attrs |= read_attrs
    # a method is read only as an attribute, so a local or a module-level
    # name of the same name does not hide it
    unread = [(name, qualified) for name in MODULES
              for qualified, bare in public_definitions(parse(name))
              if bare not in (attrs if "." in qualified else names | attrs)
              and qualified not in TEST_ONLY]
    assert unread == []
    # an allowed name that a caller has since come to read leaves the list
    stale = [qualified for qualified in TEST_ONLY if qualified.split(".")[-1] in attrs]
    assert stale == []


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
