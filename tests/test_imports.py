"""Every name a package module imports is used in that module.

No linter runs on this tree; this AST check stands in for its unused-import
rule, so that a name left behind by a refactor (an import of a deleted
class, say) fails here.  A package's __init__ counts the names it lists in
__all__ as used.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rkksums"


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {ast.literal_eval(elt) for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .modring import ModulusCtx, MonicPoly\nMonicPoly\n")
    assert unused_imports(tree) == [(1, "os"), (2, "ModulusCtx")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def _referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
    return names


def unused_helpers(trees):
    """(module, line, name) of each module-level private def or class no module refers to.

    trees maps a module name to its parsed source.  A helper's references
    to itself (recursion) do not count as uses.
    """
    refs = [(node, _referenced_names(node)) for tree in trees.values() for node in tree.body]
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in names for other, names in refs if other is not node))


def test_the_check_sees_an_unused_helper():
    trees = {
        "a": ast.parse("def _used():\n    pass\n\n"
                       "def _dead(n):\n    return _dead(n - 1)\n\n"
                       "class _Shared:\n    pass\n\n"
                       "def public():\n    return _used()\n"),
        "b": ast.parse("from . import a\n\nVALUE = a._Shared()\n"),
    }
    assert unused_helpers(trees) == [("a", 4, "_dead")]


def test_every_private_helper_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert unused_helpers(trees) == []
