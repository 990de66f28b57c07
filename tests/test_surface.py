"""Every function, class and method in the package is reached by name.

A definition counts as reached when its name appears as a Name or an
Attribute, or is imported, somewhere in src/habiro or in the acceptance gate
(tests/test_acceptance.py).  Names inside strings do not count.  Library
surface that only the other tests reach must either become a claim the
acceptance gate checks or go.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "habiro"
GATE = ROOT / "tests" / "test_acceptance.py"

# argparse calls ArgumentParser.error itself on a usage failure; the override
# only changes the exit code, so nothing in the package names it.
EXEMPT = {("habiro/cli.py", "_Parser.error")}


def _definitions(tree: ast.AST, prefix: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield node.name, qualname
            yield from _definitions(node, qualname + ".")
        else:
            yield from _definitions(node, prefix)


def _references(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_no_definition_is_reached_only_from_the_tests():
    trees = {
        path.relative_to(PACKAGE.parent).as_posix(): ast.parse(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    defined = {(module, q) for module, tree in trees.items() for _, q in _definitions(tree)}
    assert EXEMPT <= defined
    reached = _references(ast.parse(GATE.read_text()))
    for tree in trees.values():
        reached |= _references(tree)
    unreached = [
        f"{module}::{qualname}"
        for module, tree in trees.items()
        for name, qualname in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in reached
        and (module, qualname) not in EXEMPT
    ]
    assert unreached == []

