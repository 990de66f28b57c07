"""Every function, class and method in the package is reached by name, and
every import in the package is used by its module.

A definition counts as reached when its name appears as a Name or an
Attribute, or is imported, somewhere in src/habiro or in the acceptance gate
(tests/test_acceptance.py).  Names inside strings do not count.  Library
surface that only the other tests reach must either become a claim the
acceptance gate checks or go.

An imported name counts as used when its module reads it as a Name or lists
it in __all__.  The only names a module may import without reading are those
looked up on it by string: the wrappers perfbench/tracing.py installs on that
module, and the transform rows habiro.cli finds through globals().
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "habiro"
GATE = ROOT / "tests" / "test_acceptance.py"
TRACING = ROOT / "perfbench" / "tracing.py"

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



def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _read(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _strings_in(tree: ast.Module, names: set[str]) -> set[str]:
    """String constants inside the top-level definitions called one of names."""
    found = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node]
        if any(getattr(t, "id", getattr(t, "name", None)) in names for t in targets):
            found.update(c.value for c in ast.walk(node)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str)
                         and c.value.isidentifier())
    return found


def _looked_up_by_string(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) pairs read through getattr or globals() instead of a Name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing_for_imports", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    allowed = {(module, attr) for module, attr, _ in tracing._SPANS}
    allowed.add(tracing._COUNTED)
    rows = _strings_in(trees["habiro.cli"], {"TRANSFORM_ROWS", "_transform_row"})
    allowed |= {("habiro.cli", name) for name in rows}
    return allowed


def test_every_import_is_used_by_its_module():
    trees = {_module_name(path): ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    allowed = _looked_up_by_string(trees)
    unused = {(module, name) for module, tree in trees.items()
              for name in _imported(tree) - _read(tree)}
    assert unused - allowed == set()
