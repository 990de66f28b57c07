"""Every function, class and method in the package is reached by name, and
every import in the package is used by its module.

A definition counts as reached when its name appears as a Name or an
Attribute somewhere in src/habiro or in the acceptance gate
(tests/test_acceptance.py), or is imported there by a module that reads it.
Names inside strings do not count.  Library surface that only the other tests
reach must either become a claim the acceptance gate checks or go, and a
definition that only the gate reaches must be listed in PAPER_CLAIMS with the
criterion that checks it.

An imported name counts as used when its module reads it as a Name or lists
it in __all__.  The only names a module may import without reading are those
perfbench/tracing.py looks up on it by string to install its wrappers.
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

# Definitions that only the acceptance gate reaches, each a claim of the paper,
# with the gate criterion that checks it.
PAPER_CLAIMS = {
    "habiro/exact/intervals.py::IntervalReal.width_fraction":
        "criterion 7: the Fourier closed forms lie in tight enclosures",
    "habiro/families.py::expand_habiro_g_qseries":
        "criterion 6: the nested sum equals the partial theta series in q",
    "habiro/families.py::theta_q_expansion":
        "criterion 6: the nested sum equals the partial theta series in q",
    "habiro/signcheck.py::FamilyCertificate.members":
        "criterion 9: the certified members of an infinite family",
    "habiro/signcheck.py::infinite_family_check":
        "criterion 9: the certified members of an infinite family",
    "habiro/signcheck.py::n_max":
        "criterion 5: every check count stays below the general tail bound",
    "habiro/thetaside.py::b_sequence":
        "criteria 3 and 8: the theta route through the B values",
}


def _definitions(tree: ast.AST, prefix: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield node.name, qualname
            yield from _definitions(node, qualname + ".")
        else:
            yield from _definitions(node, prefix)


def _references(tree: ast.Module) -> set[str]:
    read = _read(tree)
    names = read | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names
                         if (alias.asname or alias.name.split(".")[0]) in read)
    return names


def _package_trees() -> dict[str, ast.Module]:
    return {path.relative_to(PACKAGE.parent).as_posix(): ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


def _unexempt_definitions(trees: dict[str, ast.Module]):
    """(name, 'module::qualname') of every definition that must be reached."""
    for module, tree in trees.items():
        for name, qualname in _definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and (module, qualname) not in EXEMPT:
                yield name, f"{module}::{qualname}"


def _reached_from_package(trees: dict[str, ast.Module]) -> set[str]:
    return set().union(*map(_references, trees.values()))


def test_no_definition_is_reached_only_from_the_tests():
    trees = _package_trees()
    defined = {(module, q) for module, tree in trees.items() for _, q in _definitions(tree)}
    assert EXEMPT <= defined
    reached = _reached_from_package(trees) | _references(ast.parse(GATE.read_text()))
    unreached = sorted(where for name, where in _unexempt_definitions(trees)
                       if name not in reached)
    assert unreached == []


def test_what_only_the_gate_reaches_is_a_listed_paper_claim():
    trees = _package_trees()
    by_gate = _references(ast.parse(GATE.read_text()))
    assert {where.split("::")[1].split(".")[-1] for where in PAPER_CLAIMS} <= by_gate
    in_package = _reached_from_package(trees)
    gate_only = sorted(where for name, where in _unexempt_definitions(trees)
                       if name not in in_package and name in by_gate)
    assert gate_only == sorted(PAPER_CLAIMS)


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


def _looked_up_by_string() -> set[tuple[str, str]]:
    """(module, name) pairs the tracer reads through getattr instead of a Name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing_for_imports", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    allowed = {(module, attr) for module, attr, _ in tracing._SPANS}
    allowed.add(tracing._COUNTED)
    return allowed


def test_every_import_is_used_by_its_module():
    trees = {_module_name(path): ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    allowed = _looked_up_by_string()
    unused = {(module, name) for module, tree in trees.items()
              for name in _imported(tree) - _read(tree)}
    assert unused - allowed == set()
