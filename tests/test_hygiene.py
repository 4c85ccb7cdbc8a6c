"""Source hygiene: no module of the package, the tests or the demos imports
a name it never reads, every exception type the package declares is raised
somewhere, and a wrong-typed argument is rejected through errors.check_type,
not a hand-written check.

A name counts as read when the module loads it anywhere (an attribute
access like np.zeros reads np) or lists it in __all__. Imports kept on
purpose are named in ALLOWED with their reason.
"""

import ast
from pathlib import Path

import pytest

import kvmix.errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kvmix"

# kvmix.cache binds the scalar quantizer so that tools which wrap it where
# the cache looks it up have names to patch (see tests/test_perfbench_hooks.py)
ALLOWED = {
    ("cache", "quantize_group"),
    ("cache", "dequantize_group"),
}


def imported_names(tree: ast.Module) -> set[str]:
    """Every name an import statement of the module binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, plus the strings of its __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("demos/*.py"))]


# package modules by their name, tests and demos by their folder too
@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: p.stem if p.parent == PACKAGE else f"{p.parent.name}/{p.stem}"
)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = imported_names(tree) - read_names(tree)
    if path.parent == PACKAGE:
        unused -= {name for module, name in ALLOWED if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} and never reads them"


def test_allowed_imports_are_still_unused():
    # an allowance outlives its reason once the module reads the name itself
    for module, name in sorted(ALLOWED):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in imported_names(tree) and name not in read_names(tree), (module, name)


def raised_names(tree: ast.Module) -> set[str]:
    """Every name a raise statement of the module constructs or re-raises."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_is_raised():
    # a failure type that nothing raises is dead, like an unused import
    raised = set()
    for path in PACKAGE.glob("*.py"):
        raised |= raised_names(ast.parse(path.read_text(), filename=str(path)))
    unraised = set(kvmix.errors.__all__) - {"KVMixError"} - raised
    assert not unraised, f"no raise statement in src/kvmix constructs {sorted(unraised)}"


def hand_written_type_checks(tree: ast.Module) -> list[int]:
    """Lines of each `if` whose test holds `not isinstance(...)` and whose body raises InvalidInput."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        negated = any(
            isinstance(sub, ast.UnaryOp)
            and isinstance(sub.op, ast.Not)
            and isinstance(sub.operand, ast.Call)
            and isinstance(sub.operand.func, ast.Name)
            and sub.operand.func.id == "isinstance"
            for sub in ast.walk(node.test)
        )
        if negated and "InvalidInput" in raised_names(ast.Module(body=node.body, type_ignores=[])):
            lines.append(node.lineno)
    return sorted(lines)


def test_type_checks_go_through_check_type():
    # one checker words every wrong-type rejection, so none is written by hand
    sites = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for line in hand_written_type_checks(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not sites, f"use errors.check_type instead of the checks at {sites}"
