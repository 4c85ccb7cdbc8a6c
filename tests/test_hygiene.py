"""Source hygiene: no module of the package imports a name it never reads.

A name counts as read when the module loads it anywhere (an attribute
access like np.zeros reads np) or lists it in __all__. Imports kept on
purpose are named in ALLOWED with their reason.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kvmix"

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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = imported_names(tree) - read_names(tree)
    unused -= {name for module, name in ALLOWED if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} and never reads them"


def test_allowed_imports_are_still_unused():
    # an allowance outlives its reason once the module reads the name itself
    for module, name in sorted(ALLOWED):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in imported_names(tree) and name not in read_names(tree), (module, name)
