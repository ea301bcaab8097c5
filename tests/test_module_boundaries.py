"""No voljump module reaches into another module's private (`_`-prefixed)
names: a fact is produced in one module and read through its public API."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voljump"


def private_imports(source: str) -> list[str]:
    """The `_`-names a module's source takes from other voljump modules, by
    `from .m import _x` or as `m._x` after `from . import m`."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "voljump"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
                if node.module in (None, "voljump"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_guard_sees_both_forms():
    source = "from . import spectral\nfrom .orbit import _X, walk\nspectral._grid_bits(0)\n"
    assert private_imports(source) == ["orbit._X", "spectral._grid_bits"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
