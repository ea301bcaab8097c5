"""No voljump module reaches into another module's private (`_`-prefixed)
names: a fact is produced in one module and read through its public API.
And no module imports `typing` or defines a `NamedTuple`: records derive from
`errors.Record`, which costs microseconds per class where a named tuple of
`typing` costs tenths of a millisecond, and no process loads `typing`."""

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


def typing_uses(source: str) -> list[str]:
    """The `typing` imports of a module's source and the classes it bases on
    `NamedTuple` (by name or as `typing.NamedTuple`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "typing"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "typing":
            found.append(f"from {node.module} import ...")
        elif isinstance(node, ast.ClassDef):
            names = {getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases}
            if "NamedTuple" in names:
                found.append(f"class {node.name}(NamedTuple)")
    return found


def test_typing_guard_sees_every_form():
    source = (
        "import typing\nfrom typing import NamedTuple\n"
        "class A(NamedTuple):\n    x: int\nclass B(typing.NamedTuple):\n    y: int\n"
        "class C(Record):\n    z: int\n"
    )
    assert typing_uses(source) == [
        "import typing",
        "from typing import ...",
        "class A(NamedTuple)",
        "class B(NamedTuple)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_typing_or_defines_a_named_tuple(path):
    assert typing_uses(path.read_text(encoding="utf-8")) == []
