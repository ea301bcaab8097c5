"""The benchmark traces and imports names of the package; a removed name
should fail here, not first in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans() -> tuple[str, ...]:
    tree = ast.parse((BENCH / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/layers.py defines no SPANS")


def _imported_names() -> list[str]:
    names = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("voljump."):
                names.extend(f"{node.module[len('voljump.'):]}.{a.name}" for a in node.names)
    return names


@pytest.mark.parametrize(
    "name", list(dict.fromkeys([*_spans(), "nefcheck.margin", *_imported_names()]))
)
def test_benchmark_name_resolves(name):
    module, attr = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"voljump.{module}"), attr))
