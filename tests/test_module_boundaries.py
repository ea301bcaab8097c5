"""No voljump module reaches into another module's private (`_`-prefixed)
names: a fact is produced in one module and read through its public API.
And no module imports `typing` or defines a `NamedTuple`: records derive from
`errors.Record`, which costs microseconds per class where a named tuple of
`typing` costs tenths of a millisecond, and no process loads `typing`.
And no public API exists only for tests: every public top-level function and
class is read by another statement of `src`, by a frozen test file or by the
benchmark.  And every certificate line is built in `Certificates.record`, which
settles its premises, so no line can bypass that rule, and no `record` call
passes a constant verdict: no certificate is hard-coded.  And no module catches
`VerificationError` or anything wider, so an undecided value
(`PrecisionBudgetError`) cannot become a verdict.  And no module imports
`atexit` or `threading`: the CLI process ends by `os._exit` once its output is
flushed, which runs no exit handler and waits for no thread.  And no module
reads the environment: a run's settings are its command-line flags alone.
And every module-level `functools` cache is one the benchmark clears before
each op, so no run cache carries work from one op to the next.  And no module
holds an `assert`, which `python -O` strips, so no certificate rests on one.
And no module but `polynomials` and `spectral` tests p = 0 mod s: every fact at
lambda is decided by `spectral.sign_at`."""

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


ROOT = PACKAGE.parent.parent
#: Readers of the public API besides `src` itself: the frozen test files and
#: the benchmark.
FROZEN_READERS = [
    ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_stress.py",
    *sorted((ROOT / "bench").glob("*.py")),
]


def referenced_names(tree: ast.AST) -> set[str]:
    """The names a syntax tree reads: plain names, attributes, imports, and
    the parts of string constants that are dotted names, as the benchmark's
    spans (`"orbit.walk"`) are; a docstring's sentence is not one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def unread_public_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The public top-level functions and classes of `modules` that no other
    top-level statement of `modules` reads, nor any of `readers`."""
    outside = set().union(*(referenced_names(ast.parse(source)) for source in readers))
    statements = [
        (module, node, referenced_names(node))
        for module, source in modules.items()
        for node in ast.parse(source).body
    ]
    return [
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]


def test_public_api_guard_sees_every_reader():
    modules = {
        "a": "def used():\n    pass\ndef only_self():\n    only_self()\nclass Read:\n    pass\n"
             "def _private():\n    pass\n",
        "b": "from .a import used\nx = a.Read\ndef by_frozen():\n    pass\n",
    }
    readers = ["from voljump.b import by_frozen\n", 'SPANS = ("a.by_span",)\n']
    modules["c"] = '"""by_span is documented here, which is no read."""\ndef by_span():\n    pass\n'
    assert unread_public_names(modules, readers) == ["a.only_self"]
    assert unread_public_names(modules, []) == ["a.only_self", "b.by_frozen", "c.by_span"]


def test_no_public_name_exists_only_for_tests():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8") for path in FROZEN_READERS]
    assert unread_public_names(modules, readers) == []


def check_result_calls(source: str) -> list[str]:
    """The scopes (dotted class and function names, `<module>` at top level)
    in which a module's source calls `CheckResult`, by name or as an
    attribute."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, ast.Call) and "CheckResult" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.append(".".join(scope) or "<module>")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        elif isinstance(node, ast.Lambda):
            scope = (*scope, "<lambda>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_check_result_guard_sees_every_scope():
    source = (
        "from . import nefcheck\nfrom .nefcheck import CheckResult\n"
        "class Certificates(list):\n    def record(self, name):\n"
        "        self.append(CheckResult(name, True))\n"
        "def run(checks):\n    checks.append(nefcheck.CheckResult('a', False))\n"
        "    return lambda: CheckResult('b', True)\n"
        "FIXED = [CheckResult('c', True)]\n"
    )
    assert check_result_calls(source) == ["Certificates.record", "run", "run.<lambda>", "<module>"]


def test_every_certificate_line_is_built_in_record():
    calls = {
        path.name: check_result_calls(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in calls.items() if found} == {
        "nefcheck.py": ["Certificates.record"]
    }


def constant_verdicts(source: str) -> list[str]:
    """The `record(...)` calls of a module's source, by name or as an attribute,
    whose verdict (the second argument, or `passed=`) is a constant, as
    `line: value`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "record" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            verdicts = node.args[1:2] + [k.value for k in node.keywords if k.arg == "passed"]
            found += [f"{v.lineno}: {v.value!r}" for v in verdicts if isinstance(v, ast.Constant)]
    return found


def test_constant_verdict_guard_sees_every_form():
    source = (
        "record('a', True)\nchecks.record('b', x == 1, 'detail')\n"
        "self.record('c', passed=False)\nrecord('d', ok)\nrecord('e', 1, '', 'a')\n"
    )
    assert constant_verdicts(source) == ["1: True", "3: False", "5: 1"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_certificate_has_a_constant_verdict(path):
    assert constant_verdicts(path.read_text(encoding="utf-8")) == []


#: The handlers that would catch a `PrecisionBudgetError` along with a
#: `CertificationError`; `None` is a bare `except:`.
TOO_WIDE = {"VerificationError", "Exception", "BaseException", None}


def wide_handlers(source: str) -> list[str]:
    """The `except` clauses of a module's source that catch `VerificationError`
    or wider, by name, as an attribute or in a tuple, as `line: name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in caught:
                name = getattr(t, "id", None) or getattr(t, "attr", None)
                if name in TOO_WIDE:
                    found.append(f"{node.lineno}: {name or 'bare except'}")
    return found


def test_wide_handler_guard_sees_every_form():
    source = (
        "try:\n    f()\nexcept CertificationError:\n    pass\n"
        "except errors.VerificationError:\n    pass\n"
        "try:\n    f()\nexcept (ValueError, VerificationError) as err:\n    pass\n"
        "try:\n    f()\nexcept Exception:\n    pass\nexcept:\n    pass\n"
    )
    assert wide_handlers(source) == [
        "5: VerificationError", "9: VerificationError", "13: Exception", "15: bare except"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_catches_an_undecided_value(path):
    assert wide_handlers(path.read_text(encoding="utf-8")) == []


EXIT_BOUND = {"atexit", "threading"}


def exit_bound_imports(source: str) -> list[str]:
    """The modules of `EXIT_BOUND` a module's source imports, in any form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [name for name in names if name.partition(".")[0] in EXIT_BOUND]
    return found


def test_exit_guard_sees_every_form():
    source = (
        "import atexit\nimport os, threading as t\nfrom threading import Thread\n"
        "from atexit import register\nfrom . import threading\nimport sys\n"
        "def f():\n    import atexit\n"
    )
    assert exit_bound_imports(source) == [
        "atexit", "threading", "threading", "atexit", "atexit"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_atexit_or_threading(path):
    assert exit_bound_imports(path.read_text(encoding="utf-8")) == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """The environment reads of a module's source: `os.environ`, `os.environb`,
    `os.getenv` (or `getenvb`) as attributes, and those names imported from
    `os`, as `line: read` in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and not node.level:
            found += [(node.lineno, f"from os import {a.name}") for a in node.names
                      if a.name in ENVIRONMENT]
    return [f"{line}: {read}" for line, read in sorted(found)]


def test_environment_guard_sees_every_form():
    source = (
        "import os\nos.environ.get('A')\nx = os.getenv('B')\ny = os.environb\n"
        "from os import environ, getenv, path\nfrom os import getenv as g\n"
        "from . import os\nos.path.join('a', 'b')\n"
    )
    assert environment_reads(source) == [
        "2: .environ", "3: .getenv", "4: .environb",
        "5: from os import environ", "5: from os import getenv", "6: from os import getenv",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


CACHE_WRAPPERS = {"cache", "lru_cache"}

#: The one module-level cache the benchmark need not clear: it memoizes an
#: import, which a fresh process pays once whatever the op.
IMPORT_CACHES = {"lattice.fraction_type"}


def cache_wrapped(node: ast.AST) -> bool:
    """Whether an expression is `cache`, `lru_cache` or a call of either, by
    name or as an attribute (`functools.lru_cache(maxsize=8)`)."""
    while isinstance(node, ast.Call):
        node = node.func
    return (getattr(node, "id", None) or getattr(node, "attr", None)) in CACHE_WRAPPERS


def module_caches(source: str) -> list[str]:
    """The top-level functions of a module's source that a `functools` cache
    wraps, as a decorator or by assignment (`f = cache(g)`)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and any(map(cache_wrapped, node.decorator_list)):
            found.append(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if cache_wrapped(node.value.func):
                found += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return found


def benchmark_caches() -> set[str]:
    """The dotted names in the `CACHES` tuple of the benchmark's source."""
    source = (ROOT / "bench" / "layers.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CACHES":
            return {ast.unparse(element) for element in node.value.elts}
    raise AssertionError("the benchmark defines no CACHES tuple")


def test_cache_guard_sees_every_form():
    source = (
        "from functools import cache, lru_cache\nimport functools\n"
        "@cache\ndef a():\n    pass\n@lru_cache(maxsize=8)\ndef b():\n    pass\n"
        "@functools.lru_cache\ndef c():\n    pass\n@functools.cache\ndef d():\n    pass\n"
        "e = lru_cache(maxsize=2)(a)\nf = functools.cache(b)\ng = sorted(a)\n"
        "def h():\n    @cache\n    def inner():\n        pass\n@property\ndef i():\n    pass\n"
    )
    assert module_caches(source) == ["a", "b", "c", "d", "e", "f"]


def test_every_module_cache_is_cleared_by_the_benchmark():
    caches = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in module_caches(path.read_text(encoding="utf-8"))
    }
    assert "spectral.eigensystem" in caches & benchmark_caches()
    assert sorted(caches - benchmark_caches() - IMPORT_CACHES) == []


def module_asserts(source: str) -> list[int]:
    """The lines of a module's source that hold an `assert` statement, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_guard_sees_every_form():
    source = (
        "assert x\ndef f(y):\n    assert y > 0, 'positive'\n"
        "class A:\n    def g(self):\n        if self:\n            assert (self, 1)\n"
        "check = 'assert z'\n"
    )
    assert module_asserts(source) == [1, 3, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_asserts(path):
    """A certificate never rests on an `assert`: `python -O` strips them."""
    assert module_asserts(path.read_text(encoding="utf-8")) == []


#: The names of an exact test of p = 0 mod s: `IntPoly.scaled_remainder`, which
#: `polynomials` defines and `spectral.sign_at` runs for a fact at lambda, and
#: `is_multiple_of`, its boolean form, should one come back.
MOD_S_TESTS = {"is_multiple_of", "scaled_remainder"}


def mod_s_calls(source: str) -> list[str]:
    """The calls of a module's source to a `MOD_S_TESTS` name, by name or as an
    attribute, as `line: name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in MOD_S_TESTS:
                found.append(f"{node.lineno}: {name}")
    return found


def test_mod_s_guard_sees_every_form():
    source = (
        "zero = p.is_multiple_of(s)\nrest = combine(w, a).scaled_remainder(s)\n"
        "f = IntPoly.is_multiple_of\nscaled_remainder(p, s)\nx = p.remainder(s)\n"
    )
    assert mod_s_calls(source) == ["1: is_multiple_of", "2: scaled_remainder", "4: scaled_remainder"]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.stem not in ("polynomials", "spectral")],
    ids=lambda p: p.name,
)
def test_no_module_but_spectral_decides_a_fact_mod_s(path):
    assert mod_s_calls(path.read_text(encoding="utf-8")) == []
