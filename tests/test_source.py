"""The package source: no ``assert`` statement, which ``python -O`` strips,
only the closed-set walk reads its size limit, one function raises the
one-byte bound of a map, no import inside a function but two, and no
public function or class that only the tests call.  The lazy
``concurrent.futures`` keeps multiprocessing out of the commands that do
not need it.  The lazy
``hashlib`` serves only the fallback of the catalog digest on an
interpreter built without its own SHA-256 module; everywhere else no
command loads OpenSSL."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "semirings").glob("*.py"))
LAZY_IMPORTS = {("catalog.py", "hashlib"), ("catalog.py", "concurrent.futures")}
# public definitions that nothing in src, perfbench/ or tools/ names, and why they stay
UNCALLED = {
    "serialize_lat": "writes a .lat file; round trips and CI use it",
    "serialize_sr": "writes a .sr file; round trips and CI use it",
    "serialize_srs": "writes a .srs file; round trips and CI use it",
    "serialize_smod": "writes a .smod file; round trips and CI use it",
}


def test_the_package_has_sources():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def test_only_the_closed_set_walk_reads_set_limit():
    # so every enumeration of closed sets goes through closure.closed_sets
    def names(path):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    assert {path.name for path in SOURCES if "SET_LIMIT" in names(path)} == {"closure.py"}


def test_one_function_raises_the_one_byte_bound():
    # so every map of one byte per value is checked by lattice.check_lattice_size
    def raisers(path):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, ast.Constant) and "one byte per value" in str(node.value)
                       for stmt in ast.walk(func) if isinstance(stmt, ast.Raise)
                       for node in ast.walk(stmt)):
                    yield path.name, func.name

    assert [found for path in SOURCES for found in raisers(path)] == [
        ("lattice.py", "check_lattice_size")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_lazy_imports_sit_in_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found.update((path.name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.add((path.name, "." * node.level + (node.module or "")))
    assert found <= LAZY_IMPORTS


def _named(tree, skip=None):
    """The identifiers ``tree`` names as an ``ast.Name`` or an
    ``ast.Attribute``, outside the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def _bench_names():
    """What the benchmark and the tools name: identifiers, imported names
    and strings (the tracer patches functions by their names)."""
    found = set()
    for path in sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(_named(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                found.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def test_every_public_definition_is_called_exported_or_listed():
    # a helper only the tests call belongs in tests/reference.py
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = _bench_names()
    public = [(name, node) for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    unused = [f"{name}: {node.name}" for name, node in public
              if node.name not in exported | bench | set(UNCALLED)
              and not any(node.name in _named(tree, skip=node) for tree in trees.values())]
    assert unused == []
    assert set(UNCALLED) <= {node.name for _, node in public}
