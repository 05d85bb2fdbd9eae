"""The package source: no ``assert`` statement, which ``python -O`` strips,
only the closed-set walk reads its size limit, and no import inside a
function but two.  The lazy ``concurrent.futures``
keeps multiprocessing out of the commands that do not need it.  The lazy
``hashlib`` serves only the fallback of the catalog digest on an
interpreter built without its own SHA-256 module; everywhere else no
command loads OpenSSL."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "semirings").glob("*.py"))
LAZY_IMPORTS = {("catalog.py", "hashlib"), ("catalog.py", "concurrent.futures")}


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
