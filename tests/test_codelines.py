"""``tools/codelines.py`` counts lines that hold code: no blank line, no
comment-only line and no docstring line, while a multi-line expression
counts every line and a string statement that is not a docstring counts."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
SPEC = importlib.util.spec_from_file_location("codelines", PATH)
codelines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(codelines)

SOURCE = "\n".join([
    '"""Module docstring,',
    'on two lines."""',
    "",
    "import os  # a comment after code",
    "",
    "",
    "# a comment alone",
    "def f(x):",
    '    """One-line docstring."""',
    "    total = (x +",
    "             1)",
    '    "a string statement after the first is not a docstring"',
    "    return total",
    "",
    "",
    "class C:",
    '    """Class docstring,',
    '    on two lines."""',
    "",
    "    def g(self):",
    "        return [",
    "            1,  # a comment inside",
    "",
    "            2,",
    "        ]",
    "",
])
# import, def f, the two lines of total, the string statement, return,
# class C, def g, and the four non-blank lines of the list
COUNT = 12


def test_code_lines_of_a_synthetic_source():
    assert codelines.code_lines(SOURCE) == COUNT


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert codelines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(COUNT), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(COUNT + 1), "total"],
    ]
