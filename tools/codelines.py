"""Count the code lines of Python sources.

    python3 tools/codelines.py src/semirings

A code line holds a token other than a comment, a newline or an indent
(every line a multi-line token spans counts), and is not a line of a
module, class or function docstring.  Blank lines, comment-only lines and
docstrings are thus left out; a string statement that is not a docstring
counts.  Each PATH is a file or a directory, searched for ``*.py``; one
line per file gives its count and the last line the total.  Only the
standard library is used.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines of the Python text ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv):
    if not argv:
        print("usage: codelines.py PATH...", file=sys.stderr)
        return 2
    paths = []
    for arg in map(Path, argv):
        paths.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
