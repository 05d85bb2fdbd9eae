"""Exception types shared across the package.

Validation errors carry a short witness tuple naming the elements that
violate the axiom, so failures are reproducible by hand.

:func:`read_text` reads every input file, :class:`LineReader` is the one
table reader of the four text formats and :func:`format_tables` the one
writer, and :func:`check_table` and :func:`check_axiom` are the one shape
and one axiom check of the validators.
"""

from pathlib import Path


class Error(Exception):
    """Base class for all package errors."""


class ValidationError(Error):
    """A table from outside the package fails an axiom, or a partition or
    a member set is not what it claims to be; the message names the axiom
    and ``witness`` holds the offending elements."""

    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message}: witness {witness}")
        self.witness = witness


class PreconditionFailed(Error):
    """An operation was asked of a structure it does not apply to: a
    lattice that is not distributive, an addition that is not idempotent,
    a semiring that is not congruence-simple, a module with a zero action."""


class SizeLimit(Error):
    """An enumeration exceeded its configured size budget."""


class LimitExceeded(Error):
    """Requested size is beyond the configured hard limit."""


class ParseError(Error):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def read_text(path):
    """The UTF-8 text of the file at ``path``; ``ParseError`` if it cannot
    be read (missing, a directory, no permission) or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text at byte {exc.start}")


class LineReader:
    """The non-blank lines of a text, read in order with their 1-based
    line numbers: header lines ``key <value>`` (:meth:`field`,
    :meth:`int_field`, :meth:`count`), an optional ``name`` line
    (:meth:`name`) and rows of integers (:meth:`row`), each error a
    numbered ``ParseError``."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0
        self.line = 0  # number of the last line handed out

    def at_end(self):
        """True when only blank lines remain."""
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        return self.pos >= len(self.lines)

    def next(self):
        """The next non-blank line, its number kept in ``line``;
        ``ParseError`` at the end of the text, numbered by its last line
        (line 1 for an empty text)."""
        if self.at_end():
            raise ParseError("unexpected end of file", max(1, len(self.lines)))
        self.pos += 1
        self.line = self.pos
        return self.lines[self.pos - 1]

    def field(self, key, what):
        """The value of the next line, which must read ``key <what>``."""
        parts = self.next().split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(f"expected '{key} <{what}>'", self.line)
        return parts[1]

    def int_field(self, key, what, bad):
        """:meth:`field` read as an integer; ``bad`` opens the message
        naming a value that is not one."""
        value = self.field(key, what)
        try:
            return int(value)
        except ValueError:
            raise ParseError(f"{bad} {value!r}", self.line)

    def name(self):
        """The string after ``name`` if the next line is ``name <string>``
        (empty if nothing follows); otherwise None, and the next line is
        left unread."""
        if self.at_end():
            return None
        parts = self.lines[self.pos].split(None, 1)
        if parts[0] != "name":
            return None
        self.next()
        return parts[1] if len(parts) > 1 else ""

    def count(self, key):
        """:meth:`int_field` ``key <count>``, which must be at least 1."""
        n = self.int_field(key, "count", "bad count")
        if n < 1:
            raise ParseError("count must be positive", self.line)
        return n

    def row(self, width, noun):
        """The next line as a tuple of ``width`` integers, or of any number
        when ``width`` is None; ``noun`` names an entry that is not one."""
        parts = self.next().split()
        if width is not None and len(parts) != width:
            raise ParseError(f"expected {width} entries, got {len(parts)}", self.line)
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer {noun}", self.line)


def format_tables(header, *tables):
    """The text of a table file, as :class:`LineReader` reads it back: the
    ``header`` lines, then the rows of each table, with a blank line
    between two tables."""
    lines = list(header)
    for i, table in enumerate(tables):
        if i:
            lines.append("")
        lines.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(lines) + "\n"


def check_table(table, width, label=""):
    """``ParseError`` unless every row of ``table`` has ``width`` entries,
    each in ``range(width)``; ``label`` names the table in the message."""
    for i, row in enumerate(table):
        if len(row) != width:
            raise ParseError(f"{label}row {i} has length {len(row)}, expected {width}")
        for v in row:
            if not (0 <= v < width):
                raise ParseError(f"{label}entry {v} out of range in row {i}")


def check_axiom(message, cases):
    """Raise ``ValidationError(message, (*key, z))`` for the first
    ``(key, lhs, rhs)`` in ``cases`` whose rows (two tuples) differ, z
    being the first position where they do.  Every axiom of the three
    validators is such an equation between rows, ``key`` naming the
    elements that fix them, so with ``cases`` in key order the witness is
    the lexicographically first."""
    for key, lhs, rhs in cases:
        if lhs != rhs:
            z = next(z for z, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            raise ValidationError(message, (*key, z))


def commutative_cases(t):
    """Cases of x·y = y·x: row x of ``t`` against column x, which first
    differ at some y > x (one at y < x would show in row y first)."""
    return zip([(x,) for x in range(len(t))], t, zip(*t))


def associative_cases(t):
    """Cases of (x·y)·z = x·(y·z): row x·y of ``t`` against row y mapped by row x."""
    return (((x, y), t[v], tuple(map(row.__getitem__, t[y])))
            for x, row in enumerate(t) for y, v in enumerate(row))


class Mismatch(Error):
    """A computed structure breaks the theorem: ``check`` finds a
    congruence-simple non-ring of order > 2 that is not isomorphic to a
    dense subsemiring.  (``table1`` reports values that disagree with the
    expected data file as diffs and exits 1 without raising.)"""


class CatalogMissing(Error):
    pass


class CatalogCorrupt(Error):
    """A catalog entry's content does not match the digest that names it."""


class StaleVersion(Error):
    pass
