"""Exception types shared across the package.

Validation errors carry a short witness tuple naming the elements that
violate the axiom, so failures are reproducible by hand.
"""


class Error(Exception):
    """Base class for all package errors."""


class ValidationError(Error):
    """An algebraic axiom failed; ``witness`` holds the offending elements."""

    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message}: witness {witness}")
        self.witness = witness


# lattice axioms
class NotCommutative(ValidationError):
    pass


class NotAssociative(ValidationError):
    pass


class NotIdempotent(ValidationError):
    pass


class BadZero(ValidationError):
    pass


# semiring axioms
class AddNotCommutative(ValidationError):
    pass


class AddNotAssociative(ValidationError):
    pass


class MulNotAssociative(ValidationError):
    pass


class LeftDistFail(ValidationError):
    pass


class RightDistFail(ValidationError):
    pass


class ZeroNotAbsorbing(ValidationError):
    pass


# semimodule axioms
class ModuleAxiomFail(ValidationError):
    pass


class NotCompatible(ValidationError):
    """A partition is not compatible with the operations."""


class NotDistributive(Error):
    """Operation requires a distributive lattice."""


class NotALattice(Error):
    """Operation requires an idempotent (lattice-like) addition."""


class PreconditionFailed(Error):
    pass


class AnnulatorIsEverything(Error):
    """Every element is annihilated, so the quotient would be trivial."""


class SizeLimit(Error):
    """An enumeration exceeded its configured size budget."""


class LimitExceeded(Error):
    """Requested size is beyond the configured hard limit."""


class ParseError(Error):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class LineReader:
    """The non-blank lines of a text, read in order with their 1-based
    line numbers; the one line reader of every text format."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def at_end(self):
        """True when only blank lines remain."""
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        return self.pos >= len(self.lines)

    def next(self):
        """The next non-blank line and its number; ``ParseError`` at the end
        of the text, numbered by its last line (line 1 for an empty text)."""
        if self.at_end():
            raise ParseError("unexpected end of file", max(1, len(self.lines)))
        self.pos += 1
        return self.lines[self.pos - 1], self.pos


class Mismatch(Error):
    """Computed values disagree with the expected data file."""


class CatalogMissing(Error):
    pass


class CatalogCorrupt(Error):
    """A catalog entry's content does not match the digest that names it."""


class StaleVersion(Error):
    pass
