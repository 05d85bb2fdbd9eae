"""The exact error of every branch of the four text parsers and of the
shape and axiom checks of the three validators: exception type and
``str(exc)``, line number and witness included.

``test_parse_fuzz`` checks only that malformed input raises a typed error;
this table holds the messages and line numbers themselves.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import semirings
from semirings.cli import reference_resolver
from semirings.endo import parse_srs
from semirings.errors import ParseError, PreconditionFailed, ValidationError
from semirings.fixtures import boolean_semiring
from semirings.lattice import parse_lat, validate_lattice
from semirings.semimodule import parse_smod, validate_semimodule
from semirings.semiring import parse_sr, validate_semiring

BOOLEAN = boolean_semiring()
MADD = ((0, 1), (1, 1))
# Tables that break one axiom each (``AXIOM_CASES``): x + y = x on {1, 2}
# with identity 0 is a non-commutative band, and 1 + 2 = 3, 2 + 3 = 1,
# 1 + 3 = 2 with identity 0 an idempotent commutative non-associative table.
LEFT_BAND = ((0, 1, 2), (1, 1, 1), (2, 2, 2))
NON_ASSOC = ((0, 1, 2, 3), (1, 1, 3, 2), (2, 3, 2, 1), (3, 2, 1, 3))
CHAIN3_JOIN = ((0, 1, 2), (1, 1, 2), (2, 2, 2))
ZERO2 = ((0, 0), (0, 0))
ZERO3 = ((0, 0, 0),) * 3
ZERO4 = ((0, 0, 0, 0),) * 4


# ``check``'s name rule over a directory holding ``boolean.sr`` and two
# files named otherwise than the reference: ``other.sr`` (the boolean
# semiring, named boolean) and ``diamond.lat`` (chain3, named chain3); the
# other lattice names resolve to the bundled fixtures
REFERENCES = Path(__file__).resolve().parent / "references"


def _srs(text):
    return parse_srs(text, reference_resolver(REFERENCES, ".lat"))


def _smod(text):
    return parse_smod(text, reference_resolver(REFERENCES, ".sr"))


def _module(madd, act):
    return validate_semimodule(BOOLEAN, madd, act)


# (id, call, argument, exception type, exact message)
CASES = [
    # .lat
    ("lat-header", parse_lat, "x 3\n", ParseError, "line 1: expected 'n <count>'"),
    ("lat-header-words", parse_lat, "n 3 4\n", ParseError, "line 1: expected 'n <count>'"),
    ("lat-bad-count", parse_lat, "n x\n", ParseError, "line 1: bad count 'x'"),
    ("lat-count-zero", parse_lat, "\nn 0\n", ParseError, "line 2: count must be positive"),
    ("lat-count-negative", parse_lat, "n -2\n", ParseError, "line 1: count must be positive"),
    ("lat-row-width", parse_lat, "n 2\nname two\n0 1\n1\n", ParseError,
     "line 4: expected 2 entries, got 1"),
    ("lat-name-after-rows", parse_lat, "n 2\n0 1\nname two\n", ParseError,
     "line 3: non-integer table entry"),
    ("lat-non-integer", parse_lat, "n 2\n0 x\n", ParseError, "line 2: non-integer table entry"),
    ("lat-eof-after-count", parse_lat, "n 2\n\n", ParseError, "line 2: unexpected end of file"),
    ("lat-eof-after-name", parse_lat, "n 1\nname one\n", ParseError,
     "line 2: unexpected end of file"),
    ("lat-eof-in-rows", parse_lat, "n 2\n0 1\n", ParseError, "line 2: unexpected end of file"),
    ("lat-empty", parse_lat, "", ParseError, "line 1: unexpected end of file"),
    ("lat-out-of-range", parse_lat, "n 2\n0 1\n1 2\n", ParseError,
     "entry 2 out of range in row 1"),
    ("lat-negative-entry", parse_lat, "n 2\n-1 1\n1 1\n", ParseError,
     "entry -1 out of range in row 0"),
    # .sr
    ("sr-header", parse_sr, "m 2\n", ParseError, "line 1: expected 'n <count>'"),
    ("sr-bad-count", parse_sr, "n 1.5\n", ParseError, "line 1: bad count '1.5'"),
    ("sr-zero-header", parse_sr, "n 1\nname b\nnil 0\n", ParseError,
     "line 3: expected 'zero <index>'"),
    ("sr-zero-header-no-name", parse_sr, "n 1\nzero\n", ParseError,
     "line 2: expected 'zero <index>'"),
    ("sr-bad-zero", parse_sr, "n 1\nzero q\n", ParseError, "line 2: bad zero index 'q'"),
    ("sr-row-width", parse_sr, "n 1\nzero 0\n0 0\n", ParseError,
     "line 3: expected 1 entries, got 2"),
    ("sr-non-integer", parse_sr, "n 1\nzero 0\n0\n\n?\n", ParseError,
     "line 5: non-integer table entry"),
    ("sr-eof-after-count", parse_sr, "n 1\n", ParseError, "line 1: unexpected end of file"),
    ("sr-eof-after-name", parse_sr, "n 1\nname b\n\n", ParseError,
     "line 3: unexpected end of file"),
    ("sr-eof-in-mul", parse_sr, "n 1\nzero 0\n0\n", ParseError,
     "line 3: unexpected end of file"),
    ("sr-zero-count", parse_sr, "n 0\nzero 0\n", ParseError, "line 1: count must be positive"),
    ("sr-out-of-range", parse_sr, "n 2\nzero 0\n0 1\n1 1\n\n0 0\n0 3\n", ParseError,
     "entry 3 out of range in row 1"),
    # .smod
    ("smod-header", _smod, "ring\n", ParseError, "line 1: expected 'ring <name>'"),
    ("smod-count-header", _smod, "ring boolean\nn 2\n", ParseError,
     "line 2: expected 'm <count>'"),
    ("smod-bad-count", _smod, "ring boolean\nm z\n", ParseError, "line 2: bad count 'z'"),
    ("smod-count-zero", _smod, "ring boolean\nm 0\n", ParseError,
     "line 2: count must be positive"),
    ("smod-row-width", _smod, "ring boolean\nm 2\n0\n", ParseError,
     "line 3: expected 2 entries, got 1"),
    ("smod-act-width", _smod, "ring boolean\nm 2\n0 1\n1 1\n\n0 0\n1\n", ParseError,
     "line 7: expected 2 entries, got 1"),
    ("smod-non-integer", _smod, "ring boolean\nm 2\n0 y\n", ParseError,
     "line 3: non-integer entry"),
    ("smod-eof", _smod, "ring boolean\nm 2\n0 1\n", ParseError,
     "line 3: unexpected end of file"),
    ("smod-eof-after-ring", _smod, "ring boolean\n\n\n", ParseError,
     "line 3: unexpected end of file"),
    ("smod-ring-mismatch", _smod, "ring other\nm 1\n0\n0\n0\n", ParseError,
     "ring 'boolean' does not match reference 'other'"),
    ("smod-act-rows", _smod, "ring boolean\nm 2\n0 1\n1 1\n\n0 0\n", ParseError,
     "act table has 1 rows, expected 2"),
    ("smod-madd-out-of-range", _smod, "ring boolean\nm 2\n0 1\n1 2\n\n0 0\n0 1\n", ParseError,
     "madd entry 2 out of range in row 1"),
    ("smod-act-out-of-range", _smod, "ring boolean\nm 2\n0 1\n1 1\n\n0 0\n0 5\n", ParseError,
     "act entry 5 out of range in row 1"),
    # .srs
    ("srs-header", _srs, "lat chain3\n", ParseError, "line 1: expected 'lattice <name>'"),
    ("srs-row-width", _srs, "lattice chain3\n0 0 0\n0 1\n", ParseError,
     "line 3: expected 3 entries, got 2"),
    ("srs-non-integer", _srs, "lattice chain3\n\n0 a 0\n", ParseError,
     "line 3: non-integer image entry"),
    ("srs-repeated-member", _srs, "lattice chain3\n0 0 0\n0 1 2\n\n0 0 0\n", ParseError,
     "line 5: member (0, 0, 0) already listed on line 2"),
    ("srs-no-members", _srs, "lattice chain3\n", ParseError, "line 1: no members listed"),
    ("srs-no-members-blank", _srs, "lattice chain3\n\n\n", ParseError,
     "line 3: no members listed"),
    ("srs-empty", _srs, "\n", ParseError, "line 1: unexpected end of file"),
    ("srs-lattice-mismatch", _srs, "lattice diamond\n0 0 0\n", ParseError,
     "lattice 'chain3' does not match reference 'diamond'"),
    ("srs-not-endomorphism", _srs, "lattice chain3\n0 2 1\n", ParseError,
     "member (0, 2, 1) is not an endomorphism of chain3"),
    # validate_lattice
    ("lattice-empty", validate_lattice, [], ValidationError, "empty table"),
    ("lattice-row-length", validate_lattice, [[0, 1], [1]], ParseError,
     "row 1 has length 1, expected 2"),
    ("lattice-out-of-range", validate_lattice, [[0, 2], [2, 1]], ParseError,
     "entry 2 out of range in row 0"),
    ("lattice-zero-out-of-range", lambda zero: validate_lattice(MADD, zero=zero), 2,
     ValidationError, "zero index out of range: witness (2,)"),
    # validate_semiring
    ("semiring-sizes", lambda add: validate_semiring(add, [[0]], 0), MADD, ParseError,
     "add and mul tables disagree in size"),
    ("semiring-add-row-length", lambda add: validate_semiring(add, MADD, 0), [[0, 1], [1, 1, 1]],
     ParseError, "row 1 has length 3, expected 2"),
    ("semiring-mul-row-length", lambda mul: validate_semiring(MADD, mul, 0), [[0], [0, 1]],
     ParseError, "row 0 has length 1, expected 2"),
    ("semiring-add-out-of-range", lambda add: validate_semiring(add, MADD, 0), [[0, 1], [1, -1]],
     ParseError, "entry -1 out of range in row 1"),
    ("semiring-mul-out-of-range", lambda mul: validate_semiring(MADD, mul, 0), [[0, 0], [0, 9]],
     ParseError, "entry 9 out of range in row 1"),
    ("semiring-zero-out-of-range", lambda zero: validate_semiring(MADD, MADD, zero), -1,
     ValidationError, "zero index out of range: witness (-1,)"),
    # validate_semimodule
    ("module-madd-row-length", lambda madd: _module(madd, MADD), [[0, 1], [1]], ParseError,
     "madd row 1 has length 1, expected 2"),
    ("module-madd-out-of-range", lambda madd: _module(madd, MADD), [[0, 7], [1, 1]], ParseError,
     "madd entry 7 out of range in row 0"),
    ("module-act-rows", lambda act: _module(MADD, act), [[0, 0]], ParseError,
     "act table has 1 rows, expected 2"),
    ("module-act-row-length", lambda act: _module(MADD, act), [[0, 0], [0, 1, 1]], ParseError,
     "act row 1 has length 3, expected 2"),
    ("module-act-out-of-range", lambda act: _module(MADD, act), [[0, 2], [0, 1]], ParseError,
     "act entry 2 out of range in row 0"),
] + [
    # validate_lattice axioms
    ("lattice-idempotent", validate_lattice, ((0, 1), (1, 0)), ValidationError,
     "x + x != x: witness (1,)"),
    ("lattice-zero", lambda join: validate_lattice(join, zero=1), MADD, ValidationError,
     "zero + x != x: witness (0,)"),
    ("lattice-commutative", validate_lattice, LEFT_BAND, ValidationError,
     "x + y != y + x: witness (1, 2)"),
    ("lattice-associative", validate_lattice, NON_ASSOC, ValidationError,
     "(x+y)+z != x+(y+z): witness (1, 1, 2)"),
    # validate_semiring axioms
    ("semiring-zero", lambda zero: validate_semiring(MADD, MADD, zero), 1, ValidationError,
     "zero + x != x: witness (0,)"),
    ("semiring-zero-absorbing", lambda mul: validate_semiring(MADD, mul, 0), MADD,
     ValidationError, "zero * x != zero: witness (1,)"),
    ("semiring-add-commutative", lambda add: validate_semiring(add, ZERO3, 0), LEFT_BAND,
     ValidationError, "x + y != y + x: witness (1, 2)"),
    ("semiring-add-associative", lambda add: validate_semiring(add, ZERO4, 0), NON_ASSOC,
     ValidationError, "(x+y)+z != x+(y+z): witness (1, 1, 2)"),
    ("semiring-mul-associative",
     lambda mul: validate_semiring(((0, 1, 2), (1, 1, 1), (2, 1, 2)), mul, 0),
     ((0, 0, 0), (0, 1, 0), (0, 1, 0)), ValidationError, "(xy)z != x(yz): witness (1, 2, 1)"),
    ("semiring-left-distributive",
     lambda mul: validate_semiring(((0, 1, 2), (1, 0, 2), (2, 2, 2)), mul, 0),
     ((0, 0, 0), (0, 0, 1), (0, 0, 2)), ValidationError, "x(y+z) != xy+xz: witness (1, 2, 2)"),
    ("semiring-right-distributive",
     lambda mul: validate_semiring(((0, 1, 2), (1, 0, 2), (2, 2, 2)), mul, 0),
     ((0, 0, 0), (0, 0, 0), (0, 1, 2)), ValidationError, "(x+y)z != xz+yz: witness (2, 2, 1)"),
    # validate_semimodule axioms, over the boolean semiring
    ("module-neutral", lambda madd: _module(madd, ZERO2), ((1, 1), (1, 1)), ValidationError,
     "addition has no neutral element"),
    ("module-commutative", lambda madd: _module(madd, (ZERO3[0], (0, 1, 2))), LEFT_BAND,
     ValidationError, "x + y != y + x: witness (1, 2)"),
    ("module-associative", lambda madd: _module(madd, (ZERO4[0], (0, 1, 2, 3))), NON_ASSOC,
     ValidationError, "(x+y)+z != x+(y+z): witness (1, 1, 2)"),
    ("module-zero-acts", lambda act: _module(MADD, act), ((0, 1), (0, 1)), ValidationError,
     "0_R x != 0_M: witness (1,)"),
    # r 0_M = r (0_R 0_M) = (r 0_R) 0_M = 0_M follows from the other axioms,
    # so a table breaking it is named by r(sx) = (rs)x
    ("module-acts-on-zero", lambda act: _module(MADD, act), ((0, 0), (1, 1)), ValidationError,
     "r(sx) != (rs)x: witness (1, 0, 0)"),
    ("module-action-associative", lambda act: _module(CHAIN3_JOIN, act),
     (ZERO3[0], (0, 0, 1)), ValidationError, "r(sx) != (rs)x: witness (1, 1, 2)"),
    ("module-ring-distributive", lambda act: _module(((0, 1), (1, 0)), act), ZERO2[:1] + ((0, 1),),
     ValidationError, "(r+s)x != rx+sx: witness (1, 1, 1)"),
    ("module-module-distributive", lambda act: _module(CHAIN3_JOIN, act),
     (ZERO3[0], (0, 1, 0)), ValidationError, "r(x+y) != rx+ry: witness (1, 1, 2)"),
]


@pytest.mark.parametrize("call, arg, error, message",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_error_message(call, arg, error, message):
    with pytest.raises(error) as info:
        call(arg)
    assert type(info.value) is error
    assert str(info.value) == message


def test_one_error_class_per_way_a_caller_reacts():
    # every failed axiom is a ValidationError and every unmet precondition
    # a PreconditionFailed, with no subclass to tell them apart
    for module in pkgutil.iter_modules(semirings.__path__):
        importlib.import_module(f"semirings.{module.name}")
    assert ValidationError.__subclasses__() == []
    assert PreconditionFailed.__subclasses__() == []
