"""Fuzzing of the four text formats: any input either fails with a typed
``ParseError``/``ValidationError`` or round-trips exactly.

Inputs are arbitrary text, lines of format keywords and numbers, and
single-token mutations (replace, delete or insert one token) of fixture
text.  A parsed object must serialize to text that parses back to the same
object and serializes to the same text again.  A ``ParseError`` names no
line or a 1-based line of the text (line 1 for an empty text).
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirings.cli import reference_resolver
from semirings.endo import enumerate_sr, parse_srs, serialize_srs
from semirings.errors import ParseError, ValidationError
from semirings.fixtures import load_fixture
from semirings.lattice import parse_lat, serialize_lat
from semirings.semimodule import parse_smod, regular_module, serialize_smod
from semirings.semiring import parse_sr, serialize_sr

from reference import boolean_semiring

CHAIN3 = load_fixture("chain3")
BOOLEAN = boolean_semiring()
LEAST_DENSE_CHAIN3 = enumerate_sr(CHAIN3)[0]


# the references resolve by ``check``'s name rule, among them
# ``boolean.sr`` and the bundled ``chain3``
REFERENCES = Path(__file__).resolve().parent / "references"


def _load_srs(text):
    return parse_srs(text, reference_resolver(REFERENCES, ".lat"))


def _load_smod(text):
    return parse_smod(text, reference_resolver(REFERENCES, ".sr"))


# format -> (load, serialize, identity of a loaded object, fixture texts)
FORMATS = {
    "lat": (parse_lat, serialize_lat,
            lambda lat: (lat.join, lat.zero, lat.name),
            [serialize_lat(load_fixture(name)) for name in ("chain3", "diamond", "n5")]),
    "sr": (parse_sr, serialize_sr,
           lambda r: (r.n, r.zero, r.add, r.mul, r.name),
           [serialize_sr(BOOLEAN), serialize_sr(LEAST_DENSE_CHAIN3.to_semiring(name="c3"))]),
    "srs": (_load_srs, serialize_srs,
            lambda sub: (sub.lattice.name, sub.members),
            [serialize_srs(LEAST_DENSE_CHAIN3)]),
    "smod": (_load_smod, serialize_smod,
             lambda mod: (mod.ring.name, mod.madd, mod.act),
             [serialize_smod(regular_module(BOOLEAN))]),
}

TOKENS = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["", "n", "name", "zero", "m", "ring", "lattice", "x", "1.5",
                     "boolean", "chain3", "\n", "\t"]),
)

KEYWORD_LINES = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=10).map(
    "\n".join)


@st.composite
def mutations(draw, texts):
    """One fixture text with one space-separated token replaced, deleted,
    or preceded by an inserted token."""
    lines = draw(st.sampled_from(texts)).split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    words = lines[i].split(" ")
    j = draw(st.integers(0, len(words) - 1))
    op = draw(st.sampled_from(["replace", "delete", "insert"]))
    if op == "replace":
        words[j] = draw(TOKENS)
    elif op == "delete":
        del words[j]
    else:
        words.insert(j, draw(TOKENS))
    lines[i] = " ".join(words)
    return "\n".join(lines)


def inputs(fmt):
    return st.one_of(st.text(max_size=60), KEYWORD_LINES, mutations(FORMATS[fmt][3]))


def assert_rejected_or_round_trips(fmt, text):
    load, serialize, identity, _ = FORMATS[fmt]
    try:
        obj = load(text)
    except ParseError as exc:
        assert exc.line is None or 1 <= exc.line <= max(1, len(text.splitlines())), exc
        return
    except ValidationError:
        return
    out = serialize(obj)
    back = load(out)
    assert identity(back) == identity(obj)
    assert serialize(back) == out


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_fixture_texts_round_trip(fmt):
    load, serialize, _, texts = FORMATS[fmt]
    for text in texts:
        assert serialize(load(text)) == text


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("text", ["", "\n\n", "  \n"])
def test_a_text_without_content_fails_on_a_line_of_it(fmt, text):
    load = FORMATS[fmt][0]
    with pytest.raises(ParseError) as info:
        load(text)
    assert info.value.line == max(1, len(text.splitlines()))
    assert_rejected_or_round_trips(fmt, text)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_parser_rejects_or_round_trips(fmt, data):
    assert_rejected_or_round_trips(fmt, data.draw(inputs(fmt)))
