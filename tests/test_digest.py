"""The content address of a catalog record: the first 16 hex digits of its
SHA-256, taken from the interpreter's built-in module and, where that is
missing, from ``hashlib``.  Both must give what ``hashlib`` gives."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirings import catalog
from semirings.catalog import _digest, build_catalog


def hashlib_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def catalog5_records(tmp_path_factory):
    """The text of every record of ``catalog build --max-size 5``, by the
    digest its file is named after."""
    out = tmp_path_factory.mktemp("cat")
    index = build_catalog(out, max_size=5)
    records = {digest: (out / "entries" / f"{digest}.txt").read_text(encoding="utf-8")
               for _, digest in index}
    assert len(records) == len(index) == 9
    return records


def test_digests_of_the_catalog_records_are_hashlib_digests(catalog5_records):
    for digest, text in catalog5_records.items():
        assert _digest(text.encode()) == hashlib_digest(text) == digest


def test_the_hashlib_fallback_gives_the_same_digests(catalog5_records, monkeypatch):
    monkeypatch.setattr(catalog, "_sha256", None)
    for digest, text in catalog5_records.items():
        assert _digest(text.encode()) == digest
    for text in ("", "name é\n", "∨ ∧ 𝔽\n"):
        assert _digest(text.encode()) == hashlib_digest(text)


NON_ASCII = st.characters(min_codepoint=0x80, exclude_categories=("Cs",))


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet=NON_ASCII, min_size=1))
def test_digests_of_any_text_are_hashlib_digests(text):
    assert _digest(text.encode()) == hashlib_digest(text)
