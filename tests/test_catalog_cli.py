"""File formats, catalog persistence, and the command-line surface."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semirings
from semirings import __version__
from semirings.catalog import (
    build_catalog,
    family_report,
    load_catalog,
    parse_record,
    query_catalog,
    record_text,
    worker_count,
)
from semirings.cli import _semiring_facts, main
from semirings.endo import EndoSubsemiring, end_semiring, endomorphisms, enumerate_sr
from semirings.errors import CatalogCorrupt, CatalogMissing, ParseError, StaleVersion
from semirings.fixtures import load_fixture
from semirings.lattice import enumerate_lattices, lattice_iso, serialize_lat
from semirings.semimodule import (
    descend_to_irreducible,
    module_lattice,
    regular_module,
    representation,
    serialize_smod,
    validate_semimodule,
)
from semirings.semiring import is_congruence_simple, recover_monoid, serialize_sr, structure_flags

from reference import boolean_semiring


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def written_json(text, command):
    """The object of a ``--format json`` output, which must be written as
    ``main`` writes every result (sorted keys, indent 2, one newline) and
    name its command under ``command``."""
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["command"] == command
    return payload


def failed_json(text, command):
    """The ``error`` of a failed ``--format json`` run: one object of
    ``command``, ``ok`` false and the error, and nothing else."""
    payload = written_json(text, command)
    assert payload["ok"] is False and set(payload) == {"command", "ok", "error"}
    return payload["error"]


def test_check_lattice_file(tmp_path):
    code, text = run_cli("check", str(tmp_path / "missing.lat"))
    assert code == 2
    path = tmp_path / "chain3.lat"
    path.write_text("n 3\nname chain3\n0 1 2\n1 1 2\n2 2 2\n")
    code, text = run_cli("check", str(path))
    assert code == 0
    assert "distributive: True" in text


def test_check_semiring_file(tmp_path):
    path = tmp_path / "r2b.sr"
    path.write_text(serialize_sr(boolean_semiring()))
    code, text = run_cli("check", str(path))
    assert code == 0
    assert "congruence-simple" in text and "not a ring" in text and "|R| = 2" in text


def test_check_semiring_witness(tmp_path):
    r, _ = end_semiring(load_fixture("chain4"))
    r.name = "end_chain4"
    path = tmp_path / "end_chain4.sr"
    path.write_text(serialize_sr(r))
    code, text = run_cli("check", str(path))
    assert code == 0
    assert "dense representation witness" in text
    assert "recovered lattice of size 4" in text
    assert "faithful=True" in text and "dense=True" in text


def reference_witness(r, chain=None):
    """The witness ``check`` reported before it read R·z: the last module
    of the descent ``chain`` (computed when not given), its representation,
    and a lattice isomorphism search against the recovered monoid."""
    lat = recover_monoid(r)
    if lat is None:
        return None
    mod = (chain or descend_to_irreducible(r, check=False))[-1]
    rep = representation(r, mod)
    return {
        "recovered_lattice_size": lat.n,
        "module_size": mod.m,
        "faithful": rep.faithful,
        "dense": rep.dense,
        "module_matches_recovered_lattice": lattice_iso(module_lattice(mod), lat) is not None,
    }


def assert_facts_match_the_closure(cases):
    """``check``'s facts on each (semiring, descent chain or None) of
    ``cases`` against the references: the verdict of the closure
    ``is_congruence_simple``, and the witness that ``check`` reported
    before it read the dense representation.  Returns how many non-rings
    of order > 2 are not simple, the inputs on which ``check`` falls back
    to the closure."""
    fallbacks = 0
    for r, chain in cases:
        facts = _semiring_facts(r)
        simple = is_congruence_simple(r)
        assert facts["congruence_simple"] == simple
        theorem = r.n > 2 and not structure_flags(r).is_ring
        assert facts.get("witness") == (reference_witness(r, chain) if simple and theorem else None)
        fallbacks += theorem and not simple
    return fallbacks


def test_witness_matches_the_descent_reference(descents, sr_rings, end_subsemirings):
    """Every fixture family member and every subsemiring of End(chain3),
    End(diamond) and End(chain4)."""
    chains = {id(r): chain for pairs in descents.values() for r, chain in pairs}
    family = [r for rings in sr_rings.values() for r in rings]
    sweep = [r for rings in end_subsemirings.values() for r in rings]
    assert (len(family), len(sweep)) == (16, 952)
    assert assert_facts_match_the_closure([(r, chains.get(id(r))) for r in family + sweep]) == 907


@pytest.mark.size6
def test_witness_matches_the_descent_reference_on_size_six_families():
    names = ("lat6_11", "lat6_12", "lat6_13")
    rings = [sub.to_semiring() for lat in enumerate_lattices(6) if lat.name in names
             for sub in enumerate_sr(lat)]
    assert len(rings) == 103
    assert assert_facts_match_the_closure([(r, None) for r in rings]) == 0


def forbid_simplicity_closure(monkeypatch, message):
    """Make ``is_congruence_simple`` fail the test with ``message``,
    wherever a ``semirings`` module holds it."""
    from semirings import semiring

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    original = semiring.is_congruence_simple
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("semirings")
                and getattr(module, "is_congruence_simple", None) is original):
            monkeypatch.setattr(module, "is_congruence_simple", forbidden)


def test_check_on_a_dense_input_runs_no_congruence_closure(tmp_path, monkeypatch):
    r, _ = end_semiring(load_fixture("chain3"))
    r.name = "end_chain3"
    (tmp_path / "end_chain3.sr").write_text(serialize_sr(r))
    (tmp_path / "end_chain3.srs").write_text(SRS_JSON_CASES[1][0])
    runs = [(fmt, str(tmp_path / f"end_chain3{suffix}"))
            for suffix in (".sr", ".srs") for fmt in ("text", "json")]
    before = [run_cli("--format", fmt, "check", path) for fmt, path in runs]
    forbid_simplicity_closure(monkeypatch, "check ran a congruence closure on a dense input")
    assert [run_cli("--format", fmt, "check", path) for fmt, path in runs] == before
    assert all(code == 0 and "witness" in out for code, out in before)


def test_check_on_a_non_dense_input_falls_back_to_the_closure(tmp_path, monkeypatch):
    from semirings import cli

    calls = []
    closure = cli.is_congruence_simple
    monkeypatch.setattr(cli, "is_congruence_simple", lambda r: calls.append(r) or closure(r))
    path = tmp_path / "sub.srs"
    path.write_text(SRS_JSON_CASES[2][0])
    assert run_cli("check", str(path)) == (0, SRS_JSON_CASES[2][2])
    assert len(calls) == 1 and calls[0].n == 3


def test_check_exits_one_when_a_simple_non_ring_has_no_dense_representation(tmp_path, monkeypatch):
    from semirings import cli

    monkeypatch.setattr(cli, "iso_to_dense_subsemiring", lambda r: None)
    r, _ = end_semiring(load_fixture("chain3"))
    r.name = "end_chain3"
    path = tmp_path / "end_chain3.sr"
    path.write_text(serialize_sr(r))
    message = "congruence-simple, but not isomorphic to a dense subsemiring"
    assert run_cli("check", str(path)) == (1, f"error: Mismatch: {message}\n")
    code, out = run_cli("--format", "json", "check", str(path))
    assert code == 1
    assert failed_json(out, "check") == {"kind": "Mismatch", "message": message}


def test_check_malformed_file(tmp_path):
    path = tmp_path / "bad.sr"
    path.write_text("n x\n")
    code, text = run_cli("check", str(path))
    assert code == 2
    assert "parse error" in text


def test_check_invalid_semiring_exits_one(tmp_path):
    path = tmp_path / "bad.sr"
    path.write_text("n 2\nzero 0\n0 1\n0 1\n\n0 0\n0 0\n")
    code, text = run_cli("check", str(path))
    assert code == 1
    assert "validation failed" in text


def test_check_srs_file(tmp_path, sr_families):
    from semirings.endo import serialize_srs

    sub = sr_families["n5"][0]
    path = tmp_path / "n5_least.srs"
    path.write_text(serialize_srs(sub))
    code, text = run_cli("check", str(path))
    assert code == 0
    assert "42 members, dense=True" in text
    assert "congruence-simple" in text and "|R| = 42" in text
    assert "dense representation witness" in text


SRS_JSON_CASES = [
    ("lattice chain3\n0 0 0\n0 0 1\n0 1 1\n0 1 2\n",
     {"congruence_simple": False, "dense": False, "has_one": True, "is_ring": False,
      "kind": "subsemiring", "lattice": "chain3", "size": 4, "trivial_mul": False},
     "subsemiring of End(chain3): 4 members, dense=False\n"
     "semiring sub_of_end_chain3: not congruence-simple, not a ring, |R| = 4\n"
     "flags: add_idempotent=True has_one=True trivial_mul=False\n"),
    ("lattice chain3\n0 0 0\n0 0 1\n0 0 2\n0 1 1\n0 1 2\n0 2 2\n",
     {"congruence_simple": True, "dense": True, "has_one": True, "is_ring": False,
      "kind": "subsemiring", "lattice": "chain3", "size": 6, "trivial_mul": False,
      "witness": {"dense": True, "faithful": True,
                  "module_matches_recovered_lattice": True,
                  "module_size": 3, "recovered_lattice_size": 3}},
     "subsemiring of End(chain3): 6 members, dense=True\n"
     "semiring sub_of_end_chain3: congruence-simple, not a ring, |R| = 6\n"
     "flags: add_idempotent=True has_one=True trivial_mul=False\n"
     "dense representation witness: recovered lattice of size 3, irreducible "
     "module of size 3, faithful=True, dense=True\n"),
    # not dense, so the closure decides
    ("lattice chain3\n0 0 0\n0 1 2\n0 2 2\n",
     {"congruence_simple": False, "dense": False, "has_one": True, "is_ring": False,
      "kind": "subsemiring", "lattice": "chain3", "size": 3, "trivial_mul": False},
     "subsemiring of End(chain3): 3 members, dense=False\n"
     "semiring sub_of_end_chain3: not congruence-simple, not a ring, |R| = 3\n"
     "flags: add_idempotent=True has_one=True trivial_mul=False\n"),
]


@pytest.mark.parametrize("srs, result, text", SRS_JSON_CASES,
                         ids=["not-simple", "witness", "fallback"])
def test_check_srs_json_and_text_are_pinned(tmp_path, srs, result, text):
    path = tmp_path / "sub.srs"
    path.write_text(srs)
    code, out = run_cli("--format", "json", "check", str(path))
    assert code == 0
    assert out == json.dumps({"command": "check", "ok": True, "result": result},
                             indent=2, sort_keys=True) + "\n"
    assert run_cli("check", str(path)) == (0, text)


@pytest.mark.parametrize("name_line", ["name foo\n", ""], ids=["named", "unnamed"])
def test_check_srs_next_to_a_lattice_file_reports_the_reference(tmp_path, name_line):
    srs, result, text = SRS_JSON_CASES[1]
    (tmp_path / "foo.lat").write_text(f"n 3\n{name_line}0 1 2\n1 1 2\n2 2 2\n")
    path = tmp_path / "foo.srs"
    path.write_text(srs.replace("chain3", "foo"))
    assert run_cli("check", str(path)) == (0, text.replace("chain3", "foo"))
    payload = {"command": "check", "ok": True, "result": {**result, "lattice": "foo"}}
    assert run_cli("--format", "json", "check", str(path)) == (
        0, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("lattice_line, message", [
    ("lattice nosuch", "cannot resolve lattice 'nosuch'"),
    ("lattice renamed", "lattice 'chain3' does not match reference 'renamed'"),
])
def test_check_srs_unresolved_lattice_exits_two(tmp_path, lattice_line, message):
    (tmp_path / "renamed.lat").write_text(serialize_lat(load_fixture("chain3")))
    path = tmp_path / "sub.srs"
    path.write_text(SRS_JSON_CASES[0][0].replace("lattice chain3", lattice_line))
    assert run_cli("check", str(path)) == (2, f"parse error: {message}\n")


# each way ``main`` fails: its arguments ({tmp} is the test's directory), its
# exit code, its text, and the kind and message of its JSON error
FAILURES = [
    (("check", "{tmp}/missing.lat"), 2,
     "parse error: cannot read {tmp}/missing.lat: No such file or directory\n",
     "ParseError", "cannot read {tmp}/missing.lat: No such file or directory"),
    (("check", "{tmp}/bad.lat"), 1, "validation failed: x + x != x: witness (1,)\n",
     "ValidationError", "x + x != x: witness (1,)"),
    (("check", "{tmp}/chain3.txt"), 2, "error: unknown file type '.txt'\n",
     "UnknownFileType", "unknown file type '.txt'"),
    (("min-order", "--max-size", "8"), 1, "error: LimitExceeded: max_n=8 exceeds limit 7\n",
     "LimitExceeded", "max_n=8 exceeds limit 7"),
    (("catalog", "build", "--max-size", "8", "--out", "{tmp}/cat"), 1,
     "error: LimitExceeded: max_n=8 exceeds limit 7\n",
     "LimitExceeded", "max_n=8 exceeds limit 7"),
    (("catalog", "query", "--out", "{tmp}/cat"), 1,
     "error: CatalogMissing: no catalog at {tmp}/cat\n",
     "CatalogMissing", "no catalog at {tmp}/cat"),
]


@pytest.mark.parametrize("argv, code, text, kind, message", FAILURES,
                         ids=["parse", "validation", "suffix", "min-order", "build", "query"])
def test_each_failure_is_one_json_object(tmp_path, argv, code, text, kind, message):
    (tmp_path / "bad.lat").write_text("n 2\n0 1\n1 0\n")
    (tmp_path / "chain3.txt").write_text(serialize_lat(load_fixture("chain3")))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    command = " ".join(argv[:2]) if argv[0] == "catalog" else argv[0]
    assert run_cli(*argv) == (code, text.format(tmp=tmp_path))
    got, out = run_cli("--format", "json", *argv)
    assert got == code
    assert failed_json(out, command) == {"kind": kind, "message": message.format(tmp=tmp_path)}


def test_check_unknown_suffix_exits_two(tmp_path):
    path = tmp_path / "chain3.txt"
    path.write_text(serialize_lat(load_fixture("chain3")))
    assert run_cli("check", str(path)) == (2, "error: unknown file type '.txt'\n")
    # the suffix is rejected before the file is read
    assert run_cli("check", str(tmp_path / "missing.txt")) == (
        2, "error: unknown file type '.txt'\n")


# a file of each format that fails an axiom, and the failure ``check`` prints;
# the .smod file is the action of End(chain3) on chain3 with the action of
# the last member changed to a swap of 1 and 2
FAILED_AXIOMS = [
    ("bad.lat", "n 2\n0 1\n1 0\n", "x + x != x: witness (1,)"),
    ("bad.sr", "n 2\nzero 0\n0 1\n0 1\n\n0 0\n0 0\n", "x + y != y + x: witness (0, 1)"),
    ("bad.srs", "lattice chain3\n0 0 0\n0 0 1\n0 2 2\n",
     "member set is not closed under join and composition"),
    ("bad.smod", "ring end_chain3\nm 3\n0 1 2\n1 1 2\n2 2 2\n\n"
     "0 0 0\n0 0 1\n0 0 2\n0 1 1\n0 1 2\n0 2 1\n", "r(sx) != (rs)x: witness (1, 5, 2)"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, text, message", FAILED_AXIOMS,
                         ids=[case[0].split(".")[1] for case in FAILED_AXIOMS])
def test_check_failed_axiom_exits_one(tmp_path, fmt, name, text, message):
    write_end_chain3_modules(tmp_path)
    path = tmp_path / name
    path.write_text(text)
    code, out = run_cli("--format", fmt, "check", str(path))
    assert code == 1
    if fmt == "text":
        assert out == f"validation failed: {message}\n"
    else:
        assert failed_json(out, "check") == {"kind": "ValidationError", "message": message}


def test_validation_error_of_any_command_exits_one(monkeypatch):
    from semirings import cli
    from semirings.errors import ValidationError

    def fail(jobs):
        raise ValidationError("zero + x != x", (1,))

    monkeypatch.setattr(cli, "fixture_reports", fail)
    assert run_cli("table1") == (1, "validation failed: zero + x != x: witness (1,)\n")
    code, out = run_cli("--format", "json", "table1")
    assert code == 1
    assert failed_json(out, "table1") == {"kind": "ValidationError",
                                          "message": "zero + x != x: witness (1,)"}


@pytest.mark.parametrize("name, text, report", [
    ("two.lat", "n 2\n0 1\n1 1\n",
     "lattice: n = 2, top = 1\ndistributive: True\n"
     "dense subsemiring family is a singleton: True\n"),
    ("two.sr", "n 2\nzero 0\n0 1\n1 1\n\n0 0\n0 1\n",
     "semiring: congruence-simple, not a ring, |R| = 2\n"
     "flags: add_idempotent=True has_one=True trivial_mul=False\n"),
], ids=["lat", "sr"])
def test_check_report_of_an_unnamed_structure(tmp_path, name, text, report):
    path = tmp_path / name
    path.write_text(text)
    assert run_cli("check", str(path)) == (0, report)
    code, out = run_cli("--format", "json", "check", str(path))
    assert code == 0 and written_json(out, "check")["result"]["name"] is None


@pytest.mark.parametrize("srs", [
    # closed under join, but 001 o 022 = 011 is missing
    "lattice chain3\n0 0 0\n0 0 1\n0 2 2\n",
    # closed under join and composition, but the zero map is missing
    "lattice chain3\n0 1 1\n0 1 2\n",
], ids=["missing-composite", "missing-zero"])
def test_check_srs_not_closed_exits_one(tmp_path, srs):
    path = tmp_path / "sub.srs"
    path.write_text(srs)
    message = "member set is not closed under join and composition"
    assert run_cli("check", str(path)) == (1, f"validation failed: {message}\n")
    code, out = run_cli("--format", "json", "check", str(path))
    assert code == 1
    assert failed_json(out, "check") == {"kind": "ValidationError", "message": message}


def test_check_srs_on_a_lattice_above_one_byte_per_value_exits_one(tmp_path):
    # the zero map and the identity of a chain of 257 elements
    n = 257
    rows = [" ".join(str(max(x, y)) for y in range(n)) for x in range(n)]
    (tmp_path / "c257.lat").write_text("\n".join([f"n {n}", *rows]) + "\n")
    path = tmp_path / "c257.srs"
    path.write_text(f"lattice c257\n{' '.join(['0'] * n)}\n{' '.join(map(str, range(n)))}\n")
    code, out = run_cli("--format", "json", "check", str(path))
    assert code == 1
    assert failed_json(out, "check") == {
        "kind": "SizeLimit",
        "message": "lattice has 257 elements, above the 256 that one byte per value allows"}


def write_end_chain3_modules(tmp_path):
    """``end_chain3.sr`` and two modules over it: the regular module
    (``reg.smod``) and End(chain3) acting on chain3 (``nat.smod``)."""
    lat = load_fixture("chain3")
    r, members = end_semiring(lat)
    r.name = "end_chain3"
    (tmp_path / "end_chain3.sr").write_text(serialize_sr(r))
    (tmp_path / "reg.smod").write_text(serialize_smod(regular_module(r)))
    act = tuple(tuple(f) for f in members)
    (tmp_path / "nat.smod").write_text(serialize_smod(validate_semimodule(r, lat.join, act)))


@pytest.mark.parametrize("name, m, irreducible", [("reg", 6, False), ("nat", 3, True)])
def test_check_smod_json_and_text_are_pinned(tmp_path, name, m, irreducible):
    write_end_chain3_modules(tmp_path)
    path = tmp_path / f"{name}.smod"
    result = {"kind": "semimodule", "ring": "end_chain3", "m": m, "acts_nonzero": True,
              "sub_irreducible": irreducible, "quotient_irreducible": irreducible}
    code, out = run_cli("--format", "json", "check", str(path))
    assert code == 0
    assert out == json.dumps({"command": "check", "ok": True, "result": result},
                             indent=2, sort_keys=True) + "\n"
    assert run_cli("check", str(path)) == (0, (
        f"semimodule over end_chain3: m = {m}, |R| = 6\n"
        f"acts_nonzero=True sub_irreducible={irreducible} "
        f"quotient_irreducible={irreducible}\n"))


def test_check_smod_module_axiom_failure_exits_one(tmp_path):
    write_end_chain3_modules(tmp_path)
    path = tmp_path / "nat.smod"
    lines = path.read_text().splitlines()
    lines[-1] = "0 2 1"  # a swap of 1 and 2 does not preserve joins
    path.write_text("\n".join(lines) + "\n")
    code, text = run_cli("check", str(path))
    assert code == 1
    assert text.startswith("validation failed: ")


@pytest.mark.parametrize("ring_line, message", [
    ("ring nosuch", "cannot resolve ring 'nosuch'"),
    ("ring renamed", "ring 'end_chain3' does not match reference 'renamed'"),
])
def test_check_smod_unresolved_ring_exits_two(tmp_path, ring_line, message):
    write_end_chain3_modules(tmp_path)
    (tmp_path / "renamed.sr").write_text((tmp_path / "end_chain3.sr").read_text())
    path = tmp_path / "nat.smod"
    path.write_text(path.read_text().replace("ring end_chain3", ring_line))
    assert run_cli("check", str(path)) == (2, f"parse error: {message}\n")


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
@pytest.mark.parametrize("suffix", [".srs", ".smod"])
def test_check_reference_with_a_path_separator_exits_two(tmp_path, suffix, absolute):
    """A reference resolves only to the file next to the referring one: a
    name with a path separator resolves nothing, although here it names an
    unnamed lattice or ring file that would be accepted."""
    write_end_chain3_modules(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    (other / "x.lat").write_text(serialize_lat(load_fixture("chain3")).replace("name chain3\n", ""))
    ring = (tmp_path / "end_chain3.sr").read_text()
    (other / "x.sr").write_text(ring.replace("name end_chain3\n", ""))
    name = str(other / "x") if absolute else "../other/x"
    if suffix == ".srs":
        noun, text = "lattice", SRS_JSON_CASES[0][0].replace("chain3", name)
    else:
        noun, text = "ring", (tmp_path / "nat.smod").read_text().replace("end_chain3", name)
    (tmp_path / "here").mkdir()
    path = tmp_path / "here" / f"sub{suffix}"
    path.write_text(text)
    message = f"cannot resolve {noun} {name!r}"
    assert run_cli("check", str(path)) == (2, f"parse error: {message}\n")
    code, out = run_cli("--format", "json", "check", str(path))
    assert code == 2
    assert failed_json(out, "check") == {"kind": "ParseError", "message": message}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_smod_next_to_an_unnamed_ring_prints_the_named_report(tmp_path, fmt):
    write_end_chain3_modules(tmp_path)
    ring = (tmp_path / "end_chain3.sr").read_text()
    unnamed = tmp_path / "unnamed"
    unnamed.mkdir()
    (unnamed / "end_chain3.sr").write_text(ring.replace("name end_chain3\n", ""))
    (unnamed / "nat.smod").write_text((tmp_path / "nat.smod").read_text())
    named = run_cli("--format", fmt, "check", str(tmp_path / "nat.smod"))
    assert named[0] == 0
    assert run_cli("--format", fmt, "check", str(unnamed / "nat.smod")) == named


def test_check_non_utf8_lattice_file_exits_two(tmp_path):
    path = tmp_path / "bad.lat"
    path.write_bytes(b"n 1\nname \xff\n0\n")
    assert run_cli("check", str(path)) == (
        2, f"parse error: cannot read {path}: not UTF-8 text at byte 9\n")


def test_check_srs_next_to_a_lattice_directory_exits_two(tmp_path):
    (tmp_path / "chain3.lat").mkdir()
    path = tmp_path / "sub.srs"
    path.write_text(SRS_JSON_CASES[0][0])
    code, text = run_cli("check", str(path))
    assert code == 2
    assert text.startswith(f"parse error: cannot read {tmp_path / 'chain3.lat'}: ")


def test_min_order_below_six_is_empty():
    code, text = run_cli("min-order", "--max-size", "5")
    assert code == 0
    assert "empty result" in text


def test_min_order_json_shape():
    code, text = run_cli("--format", "json", "min-order", "--max-size", "5")
    assert code == 0
    payload = written_json(text, "min-order")
    assert payload["minimum"] is None and payload["rows"] == []
    code, text = run_cli("--format", "json", "min-order", "--max-size", "6")
    assert code == 0
    payload = written_json(text, "min-order")
    assert payload["minimum"] == 98 and payload["partial"] is False
    assert len(payload["rows"]) == 15


def test_min_order_writes_each_line_before_the_next_lattice(monkeypatch):
    """Each ``[i/n]`` line is written as soon as lattice i is done, and the
    summary after the last one: the writer of results buffers nothing of
    the progress."""
    from semirings import cli

    log = []
    dense_order = cli.dense_order

    def logged_order(lat, **kwargs):
        log.append("order")
        return dense_order(lat, **kwargs)

    class LoggedOut(io.StringIO):
        def write(self, text):
            log.append(text)
            return super().write(text)

    monkeypatch.setattr(cli, "dense_order", logged_order)
    assert main(["min-order", "--max-size", "6"], out=LoggedOut()) == 0
    *steps, summary = log
    assert steps[0::2] == ["order"] * 15
    assert [line[:line.index("]") + 1] for line in steps[1::2]] == [
        f"[{i}/15]" for i in range(1, 16)]
    assert summary == "minimum dense subsemiring order: 98\n"


def test_min_order_budget_skips_every_lattice_below_98():
    code, text = run_cli("--max-end-size", "97", "min-order", "--max-size", "6")
    assert code == 0
    *rows, last = text.splitlines()
    assert len(rows) == 15 and all(r.endswith(": skipped (budget)") for r in rows)
    assert last == "minimum dense subsemiring order: unknown (every lattice skipped)"
    code, text = run_cli("--format", "json", "--max-end-size", "97",
                         "min-order", "--max-size", "6")
    payload = written_json(text, "min-order")
    assert code == 0 and payload["partial"] is True and payload["minimum"] is None
    assert [r["min_order"] for r in payload["rows"]] == [None] * 15


def test_min_order_budget_98_finds_the_minimum():
    code, text = run_cli("--format", "json", "--max-end-size", "98",
                         "min-order", "--max-size", "6")
    payload = written_json(text, "min-order")
    assert code == 0 and payload["minimum"] == 98
    code, text = run_cli("--max-end-size", "98", "min-order", "--max-size", "6")
    assert code == 0 and text.splitlines()[-1].startswith("minimum dense subsemiring order: 98")


def test_cli_import_loads_neither_openssl_nor_multiprocessing():
    src = str(Path(semirings.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, semirings.cli; "
             "print([m for m in ('_hashlib', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_catalog_build_and_query_do_not_load_openssl(tmp_path):
    """The record digests come from the interpreter's built-in SHA-256."""
    src = str(Path(semirings.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out_dir = str(tmp_path / "cat")
    probe = ("import sys; from semirings.cli import main; "
             f"codes = (main(['catalog', 'build', '--max-size', '3', '--out', {out_dir!r}]), "
             f"main(['catalog', 'query', '--out', {out_dir!r}])); "
             "print(codes, '_hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "(0, 0) False"


def test_catalog_build_query_cycle(tmp_path):
    out_dir = tmp_path / "cat"
    code, _ = run_cli("catalog", "build", "--max-size", "4", "--out", str(out_dir))
    assert code == 0
    rows = query_catalog(out_dir, max_order=70)
    orders = sorted(m.order for _, _, m in rows)
    assert orders == [2, 6, 16, 20]
    assert query_catalog(out_dir, lattice_size=4, min_order=17)[0][2].order == 20
    code, text = run_cli("catalog", "query", "--out", str(out_dir), "--max-order", "10")
    assert code == 0 and "2 rows" in text
    code, text = run_cli("--format", "json", "catalog", "query", "--out", str(out_dir),
                         "--max-order", "10")
    assert code == 0
    assert [row["order"] for row in written_json(text, "catalog query")["rows"]] == [2, 6]
    code, text = run_cli("--format", "json", "catalog", "build", "--max-size", "4",
                         "--out", str(out_dir))
    assert code == 0 and len(written_json(text, "catalog build")["entries"]) == 4


def test_catalog_build_above_the_enumeration_limit_creates_nothing(tmp_path):
    out_dir = tmp_path / "cat"
    code, text = run_cli("catalog", "build", "--max-size", "8", "--out", str(out_dir))
    assert (code, text) == (1, "error: LimitExceeded: max_n=8 exceeds limit 7\n")
    assert not out_dir.exists()


def test_catalog_build_over_the_base_budget_creates_nothing(tmp_path):
    out_dir = tmp_path / "cat"
    code, text = run_cli("--max-sr-base", "10", "catalog", "build", "--max-size", "5",
                         "--out", str(out_dir))
    assert code == 1 and text.startswith("error: SizeLimit: ")
    assert not out_dir.exists()


def test_catalog_rebuild_is_bit_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    build_catalog(a, max_size=4)
    build_catalog(b, max_size=4)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_catalog_rebuild_prunes_unlisted_entries(tmp_path):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=4)
    stray = out_dir / "entries" / "0123456789abcdef.txt"
    stray.write_text("name stray\n")
    index = build_catalog(out_dir, max_size=3)
    entries = sorted(p.name for p in (out_dir / "entries").iterdir())
    assert entries == sorted(f"{digest}.txt" for _, digest in index)
    assert len(load_catalog(out_dir)) == len(index) == 2


def test_catalog_writes_go_through_a_rename(tmp_path, monkeypatch):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    written = []
    real_write, real_replace = Path.write_bytes, os.replace

    def write_bytes(path, *args, **kwargs):
        written.append(path)
        return real_write(path, *args, **kwargs)

    def replace(src, dst):
        if Path(dst).name == "index.txt":
            raise OSError("disk full")
        return real_replace(src, dst)

    monkeypatch.setattr(Path, "write_bytes", write_bytes)
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        build_catalog(out_dir, max_size=4)
    assert written and all(p.name.endswith(".tmp") for p in written)
    assert not list(out_dir.rglob("*.tmp"))
    # the old index and every entry it lists survive the failed rebuild
    assert all(p.read_bytes() == data for p, data in before.items())
    assert len(load_catalog(out_dir)) == 2


def test_catalog_missing_and_stale(tmp_path):
    with pytest.raises(CatalogMissing):
        query_catalog(tmp_path / "nothing")
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    (out_dir / "version.txt").write_text("0.0.0\n")
    with pytest.raises(StaleVersion):
        load_catalog(out_dir)


def redigest(out_dir, entry, data):
    """Replace ``entry`` by the bytes ``data`` under the name of their
    digest and point the index at it, so that the edited entry matches its
    digest; return the digest."""
    digest = hashlib.sha256(data).hexdigest()[:16]
    entry.unlink()
    (entry.parent / f"{digest}.txt").write_bytes(data)
    index = out_dir / "index.txt"
    index.write_text(index.read_text().replace(f" {entry.stem}\n", f" {digest}\n"))
    return digest


def test_catalog_query_malformed_member_line_exits_two(tmp_path):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    entry = next((out_dir / "entries").iterdir())
    lines = entry.read_text().splitlines(keepends=True)
    lines[5] = "member order=x\n"  # the first member line
    digest = redigest(out_dir, entry, "".join(lines).encode())
    with pytest.raises(ParseError):
        load_catalog(out_dir)
    code, out = run_cli("catalog", "query", "--out", str(out_dir))
    name = lines[0].split()[1]
    assert code == 2 and out.startswith(
        f"parse error: catalog entry {digest} of {name}: line 6: bad catalog record: ")


@pytest.mark.parametrize("old, new, parses", [
    ("has_one=1", "has_one=0", True),
    ("\nn 3\n", "\nn x3\n", False),
    ("member order=", "member ord=", False),
], ids=["still-parses", "bad-n", "bad-member-key"])
def test_catalog_query_edited_entry_exits_one(tmp_path, old, new, parses):
    """The digest is checked before the record is parsed, so an edited
    entry is corrupt whether or not it still parses."""
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    entry = next(p for p in (out_dir / "entries").iterdir() if "name lat3_1" in p.read_text())
    text = entry.read_text().replace(old, new, 1)
    entry.write_text(text)
    if parses:
        parse_record(text)
    else:
        with pytest.raises(ParseError):
            parse_record(text)
    with pytest.raises(CatalogCorrupt):
        load_catalog(out_dir)
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert code == 1 and text.startswith("error: CatalogCorrupt: ")


CHAIN3_RECORD = ("name chain3\nn 3\njoin 0 1 2 ; 1 1 2 ; 2 2 2\nend_order 6\nsr_orders 6\n"
                 "member order=6 has_one=1 self_anti_iso=1 iso_class=0\nversion 0.1.0\n")


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "unexpected end of record"),
    ("n 3\n" + CHAIN3_RECORD, 1, "expected a 'name' line"),
    (CHAIN3_RECORD.replace("n 3", "n x3"), 3, "join has 3 rows, but n is x3"),
    (CHAIN3_RECORD.replace("; 1 1 2", "; 1 x 2"), 3,
     "invalid literal for int() with base 10: 'x'"),
    (CHAIN3_RECORD.replace("end_order 6", "end_order 7"), 5,
     "sr_orders starts at 6, but end_order is 7"),
    (CHAIN3_RECORD.replace("sr_orders 6", "sr_orders 6 2"), 7, "expected a 'member' line"),
    (CHAIN3_RECORD.replace("has_one=1", "has_one=2"), 6,
     "expected 'member order=6 has_one=0|1 self_anti_iso=0|1 iso_class=<int>'"),
    (CHAIN3_RECORD.replace("version 0.1.0\n", ""), 6, "unexpected end of record"),
    (CHAIN3_RECORD + "member order=2 has_one=0 self_anti_iso=0 iso_class=1\n", 8,
     "expected the end of the record"),
], ids=["empty", "key-order", "n", "join", "end-order", "member-count", "member-flag",
        "no-version", "trailing-line"])
def test_parse_record_reads_only_the_written_layout(text, line, message):
    assert record_text(parse_record(CHAIN3_RECORD)).replace(__version__, "0.1.0") == \
        CHAIN3_RECORD
    with pytest.raises(ParseError) as info:
        parse_record(text)
    assert str(info.value) == f"line {line}: bad catalog record: {message}"


def test_catalog_query_garbage_index_line_exits_two(tmp_path):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    with (out_dir / "index.txt").open("a") as fh:
        fh.write("garbage\n")
    with pytest.raises(ParseError):
        load_catalog(out_dir)
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert code == 2 and "line 3" in text


def test_catalog_build_onto_a_file_exits_two(tmp_path):
    out_file = tmp_path / "taken"
    out_file.write_text("not a directory\n")
    code, text = run_cli("catalog", "build", "--max-size", "2", "--out", str(out_file))
    assert (code, text) == (2, f"parse error: cannot write catalog at {out_file}: Not a directory\n")
    assert out_file.read_text() == "not a directory\n"


def test_catalog_query_missing_entry_file(tmp_path):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    next((out_dir / "entries").iterdir()).unlink()
    with pytest.raises(CatalogMissing):
        load_catalog(out_dir)
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert code == 1 and "CatalogMissing" in text


def test_catalog_query_flipped_entry_byte_exits_one(tmp_path):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    entry = next((out_dir / "entries").iterdir())
    data = bytearray(entry.read_bytes())
    at = data.index(b"end_order ") + len(b"end_order ")
    data[at] ^= 1  # one digit of End(M)'s order
    entry.write_bytes(bytes(data))
    with pytest.raises(CatalogCorrupt):
        load_catalog(out_dir)
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert code == 1 and "CatalogCorrupt" in text


def test_catalog_query_non_utf8_entry_exits_one(tmp_path):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    entry = next((out_dir / "entries").iterdir())
    entry.write_bytes(entry.read_bytes() + b"\xff\n")
    with pytest.raises(CatalogCorrupt):
        load_catalog(out_dir)
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert code == 1 and "CatalogCorrupt" in text


def test_catalog_query_non_utf8_entry_under_its_own_digest_exits_two(tmp_path):
    """An entry whose bytes match their digest but are not UTF-8 text is
    a parse error, read as bytes and decoded only after the digest."""
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    entry = next((out_dir / "entries").iterdir())
    name = entry.read_text().split()[1]
    digest = redigest(out_dir, entry, b"\xff" + entry.read_bytes())
    with pytest.raises(ParseError):
        load_catalog(out_dir)
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert code == 2 and text.startswith(
        f"parse error: catalog entry {digest} of {name}: 'utf-8' codec can't decode byte 0xff")


def test_catalog_query_directory_entry_exits_two(tmp_path):
    """An entry that exists but cannot be read is a parse error, as an
    unreadable index or version file is, not a traceback."""
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    entry = next((out_dir / "entries").iterdir())
    entry.unlink()
    entry.mkdir()
    with pytest.raises(ParseError):
        load_catalog(out_dir)
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert (code, text) == (2, f"parse error: cannot read {entry}: Is a directory\n")


@pytest.mark.parametrize("name", ["index.txt", "version.txt"])
def test_catalog_query_non_utf8_index_or_version_exits_two(tmp_path, name):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    (out_dir / name).write_bytes(b"\xff\n")
    with pytest.raises(ParseError):
        load_catalog(out_dir)
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert (code, text) == (
        2, f"parse error: cannot read {out_dir / name}: not UTF-8 text at byte 0\n")


def test_catalog_index_is_pinned(tmp_path):
    """The index names each record by the digest of its text, so its hash
    pins every member's order, has_one, self_anti_iso and iso_class of
    every lattice up to size 5 across changes to the searches."""
    out_dir = tmp_path / "cat"
    assert run_cli("catalog", "build", "--max-size", "5", "--out", str(out_dir))[0] == 0
    digest = hashlib.sha256((out_dir / "index.txt").read_bytes()).hexdigest()
    assert digest == "5d5ba153a754fc082e93f1de277ddc958ed98df6cf28e6de2bce134f624bc3a6"


def test_catalog_record_round_trip():
    report = family_report(load_fixture("n5"))
    text = record_text(report)
    back = parse_record(text)
    assert back == report and record_text(back) == text


def test_family_report_descending_orders():
    report = family_report(load_fixture("m3"))
    assert report.sr_orders == [50, 47, 46, 46, 46, 45, 44]
    assert report.end_order == report.sr_orders[0]
    assert [m.iso_class for m in report.members] == [0, 1, 2, 2, 2, 3, 4]


def test_jobs_flag_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    code, _ = run_cli("catalog", "build", "--max-size", "4", "--out", str(a))
    assert code == 0
    code, _ = run_cli("--jobs", "2", "catalog", "build", "--max-size", "4", "--out", str(b))
    assert code == 0
    assert (a / "index.txt").read_bytes() == (b / "index.txt").read_bytes()


def test_usage_errors_exit_two(capsys):
    assert main(["min-order"]) == 2  # missing --max-size
    assert main(["unknown-command"]) == 2
    # no value to read a format from: text, so argparse's usage and nothing on out
    capsys.readouterr()
    assert run_cli("--format") == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: semirings")
    assert err.endswith(": error: argument --format: expected one argument\n")


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_exit_zero(flag, capsys):
    assert main([flag]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv, command, message", [
    (["min-order"], "min-order", "the following arguments are required: --max-size"),
    (["min-order", "--max-size", "6", "--bogus"], "min-order", "unrecognized arguments: --bogus"),
    (["catalog", "query", "--out", "x", "--max-size", "3"], "catalog query",
     "catalog query does not take --max-size"),
    (["catalog", "build", "--max-size", "six", "--out", "x"], "catalog",
     "argument --max-size: invalid positive_int value: 'six'"),
    (["--jobs", "0", "table1"], None, "argument --jobs: must be at least 1, got 0"),
    (["unknown-command"], None, None),  # argparse words the invalid choice by version
])
def test_usage_error_is_one_json_object(argv, command, message, capsys):
    # text: the usage and the message on stderr, as argparse writes them
    assert run_cli(*argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: semirings")
    assert message is None or err.endswith(f": error: {message}\n")
    # json: the object of a failed command on stdout, and nothing on stderr
    code, out = run_cli("--format", "json", *argv)
    assert code == 2
    error = failed_json(out, command)
    assert error["kind"] == "UsageError"
    assert error["message"] == (message or err.rpartition(": error: ")[2].rstrip("\n"))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_below_one_is_rejected_before_work(jobs, tmp_path, capsys):
    out_dir = tmp_path / "cat"
    assert main(["--jobs", jobs, "catalog", "build", "--max-size", "3",
                 "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--max-end-size", "--max-sr-base"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_budgets_below_one_are_rejected_before_work(flag, value, tmp_path, capsys):
    out_dir = tmp_path / "cat"
    assert main([flag, value, "catalog", "build", "--max-size", "3",
                 "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    code, text = run_cli(flag, value, "min-order", "--max-size", "6")
    assert (code, text) == (2, "")
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "six"])
def test_max_size_below_one_is_rejected_before_work(value, tmp_path, capsys):
    out_dir = tmp_path / "cat"
    assert main(["catalog", "build", "--max-size", value, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    code, text = run_cli("min-order", "--max-size", value)
    assert (code, text) == (2, "")
    assert "--max-size" in capsys.readouterr().err
    code, text = run_cli("--format", "json", "min-order", "--max-size", value)
    assert code == 2
    assert "--max-size" in failed_json(text, "min-order")["message"]


@pytest.mark.parametrize("flags, named", [
    (["--min-order", "5", "--has-one", "1"], "--min-order, --has-one"),
    (["--max-order", "9"], "--max-order"),
    (["--lattice-size", "4", "--max-size", "3"], "--lattice-size"),
])
def test_catalog_build_rejects_query_flags_before_work(flags, named, tmp_path, capsys):
    out_dir = tmp_path / "cat"
    code, text = run_cli("catalog", "build", *flags, "--out", str(out_dir))
    assert (code, text) == (2, "")
    assert not out_dir.exists()
    assert f"catalog build does not take {named}" in capsys.readouterr().err


def test_catalog_query_rejects_max_size_before_work(tmp_path, capsys):
    out_dir = tmp_path / "cat"
    build_catalog(out_dir, max_size=3)
    for argv in (["catalog", "query", "--max-size", "3", "--out", str(out_dir)],
                 ["catalog", "query", "--out", str(tmp_path / "missing"), "--max-size", "3",
                  "--min-order", "1"]):
        assert run_cli(*argv) == (2, "")
        assert "catalog query does not take --max-size" in capsys.readouterr().err
    code, text = run_cli("catalog", "query", "--out", str(out_dir))
    assert code == 0 and text.endswith(" rows\n")


def test_catalog_build_max_size_defaults_to_five(tmp_path, monkeypatch):
    from semirings import cli

    calls = []
    monkeypatch.setattr(cli, "build_catalog", lambda out, **kwargs: calls.append(kwargs) or [])
    assert run_cli("catalog", "build", "--out", str(tmp_path / "a"))[0] == 0
    assert run_cli("catalog", "build", "--max-size", "2", "--out", str(tmp_path / "b"))[0] == 0
    assert [kwargs["max_size"] for kwargs in calls] == [5, 2]


def test_worker_count_caps_at_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert worker_count(10 ** 9, 100) == 4
    assert worker_count(3, 100) == 3
    assert worker_count(10 ** 9, 2) == 2
    assert worker_count(8, 0) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(8, 5) == 1


def test_table1_matches_expected_data():
    code, text = run_cli("--format", "json", "table1")
    assert code == 0
    payload = written_json(text, "table1")
    assert payload["ok"] and payload["mismatches"] == []
    orders = {row["name"]: [m["order"] for m in row["members"]]
              for row in payload["rows"]}
    assert orders["m3"] == [50, 47, 46, 46, 46, 45, 44]
    # the digest pins every flag of every row and the JSON layout
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "84aca631095d653b193e91e5adfd024af42e5c26111f076c41966487eddb396f")


TABLE1_ROWS = """\
lattice     n |End|  family orders and flags
--------------------------------------------
l2          2     2  2<0>(self-anti)
chain3      3     6  6<0>(self-anti)
chain4      4    20  20<0>(self-anti)
diamond     4    16  16<0>(self-anti)
chain5      5    70  70<0>(self-anti)
lat50a      5    50  50<0>
lat50b      5    50  50<0>
n5          5    43  43<0>(self-anti) 42<1>(no-one,self-anti)
m3          5    50  50<0>(self-anti) 47<1>(self-anti) 46<2>(self-anti) 46<2>(self-anti) \
46<2>(self-anti) 45<3>(self-anti) 44<4>(no-one,self-anti)
"""


def test_table1_text_is_pinned():
    assert run_cli("table1") == (0, TABLE1_ROWS + "all rows match the expected data\n")


def test_table1_text_lists_mismatches_and_exits_one(monkeypatch):
    from semirings import catalog

    expected = catalog.expected_families()
    expected["chain3"]["has_one"] = [False]
    monkeypatch.setattr(catalog, "expected_families", lambda: expected)
    assert run_cli("table1") == (
        1, TABLE1_ROWS + "MISMATCHES:\n  chain3: has_one [True] != [False]\n")


def test_catalog_build_makes_no_cayley_table_and_no_simplicity_check(tmp_path, monkeypatch):
    """Density proves every member congruence-simple (the lemma in
    ``iso_to_dense_subsemiring``'s docstring), so the build neither builds
    a member's table nor runs ``is_congruence_simple``, wherever a module
    holds it.  The one table it builds is End(M)'s, once for each lattice
    whose family has more than one member, for the walk of
    ``enumerate_sr``."""
    walked = [lat for lat in enumerate_lattices(5) if lat.n >= 2 and len(enumerate_sr(lat)) > 1]
    assert [lat.name for lat in walked] == ["lat5_4", "lat5_5"]  # M_3 and N_5
    tables = []
    to_semiring = EndoSubsemiring.to_semiring

    def logged(sub, *args, **kwargs):
        tables.append(sub)
        return to_semiring(sub, *args, **kwargs)

    monkeypatch.setattr(EndoSubsemiring, "to_semiring", logged)
    forbid_simplicity_closure(monkeypatch, "the catalog build checked a member for simplicity")
    out_dir = tmp_path / "cat"
    assert run_cli("catalog", "build", "--max-size", "5", "--out", str(out_dir))[0] == 0
    digest = hashlib.sha256((out_dir / "index.txt").read_bytes()).hexdigest()
    assert digest == "5d5ba153a754fc082e93f1de277ddc958ed98df6cf28e6de2bce134f624bc3a6"
    assert [sub.lattice for sub in tables] == walked
    assert tables == [EndoSubsemiring(lat, endomorphisms(lat)) for lat in walked]


def test_compare_reports_mismatches():
    from dataclasses import replace

    from semirings.catalog import compare_with_expected, family_report

    reports = [family_report(load_fixture(name))
               for name in ("l2", "chain3", "chain4", "diamond")]
    # partial report lists only flag the missing fixtures, wrong values diff
    diffs = compare_with_expected(reports)
    assert all("no report computed" in d for d in diffs)
    broken = [replace(r, members=(replace(r.members[0], order=99),)) if r.name == "chain3"
              else r for r in reports]
    diffs = compare_with_expected(broken)
    assert any("chain3" in d and "99" in d for d in diffs)


def test_compare_checks_each_anti_isomorphic_pair_once(monkeypatch):
    from semirings import catalog

    reports = [family_report(load_fixture(name)) for name in ("lat50a", "lat50b")]
    searched = []

    def counting_lattice_iso(lat1, lat2):
        searched.append((lat1.name, lat2.name))
        return lattice_iso(lat1, lat2)

    monkeypatch.setattr(catalog, "lattice_iso", counting_lattice_iso)
    diffs = catalog.compare_with_expected(reports)
    assert not [d for d in diffs if "anti-isomorphism" in d]
    assert searched == [("lat50a", "lat50b~")]


def test_compare_flags_a_partner_whose_join_is_not_dual():
    from dataclasses import replace

    from semirings.catalog import compare_with_expected

    a, b = (family_report(load_fixture(name)) for name in ("lat50a", "lat50b"))
    # lat50a is not self-dual, so End(lat50a) is not anti-isomorphic to itself
    diffs = compare_with_expected([a, replace(b, join=a.join)])
    assert "lat50a: no anti-isomorphism onto End(lat50b)" in diffs
