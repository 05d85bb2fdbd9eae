"""Family reports per lattice and their persistence as a text catalog.

A catalog is a directory of content-addressed plain-text records, one per
lattice isomorphism class, plus an index and a version stamp.  Records
contain no floats and no wall-clock data, so rebuilding with the same
tool version is bit-identical.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import __version__
from .closure import mask_of
from .endo import SR_BASE_LIMIT, enumerate_sr, transpose
from .errors import CatalogCorrupt, CatalogMissing, ParseError, StaleVersion, read_text
from .fixtures import FIXTURE_NAMES, load_fixture
from .lattice import FiniteLattice, dual, enumerate_lattices, lattice_iso

# The interpreter's built-in SHA-256, which, unlike hashlib, does not load
# OpenSSL; None on an interpreter built without it.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        _sha256 = None


@dataclass(frozen=True)
class MemberReport:
    order: int
    has_one: bool
    self_anti_iso: bool
    iso_class: int


@dataclass(frozen=True)
class FamilyReport:
    """The dense family of the lattice with table ``join``, largest member
    first."""

    name: str
    join: tuple
    members: tuple

    @property
    def n(self):
        return len(self.join)

    @property
    def end_order(self):
        return self.members[0].order  # End(M) is dense: the top of the family

    @property
    def sr_orders(self):
        return [m.order for m in self.members]


def family_report(lat, max_end=SR_BASE_LIMIT):
    """Compute the dense-subsemiring family of a lattice with all flags,
    read off the lattice by :func:`member_reports`.

    Members come in the reverse of :func:`enumerate_sr`'s order: by
    descending size, and members of one size in descending order of their
    sorted member lists.

    Every member is congruence-simple, so no member's Cayley table is
    built to check it (the walk builds End(M)'s table alone):
    :func:`enumerate_sr` returns only closed sets of maps above
    the elementary closure, and a dense R is simple by the "if" half of
    the paper's theorem, whose lemma is in the docstring of
    ``semimodule.iso_to_dense_subsemiring``.
    """
    families = list(reversed(enumerate_sr(lat, max_end=max_end)))
    return FamilyReport(name=lat.name or f"lat{lat.n}", join=lat.join,
                        members=member_reports(lat, families))


def member_reports(lat, families):
    """The reports of the dense subsemirings ``families`` of End(M), M the
    lattice ``lat``, End(M) first, read off M by these lemmas alone.

    - Isomorphy.  Every isomorphism φ from a dense R to a dense S is a
      conjugation r -> ψ∘r∘ψ⁻¹ by an isomorphism ψ of their lattices.  φ
      fixes the additively absorbing z = e_{0,top}, so it carries the left
      ideal R·z = {e_{0,m}}, a copy of M (the lemma of
      ``semimodule.iso_to_dense_subsemiring``), onto S·z; ψ is read off
      φ(e_{0,m}) = e_{0,ψ(m)}, and φ(r)∘e_{0,ψ(m)} = φ(r∘e_{0,m}) =
      e_{0,ψ(r(m))} gives φ(r) = ψ∘r∘ψ⁻¹.  So two members are isomorphic
      iff one orbit of Aut(M), acting by conjugation, holds both.
    - Aut(M) consists of the bijective members of End(M): if f is a
      bijective join homomorphism and f(x) <= f(y), then f(x ∨ y) = f(y),
      so x ∨ y = y.
    - The class key.  Conjugation by σ in Aut(M) is an automorphism of
      End(M), so it permutes End(M)'s rows; each σ is one list, the index
      of σ∘f∘σ⁻¹ for each row f, and a member S, as the indices of its
      rows, goes to σ(S) by reading that list.  The σ-images of S are
      exactly S's orbit, so their least mask is a member of the orbit and
      determines it: the key of S.  Classes are numbered by first member,
      so the numbers depend on the partition into orbits alone, not on the
      key that tells the orbits apart.
    - Anti-isomorphy.  ``endo.transpose`` is an anti-isomorphism
      End(M) -> End(M^d) with e_{a,b}^T = e^d_{b,a}, so S^op is isomorphic
      to S^T, a dense subsemiring of End(M^d).  By the isomorphy lemma,
      S ≅ S^T needs an isomorphism τ: M^d -> M, and then holds iff
      t(S) = τ∘S^T∘τ⁻¹ lies in the orbit of S, that is, has the key of S;
      any τ serves, the others being α∘τ with α in Aut(M).  t is one more
      list of indices, the index of τ∘f^T∘τ⁻¹ for each row f.
    - A one e of S satisfies e∘e_{0,b} = e_{0,b}, which at the top reads
      e(b) = b, so S has a one iff the identity is a member (on one
      element the identity is the zero map, the one of the zero ring).

    A member is the list of its rows' indices in End(M), read off its
    ``member_bytes`` by End(M)'s row dict, so no image tuple is decoded
    and sets built from tuples serve too; the lists of σ and of t are built
    once per lattice, by :func:`_conjugations`.
    """
    at, perms, t = _conjugations(lat, families[0].member_bytes())  # End(M) first
    ident = at(bytes(range(lat.n)))
    classes = {}

    def key(index):
        return min(mask_of(map(p.__getitem__, index)) for p in perms)

    def report(s):
        index = list(map(at, s.member_bytes()))
        k = key(index)
        return MemberReport(order=s.size, has_one=ident in index,
                            self_anti_iso=t is not None and key([t[i] for i in index]) == k,
                            iso_class=classes.setdefault(k, len(classes)))

    return tuple(map(report, families))


def _conjugations(lat, end):
    """(at, perms, t) for End(M)'s rows ``end``, M the lattice ``lat``:
    ``at`` gives the index of a row; ``perms`` holds one list per σ in
    Aut(M), the bijective rows in order, of the index of σ∘f∘σ⁻¹ for each
    row f; ``t`` is the list of the index of τ∘f^T∘τ⁻¹ for each row f, τ
    an isomorphism M^d -> M, or None when there is none."""
    at = {f: i for i, f in enumerate(end)}.__getitem__

    def conjugation(s, maps):
        """The index of s∘f∘s⁻¹ for each f of ``maps``, s a bijection: it
        sends s(x) to s(f(x)), so its row is read off the pairs (s(x), f(x))
        in ascending order."""
        return [at(bytes([s[v] for _, v in sorted(zip(s, f))])) for f in maps]

    flip = lattice_iso(dual(lat), lat)
    t = None if flip is None else conjugation(flip.mapping, [transpose(lat, f) for f in end])
    return at, [conjugation(s, end) for s in end if len(set(s)) == lat.n], t


def worker_count(jobs, tasks):
    """Worker processes worth starting: at most one per CPU and per task."""
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def family_reports(lats, max_end=SR_BASE_LIMIT, jobs=1):
    """Reports for several lattices, in input order regardless of jobs."""
    budgets = [max_end] * len(lats)
    jobs = worker_count(jobs, len(lats))
    if jobs == 1:
        return list(map(family_report, lats, budgets))
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(family_report, lats, budgets))


def expected_families():
    text = resources.files("semirings.data").joinpath("expected_families.json").read_text()
    return json.loads(text)


def compare_with_expected(reports):
    """Differences between computed fixture reports and the data file."""
    expected = expected_families()
    byname = {r.name: r for r in reports}
    diffs = []
    for name in FIXTURE_NAMES:
        want = expected[name]
        got = byname.get(name)
        if got is None:
            diffs.append(f"{name}: no report computed")
            continue
        if got.end_order != want["end_order"]:
            diffs.append(f"{name}: end order {got.end_order} != {want['end_order']}")
        if got.sr_orders != want["sr_orders"]:
            diffs.append(f"{name}: family orders {got.sr_orders} != {want['sr_orders']}")
            continue
        for key, attr in (("has_one", "has_one"),
                          ("self_anti_iso", "self_anti_iso"),
                          ("iso_classes", "iso_class")):
            got_vals = [getattr(m, attr) for m in got.members]
            if got_vals != want[key]:
                diffs.append(f"{name}: {key} {got_vals} != {want[key]}")
    # The inverse of an anti-isomorphism is one, so each unordered partner
    # pair is checked once, in the order it is first listed.
    checked = set()
    for name in FIXTURE_NAMES:
        partner = expected[name].get("anti_iso_partner")
        if not partner or frozenset((name, partner)) in checked:
            continue
        checked.add(frozenset((name, partner)))
        r1 = byname.get(name)
        r2 = byname.get(partner)
        if r1 is None or r2 is None:
            continue
        # End(L1) is anti-isomorphic to End(L2) iff End(L1) ≅ End(L2^d), by
        # the transpose, iff L1 ≅ L2^d, by the isomorphy lemma of
        # member_reports; each report's table is that of its lattice
        lat1 = FiniteLattice(r1.join, name=name)
        if lattice_iso(lat1, dual(FiniteLattice(r2.join, name=partner))) is None:
            diffs.append(f"{name}: no anti-isomorphism onto End({partner})")
    return diffs


def fixture_reports(jobs=1):
    return family_reports([load_fixture(n) for n in FIXTURE_NAMES], jobs=jobs)


def render_report_table(reports):
    header = f"{'lattice':10s} {'n':>2s} {'|End|':>5s}  family orders and flags"
    lines = [header, "-" * len(header)]
    for r in reports:
        cells = []
        for m in r.members:
            flags = []
            if not m.has_one:
                flags.append("no-one")
            if m.self_anti_iso:
                flags.append("self-anti")
            tag = f"{m.order}<{m.iso_class}>"
            if flags:
                tag += "(" + ",".join(flags) + ")"
            cells.append(tag)
        lines.append(f"{r.name:10s} {r.n:2d} {r.end_order:5d}  " + " ".join(cells))
    return "\n".join(lines)


def member_json(m):
    """The JSON object of a member, in table1 rows and catalog query rows."""
    return {"order": m.order, "has_one": m.has_one, "self_anti_iso": m.self_anti_iso,
            "iso_class": m.iso_class}


def report_json(report):
    return {
        "name": report.name,
        "n": report.n,
        "join": [list(row) for row in report.join],
        "end_order": report.end_order,
        "members": [member_json(m) for m in report.members],
    }


# ---------------------------------------------------------------------------
# persistence


def record_text(report):
    """The text of a record, one ``key value`` line each, which
    :func:`parse_record` reads back."""
    lines = [
        f"name {report.name}",
        f"n {report.n}",
        "join " + " ; ".join(" ".join(map(str, row)) for row in report.join),
        f"end_order {report.end_order}",
        "sr_orders " + " ".join(map(str, report.sr_orders)),
        *(f"member order={m.order} has_one={int(m.has_one)} "
          f"self_anti_iso={int(m.self_anti_iso)} iso_class={m.iso_class}" for m in report.members),
        f"version {__version__}",
    ]
    return "\n".join(lines) + "\n"


# the value of a member line, after "member "
_MEMBER = re.compile(r"order=(\d+) has_one=([01]) self_anti_iso=([01]) iso_class=(\d+)",
                     re.ASCII)


def parse_record(text):
    """The report of a record in the layout :func:`record_text` writes.

    Each line is read by its key, in this order: ``name``, ``n``,
    ``join``, ``end_order``, ``sr_orders``, one ``member`` line per order
    in ``sr_orders`` and ``version``, whose value is not read (the
    catalog's ``version.txt`` is its one version check).  ``n``,
    ``end_order`` and each member's order must be the size of the join
    table, the first order and the member's order in ``sr_orders``.  Any
    other text is a ``ParseError`` naming its line.
    """
    lines = text.splitlines()
    number = 0

    def value(key):
        nonlocal number
        if number == len(lines):
            raise ValueError("unexpected end of record")
        number += 1
        found, _, rest = lines[number - 1].partition(" ")
        if found != key:
            raise ValueError(f"expected a '{key}' line")
        return rest

    try:
        name, n = value("name"), value("n")
        join = tuple(tuple(map(int, row.split(" "))) for row in value("join").split(" ; "))
        if n != str(len(join)):
            raise ValueError(f"join has {len(join)} rows, but n is {n}")
        end_order, orders = value("end_order"), value("sr_orders").split(" ")
        if end_order != orders[0]:
            raise ValueError(f"sr_orders starts at {orders[0]}, but end_order is {end_order}")
        members = []
        for order in orders:
            fields = _MEMBER.fullmatch(value("member"))
            if fields is None or fields[1] != order:
                raise ValueError(f"expected 'member order={order} has_one=0|1 "
                                 "self_anti_iso=0|1 iso_class=<int>'")
            members.append(MemberReport(int(order), fields[2] == "1", fields[3] == "1",
                                        int(fields[4])))
        value("version")
        if number < len(lines):
            number += 1
            raise ValueError("expected the end of the record")
    except ValueError as exc:
        raise ParseError(f"bad catalog record: {exc}", max(1, number))
    return FamilyReport(name=name, join=join, members=tuple(members))


def _digest(data):
    """Content address of a record: the first 16 hex digits of the SHA-256
    of its UTF-8 bytes ``data``, from the built-in module resolved at
    import, else from hashlib."""
    if _sha256 is not None:
        return _sha256(data).hexdigest()[:16]
    import hashlib  # loads OpenSSL; only without the built-in SHA-256

    return hashlib.sha256(data).hexdigest()[:16]


def _write_atomic(path, text):
    """Write the UTF-8 bytes of ``text`` to ``path`` through a temporary
    file and a rename, so a reader sees the old file or the new one, never
    a partial write."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text.encode())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def build_catalog(out_dir, max_size=5, max_end=SR_BASE_LIMIT, jobs=1):
    """Write one record per lattice class of sizes 2..max_size.

    Idempotent: identical tool versions produce identical bytes.  Every
    file is replaced atomically, entries first and the index after them,
    so the index never names an entry not yet written; entry files the new
    index does not list are then removed.  Returns the list of
    (name, digest) pairs.  Every report is computed before the first
    directory is made, so a ``max_size`` above the enumeration limit
    (LimitExceeded) or a lattice over ``max_end`` (SizeLimit) creates
    nothing.
    """
    lats = [l for l in enumerate_lattices(max_size) if l.n >= 2]
    reports = family_reports(lats, max_end=max_end, jobs=jobs)
    out = Path(out_dir)
    entries_dir = out / "entries"
    entries_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for report in reports:
        text = record_text(report)
        digest = _digest(text.encode())
        _write_atomic(entries_dir / f"{digest}.txt", text)
        index.append((report.name, digest))
    _write_atomic(out / "index.txt",
                  "".join(f"{name} {digest}\n" for name, digest in sorted(index)))
    _write_atomic(out / "version.txt", __version__ + "\n")
    listed = {f"{digest}.txt" for _, digest in index}
    for path in entries_dir.glob("*.txt"):
        if path.name not in listed:
            path.unlink()
    return index


def load_catalog(out_dir):
    out = Path(out_dir)
    index_path = out / "index.txt"
    if not index_path.exists():
        raise CatalogMissing(f"no catalog at {out_dir}")
    version = read_text(out / "version.txt").strip() if (out / "version.txt").exists() else ""
    if version != __version__:
        raise StaleVersion(f"catalog built by {version!r}, tool is {__version__!r}")
    reports = []
    for i, line in enumerate(read_text(index_path).splitlines()):
        parts = line.split()
        if len(parts) != 2 or not all(c in "0123456789abcdef" for c in parts[1]):
            raise ParseError(f"bad catalog index entry {line!r}", i + 1)
        name, digest = parts
        path = out / "entries" / f"{digest}.txt"
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise CatalogMissing(f"catalog entry {digest} of {name} is missing")
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
        if _digest(data) != digest:
            raise CatalogCorrupt(f"catalog entry {digest} of {name} does not match its digest")
        try:
            reports.append(parse_record(data.decode()))
        except (ParseError, UnicodeDecodeError) as exc:
            raise ParseError(f"catalog entry {digest} of {name}: {exc}") from None
    return reports


def query_catalog(out_dir, min_order=None, max_order=None, has_one=None,
                  lattice_size=None):
    """Rows of (lattice name, n, member) matching the filters, ``has_one``
    given as a bool or as 0 or 1."""
    return [(r.name, r.n, m) for r in load_catalog(out_dir)
            if lattice_size is None or r.n == lattice_size
            for m in r.members
            if (min_order is None or m.order >= min_order)
            and (max_order is None or m.order <= max_order)
            and (has_one is None or m.has_one == has_one)]
