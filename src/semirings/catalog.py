"""Family reports per lattice and their persistence as a text catalog.

A catalog is a directory of content-addressed plain-text records, one per
lattice isomorphism class, plus an index and a version stamp.  Records
contain no floats and no wall-clock data, so rebuilding with the same
tool version is bit-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import __version__
from .endo import SR_BASE_LIMIT, end_semiring, enumerate_sr
from .errors import CatalogCorrupt, CatalogMissing, Mismatch, ParseError, StaleVersion, read_text
from .fixtures import FIXTURE_NAMES, load_fixture
from .lattice import enumerate_lattices, validate_lattice
from .semiring import (
    check_iso,
    is_congruence_simple,
    semiring_anti_iso,
    semiring_iso,
    structure_flags,
)


@dataclass(frozen=True)
class MemberReport:
    order: int
    has_one: bool
    self_anti_iso: bool
    iso_class: int


@dataclass(frozen=True)
class FamilyReport:
    name: str
    n: int
    join: tuple
    end_order: int
    members: tuple

    @property
    def sr_orders(self):
        return [m.order for m in self.members]


def family_report(lat, max_end=SR_BASE_LIMIT):
    """Compute the dense-subsemiring family of a lattice with all flags.

    Members are ordered by descending size; equal-size members keep the
    deterministic enumeration order.  ``Mismatch`` if a member is not
    congruence-simple.
    """
    families = list(reversed(enumerate_sr(lat, max_end=max_end)))
    end_order = families[0].size  # End(M) is dense: the top of the family
    rings = [f.to_semiring() for f in families]
    for r in rings:
        if not is_congruence_simple(r):
            raise Mismatch(f"family member of order {r.n} is not congruence-simple")
    iso_class = [None] * len(rings)
    next_class = 0
    for i, r in enumerate(rings):
        if iso_class[i] is not None:
            continue
        iso_class[i] = next_class
        for j in range(i + 1, len(rings)):
            if iso_class[j] is None and rings[j].n == r.n:
                mapping = semiring_iso(r, rings[j])
                if mapping is not None:
                    assert check_iso(r, rings[j], mapping)
                    iso_class[j] = next_class
        next_class += 1
    members = tuple(
        MemberReport(
            order=r.n,
            has_one=structure_flags(r).has_one,
            self_anti_iso=semiring_anti_iso(r, r) is not None,
            iso_class=iso_class[i],
        )
        for i, r in enumerate(rings)
    )
    return FamilyReport(
        name=lat.name or f"lat{lat.n}",
        n=lat.n,
        join=lat.join,
        end_order=end_order,
        members=members,
    )


def _family_worker(args):
    join, zero, name, max_end = args
    lat = validate_lattice(join, zero=zero, name=name)
    return family_report(lat, max_end=max_end)


def worker_count(jobs, tasks):
    """Worker processes worth starting: at most one per CPU and per task."""
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def family_reports(lats, max_end=SR_BASE_LIMIT, jobs=1):
    """Reports for several lattices, in input order regardless of jobs."""
    tasks = [(lat.join, lat.zero, lat.name, max_end) for lat in lats]
    jobs = worker_count(jobs, len(tasks))
    if jobs == 1:
        return [_family_worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_family_worker, tasks))


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
        s1, _ = end_semiring(validate_lattice(r1.join, name=name))
        s2, _ = end_semiring(validate_lattice(r2.join, name=partner))
        mapping = semiring_anti_iso(s1, s2)
        if mapping is None or not check_iso(s1, s2, mapping, anti=True):
            diffs.append(f"{name}: no anti-isomorphism onto End({partner})")
    return diffs


def fixture_reports(jobs=1):
    return family_reports([load_fixture(n) for n in FIXTURE_NAMES], jobs=jobs)


def render_report_table(reports):
    lines = []
    header = f"{'lattice':10s} {'n':>2s} {'|End|':>5s}  family orders and flags"
    lines.append(header)
    lines.append("-" * len(header))
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


def report_json(report):
    return {
        "name": report.name,
        "n": report.n,
        "join": [list(row) for row in report.join],
        "end_order": report.end_order,
        "members": [
            {
                "order": m.order,
                "has_one": m.has_one,
                "self_anti_iso": m.self_anti_iso,
                "iso_class": m.iso_class,
            }
            for m in report.members
        ],
    }


# ---------------------------------------------------------------------------
# persistence


def record_text(report):
    lines = [
        f"name {report.name}",
        f"n {report.n}",
        "join " + " ; ".join(" ".join(str(v) for v in row) for row in report.join),
        f"end_order {report.end_order}",
        "sr_orders " + " ".join(str(m.order) for m in report.members),
    ]
    for m in report.members:
        lines.append(
            f"member order={m.order} has_one={int(m.has_one)} "
            f"self_anti_iso={int(m.self_anti_iso)} iso_class={m.iso_class}"
        )
    lines.append(f"version {__version__}")
    return "\n".join(lines) + "\n"


def parse_record(text):
    fields = {}
    members = []
    for i, line in enumerate(text.splitlines()):
        parts = line.split(None, 1)
        if not parts:
            continue
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key == "member":
            try:
                entry = {k: int(v) for k, v in (item.split("=") for item in rest.split())}
                members.append(MemberReport(
                    order=entry["order"],
                    has_one=bool(entry["has_one"]),
                    self_anti_iso=bool(entry["self_anti_iso"]),
                    iso_class=entry["iso_class"],
                ))
            except (KeyError, ValueError) as exc:
                raise ParseError(f"bad catalog member entry: {exc}", i + 1)
        else:
            fields[key] = rest
    try:
        join = tuple(
            tuple(int(v) for v in row.split())
            for row in fields["join"].split(";")
        )
        return FamilyReport(
            name=fields["name"],
            n=int(fields["n"]),
            join=join,
            end_order=int(fields["end_order"]),
            members=tuple(members),
        ), fields.get("version", "")
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad catalog record: {exc}")


def _digest(text):
    """Content address of a record: the first 16 hex digits of its SHA-256."""
    import hashlib  # loads OpenSSL; only catalog commands need it

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file and a rename, so
    a reader sees the old file or the new one, never a partial write."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
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
        digest = _digest(text)
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
        mismatch = f"catalog entry {digest} of {name} does not match its digest"
        try:
            text = (out / "entries" / f"{digest}.txt").read_text(encoding="utf-8")
        except FileNotFoundError:
            raise CatalogMissing(f"catalog entry {digest} of {name} is missing")
        except UnicodeDecodeError:
            raise CatalogCorrupt(mismatch)  # a digest names UTF-8 text
        report, _ = parse_record(text)
        if _digest(text) != digest:
            raise CatalogCorrupt(mismatch)
        reports.append(report)
    return reports


def query_catalog(out_dir, min_order=None, max_order=None, has_one=None,
                  lattice_size=None):
    """Rows of (lattice name, n, member) matching the filters."""
    reports = load_catalog(out_dir)
    rows = []
    for r in reports:
        if lattice_size is not None and r.n != lattice_size:
            continue
        for m in r.members:
            if min_order is not None and m.order < min_order:
                continue
            if max_order is not None and m.order > max_order:
                continue
            if has_one is not None and m.has_one != has_one:
                continue
            rows.append((r.name, r.n, m))
    return rows
