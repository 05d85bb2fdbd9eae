"""Command-line front end.

Each command returns its exit code, its JSON object and its text, and
``main`` writes one of the two, as ``--format`` asks; a failure has the
object of :func:`failed`, and so has an argument error under ``--format
json`` (in text it is argparse's usage on stderr).  Exit codes: 0 success
or match, 1 mismatch or failed validation, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .catalog import (
    build_catalog,
    compare_with_expected,
    fixture_reports,
    member_json,
    query_catalog,
    render_report_table,
    report_json,
)
from .endo import END_SIZE_LIMIT, SR_BASE_LIMIT, dense_order, is_dense, parse_srs
from .errors import Error, Mismatch, ParseError, SizeLimit, ValidationError, read_text
from .fixtures import FIXTURE_NAMES, load_fixture
from .lattice import condition_d, enumerate_lattices, is_distributive, parse_lat
from .semimodule import irreducibility, iso_to_dense_subsemiring, parse_smod
from .semiring import is_congruence_simple, parse_sr, structure_flags


def cmd_table1(args, out):
    """Recompute the small-lattice classification table and compare it with
    the expected data file."""
    reports = fixture_reports(jobs=args.jobs)
    diffs = compare_with_expected(reports)
    verdict = ("MISMATCHES:\n" + "".join(f"  {d}\n" for d in diffs) if diffs
               else "all rows match the expected data\n")
    return 1 if diffs else 0, {
        "command": "table1",
        "ok": not diffs,
        "rows": [report_json(r) for r in reports],
        "mismatches": diffs,
    }, render_report_table(reports) + "\n" + verdict


def cmd_min_order(args, out):
    """Minimum order of a dense subsemiring over lattices of size >= 6.

    The least member of every dense family is the set of sums of
    elementary maps, so only that set is built per lattice, and only its
    size is counted (``dense_order``): no map is decoded or sorted.  In
    text, each lattice's line is written as soon as it is done."""
    lats = [l for l in enumerate_lattices(args.max_size) if l.n >= 6] if args.max_size >= 6 else []
    rows = []
    for i, lat in enumerate(lats, 1):
        try:
            size = dense_order(lat, max_size=args.max_end_size)
        except SizeLimit:
            size = None
        rows.append({"name": lat.name, "n": lat.n, "min_order": size})
        if args.format == "text":
            out.write(f"[{i}/{len(lats)}] {lat.name}: skipped (budget)\n" if size is None else
                      f"[{i}/{len(lats)}] {lat.name} (n={lat.n}): least dense order {size}\n")
    sizes = [row["min_order"] for row in rows if row["min_order"] is not None]
    minimum = min(sizes, default=None)
    partial = len(sizes) < len(rows)
    if not lats:
        text = "no lattices of size >= 6 in range; empty result\n"
    elif minimum is None:
        text = "minimum dense subsemiring order: unknown (every lattice skipped)\n"
    else:
        suffix = " (partial: some lattices skipped)" if partial else ""
        text = f"minimum dense subsemiring order: {minimum}{suffix}\n"
    return 0, {"command": "min-order", "max_size": args.max_size, "rows": rows,
               "minimum": minimum, "partial": partial}, text


def _titled(noun, name):
    """The head of a report line: ``noun``, then ``name`` if it has one."""
    return f"{noun} {name}" if name else noun


def _check_lattice(lat):
    info = {
        "kind": "lattice",
        "n": lat.n,
        "name": lat.name,
        "top": lat.top,
        "distributive": is_distributive(lat),
        "unique_dense_family": condition_d(lat),
    }
    return info, (f"{_titled('lattice', lat.name)}: n = {lat.n}, top = {lat.top}\n"
                  f"distributive: {info['distributive']}\n"
                  f"dense subsemiring family is a singleton: {info['unique_dense_family']}\n")


def _semiring_facts(r):
    """Structure flags and congruence-simplicity of a semiring, with the
    witness of a congruence-simple non-ring of order > 2.

    A non-ring of order > 2 is congruence-simple iff it is isomorphic to
    a dense subsemiring (the paper's theorem), so its verdict is read off
    ``iso_to_dense_subsemiring`` first: a witness proves it simple by the
    "if" half, whose lemma is in that function's docstring, and no
    congruence closure runs.  Rings, orders <= 2 and non-rings without a
    witness are decided by ``is_congruence_simple``; that it calls such a
    non-ring simple would break the "only if" half, a ``Mismatch``.
    """
    flags = structure_flags(r)
    facts = {
        "is_ring": flags.is_ring,
        "add_idempotent": flags.add_idempotent,
        "has_one": flags.has_one,
        "trivial_mul": flags.trivial_mul,
    }
    theorem = not flags.is_ring and r.n > 2  # the inputs the theorem speaks of
    dense = iso_to_dense_subsemiring(r) if theorem else None
    if dense is None:
        facts["congruence_simple"] = is_congruence_simple(r)
        if facts["congruence_simple"] and theorem:
            raise Mismatch("congruence-simple, but not isomorphic to a dense subsemiring")
        return facts
    # R acts faithfully with a dense image on R·z, whose addition is the
    # recovered monoid, relabelled by its sorted members both times
    size = dense[0].n
    facts["congruence_simple"] = True
    facts["witness"] = {
        "recovered_lattice_size": size,
        "module_size": size,
        "faithful": True,
        "dense": True,
        "module_matches_recovered_lattice": True,
    }
    return facts


def _semiring_text(r, facts):
    verdict = "congruence-simple" if facts["congruence_simple"] else "not congruence-simple"
    ring = "a ring" if facts["is_ring"] else "not a ring"
    text = (f"{_titled('semiring', r.name)}: {verdict}, {ring}, |R| = {r.n}\n"
            f"flags: add_idempotent={facts['add_idempotent']} has_one={facts['has_one']} "
            f"trivial_mul={facts['trivial_mul']}\n")
    witness = facts.get("witness")
    if witness:
        text += ("dense representation witness: recovered lattice of size "
                 f"{witness['recovered_lattice_size']}, irreducible module of size "
                 f"{witness['module_size']}, faithful={witness['faithful']}, "
                 f"dense={witness['dense']}\n")
    return text


def _check_semiring(r):
    facts = _semiring_facts(r)
    return {"kind": "semiring", "n": r.n, "name": r.name, **facts}, _semiring_text(r, facts)


def _check_subsemiring(sub):
    name = sub.lattice.name
    r = sub.to_semiring(name=f"sub_of_end_{name}")
    dense = is_dense(sub)
    facts = _semiring_facts(r)
    text = (f"subsemiring of End({name}): {sub.size} members, dense={dense}\n"
            + _semiring_text(r, facts))
    del facts["add_idempotent"]  # the subsemiring JSON result has no such key
    return {"kind": "subsemiring", "lattice": name, "size": sub.size, "dense": dense,
            **facts}, text


def _check_semimodule(mod):
    flags = irreducibility(mod)
    info = {"kind": "semimodule", "ring": mod.ring.name, "m": mod.m,
            "acts_nonzero": flags.acts_nonzero,
            "sub_irreducible": flags.sub_irreducible,
            "quotient_irreducible": flags.quotient_irreducible}
    return info, (f"semimodule over {mod.ring.name}: m = {mod.m}, |R| = {mod.ring.n}\n"
                  f"acts_nonzero={flags.acts_nonzero} sub_irreducible={flags.sub_irreducible} "
                  f"quotient_irreducible={flags.quotient_irreducible}\n")


# what a .srs or .smod file may name, by the suffix of the named file:
# the noun of the messages, the reader of that file and the bundled names
REFERENCED = {".lat": ("lattice", parse_lat, FIXTURE_NAMES), ".sr": ("ring", parse_sr, ())}


def reference_resolver(directory, suffix):
    """The function that maps a name a file in ``directory`` refers to onto
    the structure it names: the file ``{name}{suffix}`` in ``directory``
    (a ``.lat`` lattice or a ``.sr`` semiring), else, for a lattice, the
    bundled fixture of that name, else ``ParseError`` ``cannot resolve``.
    A name with a path separator resolves nothing, so no file outside
    ``directory`` is read.  A resolved file with a ``name`` line must name
    the reference; one without is accepted and takes the reference as its
    name, so a report names it as it would a named one."""
    noun, parse, bundled = REFERENCED[suffix]

    def resolve(name):
        path = Path(directory) / f"{name}{suffix}"
        if "/" not in name and os.sep not in name and path.exists():
            found = parse(read_text(path))
        elif name in bundled:
            found = load_fixture(name)
        else:
            raise ParseError(f"cannot resolve {noun} {name!r}")
        if found.name is None:
            found.name = name
        elif found.name != name:
            raise ParseError(f"{noun} {found.name!r} does not match reference {name!r}")
        return found

    return resolve


# check's reader and report by file suffix; a reader takes the text and the
# directory in which the names the file refers to resolve
CHECKS = {
    ".lat": (lambda text, _: parse_lat(text), _check_lattice),
    ".sr": (lambda text, _: parse_sr(text), _check_semiring),
    ".srs": (lambda text, here: parse_srs(text, reference_resolver(here, ".lat")),
             _check_subsemiring),
    ".smod": (lambda text, here: parse_smod(text, reference_resolver(here, ".sr")),
              _check_semimodule),
}


def cmd_check(args, out):
    path = Path(args.path)
    if path.suffix not in CHECKS:
        message = f"unknown file type {path.suffix!r}"
        return 2, failed("check", "UnknownFileType", message), f"error: {message}\n"
    read, report = CHECKS[path.suffix]
    info, text = report(read(read_text(path), path.parent))
    return 0, {"command": "check", "ok": True, "result": info}, text


def cmd_catalog(args, out):
    if args.action == "build":
        try:
            index = build_catalog(args.out, max_size=5 if args.max_size is None else args.max_size,
                                  max_end=args.max_sr_base, jobs=args.jobs)
        except OSError as exc:
            raise ParseError(f"cannot write catalog at {args.out}: {exc.strerror or exc}")
        return 0, {
            "command": "catalog build",
            "entries": [{"name": n, "digest": d} for n, d in index],
        }, f"wrote {len(index)} entries to {args.out}\n"
    rows = query_catalog(args.out, min_order=args.min_order, max_order=args.max_order,
                         has_one=args.has_one, lattice_size=args.lattice_size)
    return 0, {
        "command": "catalog query",
        "rows": [{"lattice": name, "n": n, **member_json(m)} for name, n, m in rows],
    }, "".join(f"{name} (n={n}): order {m.order} has_one={m.has_one} "
               f"self_anti_iso={m.self_anti_iso} iso_class={m.iso_class}\n"
               for name, n, m in rows) + f"{len(rows)} rows\n"


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class UsageError(Exception):
    """An argument error: the parser that met it and its message."""


class Parser(argparse.ArgumentParser):
    """An argument parser that raises ``UsageError`` where argparse would
    print the usage and exit, so ``main`` can write the error as JSON."""

    def error(self, message):
        raise UsageError(self, message)


def build_parser():
    parser = Parser(
        prog="semirings",
        description="finite endomorphism semirings and their dense subsemirings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="parallel worker count for sweeps (capped at the CPU "
                             "and task counts)")
    parser.add_argument("--max-end-size", type=positive_int, default=END_SIZE_LIMIT,
                        help="bound on the least dense subsemiring that min-order "
                             "builds per lattice")
    parser.add_argument("--max-sr-base", type=positive_int, default=SR_BASE_LIMIT,
                        help="bound on |End(M)| per lattice for catalog build")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="reproduce the small-lattice classification table")
    p_table.set_defaults(run=cmd_table1)

    p_min = sub.add_parser("min-order",
                           help="least dense subsemiring order over lattices of size >= 6")
    p_min.add_argument("--max-size", type=positive_int, required=True)
    p_min.set_defaults(run=cmd_min_order)

    p_check = sub.add_parser("check", help="validate and report on a .lat/.sr/.srs/.smod file")
    p_check.add_argument("path")
    p_check.set_defaults(run=cmd_check)

    p_cat = sub.add_parser("catalog", help="build or query the persistent catalog")
    p_cat.add_argument("action", choices=("build", "query"))
    p_cat.add_argument("--out", required=True)
    p_cat.add_argument("--max-size", type=positive_int, help="build only (default 5)")
    p_cat.add_argument("--min-order", type=int, help="query only")
    p_cat.add_argument("--max-order", type=int, help="query only")
    p_cat.add_argument("--has-one", type=int, choices=(0, 1), help="query only")
    p_cat.add_argument("--lattice-size", type=int, help="query only")
    p_cat.set_defaults(run=cmd_catalog)
    return parser


def command_name(args):
    """The ``command`` of the JSON object of the command ``args`` runs."""
    return f"catalog {args.action}" if args.command == "catalog" else args.command


def failed(command, kind, message):
    """The JSON object of a failed command: the ``command`` its success
    would carry, ``ok`` false, and the ``kind`` and ``message`` of the
    error."""
    return {"command": command, "ok": False, "error": {"kind": kind, "message": message}}


def requested_format(argv):
    """The ``--format`` that ``argv`` asks for, read on its own once the
    whole command line has failed to parse; None if it cannot be read."""
    pre = Parser(add_help=False)
    pre.add_argument("--format")
    try:
        return pre.parse_known_args(argv)[0].format
    except UsageError:
        return None


def usage_failed(parser, message, args, argv, out):
    """Exit code 2 for an argument error met by ``parser``: argparse's usage
    and message on stderr, or under ``--format json`` the object of
    :func:`failed` on ``out``, naming the command as far as it was read
    (``args`` once parsed, else the name that ends a subparser's prog)."""
    if requested_format(argv) != "json":
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"{parser.prog}: error: {message}\n")
    else:
        command = command_name(args) if args else parser.prog.partition(" ")[2] or None
        out.write(json.dumps(failed(command, "UsageError", message), indent=2, sort_keys=True)
                  + "\n")
    return 2


# exit code and text prefix by error class; any other Error exits 1 with "error: <class name>"
PREFIXES = {ParseError: (2, "parse error"), ValidationError: (1, "validation failed")}

# the catalog flags that only the other action reads
FOREIGN_FLAGS = {"build": ("min_order", "max_order", "has_one", "lattice_size"),
                 "query": ("max_size",)}


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = None
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command == "catalog":
            foreign = [f"--{key.replace('_', '-')}" for key in FOREIGN_FLAGS[args.action]
                       if getattr(args, key) is not None]
            if foreign:
                parser.error(f"catalog {args.action} does not take {', '.join(foreign)}")
    except SystemExit as exc:  # --help and --version
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        return usage_failed(*exc.args, args, argv, out)
    try:
        code, result, text = args.run(args, out)
    except Error as exc:
        kind = type(exc).__name__
        code, prefix = PREFIXES.get(type(exc), (1, f"error: {kind}"))
        result, text = failed(command_name(args), kind, str(exc)), f"{prefix}: {exc}\n"
    out.write(text if args.format == "text"
              else json.dumps(result, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
